// Fault-tolerance behavior of the serving layer under deterministic
// fault injection: transient replica failures retried to success,
// consecutive failures quarantining a replica with bitwise-identical
// degraded output (and its lane no longer serving), the per-lane
// watchdog killing a wedged lane's batch while the other lanes keep
// serving, per-item deadline enforcement mid-batch, truthful injected
// admission failures, and queue churn against a concurrent shutdown.
// Also unit tests for FaultInjector and RetryPolicy themselves.
//
// Which lane pulls a request is up to the scheduler, so tests that need
// a lane busy hold it with an armed wedge fault and wait for the wedge
// to fire (testing::WaitForTrip) before submitting the rest.
//
// Every test resets the process-global FaultInjector in SetUp/TearDown
// so fault points never leak across tests.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/rng.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "models/tiny_r2plus1d.h"
#include "nn/trainer.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_wait.h"

namespace hwp3d {
namespace {

using serve::InferenceResult;
using testing::WaitForTrip;

// --- FaultInjector ----------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Get().Reset(); }
  void TearDown() override { FaultInjector::Get().Reset(); }
};

TEST_F(FaultInjectorTest, InactiveByDefault) {
  auto& inj = FaultInjector::Get();
  EXPECT_FALSE(inj.active());
  EXPECT_FALSE(inj.Trip("serve.replica_infer"));
  EXPECT_EQ(inj.total_injected(), 0);
}

TEST_F(FaultInjectorTest, ArmFiresExactlyCountTimes) {
  auto& inj = FaultInjector::Get();
  inj.Arm("x", 3);
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += inj.Trip("x");
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.injected("x"), 3);
  inj.Disable("x");
  EXPECT_FALSE(inj.Trip("x"));
}

TEST_F(FaultInjectorTest, ProbabilisticPatternIsDeterministic) {
  auto& inj = FaultInjector::Get();
  auto run = [&inj] {
    inj.Reset();
    inj.SetSeed(7);
    inj.Enable("p", {.probability = 0.5});
    std::vector<bool> pattern;
    for (int i = 0; i < 400; ++i) pattern.push_back(inj.Trip("p"));
    return pattern;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);  // same seed -> same fire pattern
  const int64_t fired = inj.injected("p");
  EXPECT_GT(fired, 100);  // ~200 expected; wide deterministic bounds
  EXPECT_LT(fired, 300);

  // A different seed produces a different pattern.
  inj.Reset();
  inj.SetSeed(8);
  inj.Enable("p", {.probability = 0.5});
  std::vector<bool> other;
  for (int i = 0; i < 400; ++i) other.push_back(inj.Trip("p"));
  EXPECT_NE(first, other);
}

TEST_F(FaultInjectorTest, ConfigureParsesSpecGrammar) {
  auto& inj = FaultInjector::Get();
  ASSERT_TRUE(inj.Configure("a=0.25,b=1x2,c=1x1d5000").ok());
  EXPECT_TRUE(inj.active());
  EXPECT_EQ(inj.delay_us("c"), 5000);
  int b_fired = 0;
  for (int i = 0; i < 5; ++i) b_fired += inj.Trip("b");
  EXPECT_EQ(b_fired, 2);  // capped by x2
  EXPECT_TRUE(inj.Trip("c"));
  EXPECT_FALSE(inj.Trip("c"));  // capped by x1

  EXPECT_FALSE(inj.Configure("noequals").ok());
  EXPECT_FALSE(inj.Configure("p=1.5").ok());       // probability > 1
  EXPECT_FALSE(inj.Configure("p=0.5xy").ok());     // bad count suffix
  EXPECT_FALSE(inj.Configure("p=0.5d10z").ok());   // trailing garbage
}

// --- RetryPolicy ------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsAndCapsWithoutJitter) {
  RetryPolicy retry({.max_attempts = 5,
                     .initial_backoff_us = 100,
                     .multiplier = 2.0,
                     .max_backoff_us = 400,
                     .jitter = 0.0});
  EXPECT_EQ(retry.NextBackoffUs(0, 0.0, 0.0).value(), 100);
  EXPECT_EQ(retry.NextBackoffUs(1, 0.0, 0.0).value(), 200);
  EXPECT_EQ(retry.NextBackoffUs(2, 0.0, 0.0).value(), 400);
  EXPECT_EQ(retry.NextBackoffUs(3, 0.0, 0.0).value(), 400);  // capped
  EXPECT_FALSE(retry.NextBackoffUs(4, 0.0, 0.0).has_value());  // exhausted
}

TEST(RetryPolicyTest, NeverSchedulesARetryPastTheDeadline) {
  RetryPolicy retry({.max_attempts = 10,
                     .initial_backoff_us = 1000,
                     .multiplier = 1.0,
                     .max_backoff_us = 1000,
                     .jitter = 0.0});
  // Plenty of headroom: retry engages.
  EXPECT_TRUE(retry.NextBackoffUs(0, 0.0, 10'000.0).has_value());
  // The 1000 us backoff would land at/after the deadline: no retry.
  EXPECT_FALSE(retry.NextBackoffUs(0, 9'500.0, 10'000.0).has_value());
  EXPECT_FALSE(retry.NextBackoffUs(0, 9'000.0, 10'000.0).has_value());
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  const RetryConfig cfg{.max_attempts = 4,
                        .initial_backoff_us = 1000,
                        .multiplier = 1.0,
                        .max_backoff_us = 1000,
                        .jitter = 0.25};
  RetryPolicy a(cfg, /*seed=*/3), b(cfg, /*seed=*/3);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const int64_t ba = a.NextBackoffUs(attempt, 0.0, 0.0).value();
    EXPECT_EQ(ba, b.NextBackoffUs(attempt, 0.0, 0.0).value());
    EXPECT_GE(ba, 750);   // 1000 * (1 - 0.25)
    EXPECT_LE(ba, 1250);  // 1000 * (1 + 0.25)
  }
}

// --- Server under injected faults -------------------------------------

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Get().Reset();
    SetLogLevel(LogLevel::Error);
    models::TinyR2Plus1dConfig mcfg;
    mcfg.num_classes = 4;
    mcfg.stem_channels = 4;
    mcfg.stage1_channels = 8;
    mcfg.stage2_channels = 8;
    model_ = std::make_unique<models::TinyR2Plus1d>(mcfg, rng_);
    data::SyntheticVideoConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.frames = 6;
    dcfg.height = 10;
    dcfg.width = 10;
    dataset_ = std::make_unique<data::SyntheticVideoDataset>(dcfg);
    auto batches = dataset_->MakeBatches(8, 8, rng_);
    nn::Sgd opt(model_->Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(*model_, opt, batches, {});

    fpga::CompiledModelOptions copts;
    copts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
    auto compiled = fpga::CompiledModel::Compile(*model_, copts);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    compiled_ = std::make_unique<fpga::CompiledModel>(
        std::move(compiled).value());
  }
  void TearDown() override {
    FaultInjector::Get().Reset();
    SetLogLevel(LogLevel::Info);
  }

  TensorF MakeClip(int label, uint64_t seed) {
    Rng rng(seed);
    return dataset_->MakeSample(label, rng).clip;
  }

  // Fast-retry config so fault tests never sleep for real backoffs.
  static RetryConfig FastRetry(int max_attempts) {
    return {.max_attempts = max_attempts,
            .initial_backoff_us = 50,
            .multiplier = 2.0,
            .max_backoff_us = 500,
            .jitter = 0.1};
  }

  Rng rng_{11};
  std::unique_ptr<models::TinyR2Plus1d> model_;
  std::unique_ptr<data::SyntheticVideoDataset> dataset_;
  std::unique_ptr<fpga::CompiledModel> compiled_;
};

TEST_F(ServeFaultTest, TransientFailureRetriesToSuccess) {
  FaultInjector::Get().Arm("serve.replica_infer", 2);  // fail twice, then heal
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.retry = FastRetry(3);
  serve::InferenceServer server(*compiled_, cfg);

  const TensorF clip = MakeClip(1, 21);
  auto r = server.Submit(clip);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Retried output is the same bits a fault-free run produces.
  EXPECT_TRUE(AllClose(r->logits, compiled_->Infer(clip), 0.0f, 0.0f));

  const auto stats = server.Stats();
  EXPECT_EQ(stats.faults_injected, 2);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.replicas_quarantined, 0);  // 2 < quarantine_after=3
}

TEST_F(ServeFaultTest, ExhaustedRetriesFailTruthfully) {
  // One replica that always fails: retries and the rescue pass both
  // exhaust, and the request must resolve with the transient status —
  // never hang, never pretend success.
  FaultInjector::Get().Arm("serve.replica_infer", 1'000'000);
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.retry = FastRetry(2);
  serve::InferenceServer server(*compiled_, cfg);

  auto r = server.Submit(MakeClip(0, 33));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.Stats().completed, 0);
  // The last healthy replica is never quarantined, even though it
  // failed far more than quarantine_after times.
  EXPECT_EQ(server.Stats().replicas_quarantined, 0);
  EXPECT_EQ(server.Stats().healthy_replicas, 1);
}

TEST_F(ServeFaultTest, QuarantineDegradesWithBitwiseIdenticalOutput) {
  // Replica 1 always fails; replica 0 is healthy. After K = 2
  // consecutive failures r1 is quarantined and every request is still
  // answered — bitwise identical to the direct (healthy) path.
  //
  // Lane 1 must see work: replica 0 wedges once, and the rest of the
  // requests go in only after that wedge fired. If lane 0 took the
  // first request it is stuck while lane 1 pulls the rest; if lane 1
  // took it, the wedge fired in its rescue pass, after the quarantine.
  FaultInjector::Get().Arm("serve.replica_infer.r1", 1'000'000);
  FaultInjector::Get().Arm("serve.replica_wedge.r0", 1, /*delay_us=*/200'000);
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 8;
  cfg.quarantine_after = 2;
  cfg.retry = FastRetry(3);
  serve::InferenceServer server(*compiled_, cfg);

  std::vector<TensorF> clips;
  for (int i = 0; i < 8; ++i) clips.push_back(MakeClip(i % 4, 50 + i));
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  futures.push_back(server.SubmitAsync(clips[0]));
  WaitForTrip("serve.replica_wedge.r0");
  for (size_t i = 1; i < clips.size(); ++i) {
    futures.push_back(server.SubmitAsync(clips[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << "clip " << i << ": " << r.status().ToString();
    EXPECT_TRUE(AllClose(r->logits, compiled_->Infer(clips[i]), 0.0f, 0.0f))
        << "clip " << i;
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed, 8);
  EXPECT_EQ(stats.replicas_quarantined, 1);
  EXPECT_EQ(stats.healthy_replicas, 1);
  EXPECT_GT(stats.faults_injected, 0);

  // Later requests run on the healthy survivor only: no new faults fire
  // because the armed point targets the quarantined replica.
  const int64_t faults_before = stats.faults_injected;
  auto late = server.Submit(clips[0]);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->replica, 0);
  EXPECT_EQ(server.Stats().faults_injected, faults_before);
}

TEST_F(ServeFaultTest, QuarantinedReplicaNeverServesLaterRequests) {
  // Three lanes; replica 2 always fails and is quarantined on its first
  // failure. Replicas 0 and 1 each wedge once for 500 ms, so within the
  // first few requests lane 2 is the only free lane and must pull one.
  // After the quarantine a burst of requests comes back from replicas 0
  // and 1 only: lane 2 stopped pulling, and what was left of its last
  // batch ran as a healthy replica.
  auto& inj = FaultInjector::Get();
  inj.Arm("serve.replica_infer.r2", 1'000'000);
  inj.Arm("serve.replica_wedge.r0", 1, /*delay_us=*/500'000);
  inj.Arm("serve.replica_wedge.r1", 1, /*delay_us=*/500'000);
  serve::ServerConfig cfg;
  cfg.replicas = 3;
  cfg.max_batch = 4;
  cfg.quarantine_after = 1;
  cfg.retry = FastRetry(1);
  serve::InferenceServer server(*compiled_, cfg);

  std::vector<std::future<StatusOr<InferenceResult>>> warmup;
  int seed = 500;
  while (server.Stats().replicas_quarantined == 0) {
    warmup.push_back(server.SubmitAsync(MakeClip(0, seed++)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& f : warmup) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NE(r->replica, 2);  // r2 never succeeds
  }
  EXPECT_EQ(server.Stats().healthy_replicas, 2);

  std::vector<std::future<StatusOr<InferenceResult>>> later;
  for (int i = 0; i < 24; ++i) {
    later.push_back(server.SubmitAsync(MakeClip(i % 4, seed++)));
  }
  for (auto& f : later) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NE(r->replica, 2);
  }
  EXPECT_EQ(server.Stats().replicas_quarantined, 1);
}

TEST_F(ServeFaultTest, WatchdogFailsAStuckBatch) {
  // One lane; the watchdog (50 ms) must fail a wedged batch (300 ms
  // wedge) with kDeadlineExceeded long before the wedge clears, so
  // waiters are not hostage to the stuck call. The lone first request
  // wedges; two more queue behind it, form the lane's next batch and
  // wedge again, and the watchdog fails that whole batch too.
  FaultInjector::Get().Arm("serve.replica_wedge", 2, /*delay_us=*/300'000);
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 2;
  cfg.watchdog_timeout_us = 50'000;
  serve::InferenceServer server(*compiled_, cfg);

  auto f0 = server.SubmitAsync(MakeClip(0, 70));
  WaitForTrip("serve.replica_wedge");
  auto f1 = server.SubmitAsync(MakeClip(1, 71));
  auto f2 = server.SubmitAsync(MakeClip(2, 72));
  auto r0 = f0.get();
  ASSERT_FALSE(r0.ok());
  EXPECT_EQ(r0.status().code(), StatusCode::kDeadlineExceeded);
  // Released while the lane is still wedged: the queued pair has not
  // been pulled yet.
  EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  for (auto* f : {&f1, &f2}) {
    auto r = f->get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }

  server.Shutdown();  // returns once the wedged call unwinds
  const auto stats = server.Stats();
  EXPECT_EQ(stats.watchdog_fired, 2);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.deadline_exceeded, 3);
  EXPECT_EQ(stats.completed, 0);
}

TEST_F(ServeFaultTest, WatchdogFailsOnlyTheWedgedLanesBatch) {
  // Two lanes. One wedges on the first request for 1 s; the per-lane
  // watchdog fails that request alone, while the other lane serves
  // every later request normally.
  FaultInjector::Get().Arm("serve.replica_wedge", 1, /*delay_us=*/1'000'000);
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.watchdog_timeout_us = 50'000;
  serve::InferenceServer server(*compiled_, cfg);

  auto stuck = server.SubmitAsync(MakeClip(0, 73));
  WaitForTrip("serve.replica_wedge");
  std::vector<std::future<StatusOr<InferenceResult>>> others;
  for (int i = 0; i < 6; ++i) {
    others.push_back(server.SubmitAsync(MakeClip(i % 4, 74 + i)));
  }
  auto rs = stuck.get();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  for (auto& f : others) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Everything above resolved while the wedged call still sleeps.
  const auto stats = server.Stats();
  EXPECT_EQ(stats.watchdog_fired, 1);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.completed, 6);
  server.Shutdown();
  EXPECT_EQ(server.Stats().watchdog_fired, 1);
}

TEST_F(ServeFaultTest, WedgedLaneDoesNotHoldUpTheOthers) {
  // No watchdog: one lane sleeps 2 s inside a wedged call, and every
  // request submitted meanwhile completes on the other lane before the
  // wedge clears.
  FaultInjector::Get().Arm("serve.replica_wedge", 1, /*delay_us=*/2'000'000);
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  serve::InferenceServer server(*compiled_, cfg);

  auto wedged = server.SubmitAsync(MakeClip(0, 90));
  WaitForTrip("serve.replica_wedge");
  std::vector<std::future<StatusOr<InferenceResult>>> others;
  for (int i = 0; i < 8; ++i) {
    others.push_back(server.SubmitAsync(MakeClip(i % 4, 91 + i)));
  }
  int other_replica = -1;
  for (auto& f : others) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (other_replica < 0) other_replica = r->replica;
    EXPECT_EQ(r->replica, other_replica);  // all on the free lane
  }
  EXPECT_EQ(wedged.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  auto rw = wedged.get();  // the wedge clears and the request completes
  ASSERT_TRUE(rw.ok()) << rw.status().ToString();
  EXPECT_NE(rw->replica, other_replica);
  EXPECT_EQ(server.Stats().completed, 9);
}

TEST_F(ServeFaultTest, MidBatchDeadlineIsEnforcedPerItem) {
  // The lone lane first wedges for 100 ms on W. Meanwhile A (no
  // deadline) and B (200 ms deadline) queue and form its next batch,
  // pulled at ~100 ms while B is still live. A then wedges for 200 ms
  // (the replica's own wedge point; the shared one fired once), and B
  // expires while A runs: the per-item check must fail B with
  // kDeadlineExceeded instead of running it and reporting a stale OK.
  FaultInjector::Get().Arm("serve.replica_wedge", 1, /*delay_us=*/100'000);
  FaultInjector::Get().Arm("serve.replica_wedge.r0", 1, /*delay_us=*/200'000);
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 2;
  serve::InferenceServer server(*compiled_, cfg);

  auto fw = server.SubmitAsync(MakeClip(2, 79));
  WaitForTrip("serve.replica_wedge");
  auto fa = server.SubmitAsync(MakeClip(0, 80));  // no deadline
  auto fb = server.SubmitAsync(MakeClip(1, 81), /*deadline_us=*/200'000);
  ASSERT_TRUE(fw.get().ok());
  auto ra = fa.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->batch_size, 2);  // A and B were pulled together
  auto rb = fb.get();
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(rb.status().message().find("mid-batch"), std::string::npos)
      << rb.status().ToString();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.deadline_exceeded, 1);
}

TEST_F(ServeFaultTest, InjectedAdmissionFailureIsTruthful) {
  FaultInjector::Get().Arm("serve.queue_admit", 1);
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  serve::InferenceServer server(*compiled_, cfg);

  auto rejected = server.Submit(MakeClip(0, 90));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("injected"), std::string::npos);

  auto ok = server.Submit(MakeClip(0, 90));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  const auto stats = server.Stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.faults_injected, 1);
  EXPECT_EQ(stats.accepted, 1);
}

TEST_F(ServeFaultTest, ClosedQueueChurnResolvesEveryFuture) {
  // Producers race a concurrent Shutdown with a low fault rate on
  // admission: every submitted future must resolve — OK, or a truthful
  // kUnavailable / kResourceExhausted — and nothing may hang or crash.
  FaultInjector::Get().Enable("serve.queue_admit", {.probability = 0.2});
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.queue_capacity = 8;
  cfg.retry = FastRetry(2);
  serve::InferenceServer server(*compiled_, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  std::vector<std::future<StatusOr<InferenceResult>>> futures(
      kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        futures[static_cast<size_t>(p * kPerProducer + i)] =
            server.SubmitAsync(MakeClip(i % 4, 200 + p * 100 + i));
      }
    });
  }
  // Shut down while producers are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Shutdown();
  for (auto& t : producers) t.join();

  int ok = 0, unavailable = 0, exhausted = 0, other = 0;
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    auto r = f.get();  // must not hang
    if (r.ok()) {
      ++ok;
    } else if (r.status().code() == StatusCode::kUnavailable) {
      ++unavailable;
    } else if (r.status().code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(ok + unavailable + exhausted, kProducers * kPerProducer);
  EXPECT_EQ(other, 0);
  // Accounting is airtight: accepted requests either completed or were
  // expired/rejected truthfully — none vanished.
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed + stats.deadline_exceeded, stats.accepted);
  EXPECT_EQ(stats.completed, ok);
}

}  // namespace
}  // namespace hwp3d
