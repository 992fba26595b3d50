// Serve-layer behavior: lanes that pull what is queued (a lone request
// starts at once, a backlog is taken as one batch), admission-control
// backpressure, deadline expiry, graceful drain, and the bitwise
// replica-count invariance the server promises. Tests assert
// counts/statuses; the one timing bound (a lone request's queue wait)
// is a tenth of a 10 s batching window that the server must not wait
// out. A lane is held busy with an armed `serve.replica_wedge` fault,
// never with a sleep, so the tests stay deterministic on slow hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/admm.h"
#include "core/block_partition.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "kernels/thread_pool.h"
#include "models/tiny_r2plus1d.h"
#include "nn/checkpoint.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/latency_reservoir.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_wait.h"

namespace hwp3d {
namespace {

using serve::InferenceResult;
using serve::Request;
using serve::RequestQueue;
using testing::WaitForTrip;

Request MakeRequest() {
  Request req;
  req.clip = TensorF(Shape{1});
  req.enqueue_us = obs::NowUs();
  return req;
}

// --- LatencyReservoir -------------------------------------------------

TEST(LatencyReservoirTest, KeepsEveryValueUpToCapacity) {
  serve::LatencyReservoir r(100);
  std::vector<double> all;
  for (int i = 0; i < 100; ++i) {
    all.push_back(1000.0 - 3.0 * i);
    r.Add(all.back());
  }
  EXPECT_EQ(r.seen(), 100);
  EXPECT_EQ(r.sample(), all);
  EXPECT_EQ(serve::PercentileUs(r.sample(), 0.5),
            serve::PercentileUs(all, 0.5));
}

TEST(LatencyReservoirTest, StaysBoundedAndDeterministic) {
  serve::LatencyReservoir a(64), b(64);
  for (int i = 0; i < 100000; ++i) {
    a.Add(static_cast<double>(i));
    b.Add(static_cast<double>(i));
  }
  EXPECT_EQ(a.seen(), 100000);
  EXPECT_EQ(a.sample().size(), 64u);
  EXPECT_EQ(a.sample(), b.sample());
  // Algorithm R replaced early values with later ones.
  EXPECT_GT(*std::max_element(a.sample().begin(), a.sample().end()), 64.0);
}

TEST(LatencyReservoirTest, SampleFollowsTheStreamDistribution) {
  serve::LatencyReservoir r(serve::kLatencySampleSize);
  const int n = 200000;
  for (int i = 0; i < n; ++i) r.Add(static_cast<double>(i));
  // A uniform sample of 0..n-1: its quantiles sit near q·n.
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_NEAR(serve::PercentileUs(r.sample(), q) / n, q, 0.03) << q;
  }
}

// --- RequestQueue -----------------------------------------------------

TEST(RequestQueueTest, PopsWhatIsQueuedWithoutWaiting) {
  RequestQueue q(16);
  // A consumer blocked on the empty queue takes the first request as
  // soon as it arrives; it does not wait for a batch to fill (nothing
  // else is ever pushed, so a wait would never end).
  auto consumer =
      std::async(std::launch::async, [&q] { return q.PopBatch(8); });
  ASSERT_TRUE(q.Push(MakeRequest()).ok());
  EXPECT_EQ(consumer.get().size(), 1u);

  // A backlog is taken at once, up to max_batch, in FIFO order; the
  // rest stays queued for the next pull.
  std::vector<double> enqueued;
  for (int i = 0; i < 6; ++i) {
    Request req = MakeRequest();
    req.enqueue_us = i;
    enqueued.push_back(req.enqueue_us);
    ASSERT_TRUE(q.Push(std::move(req)).ok());
  }
  std::vector<double> popped;
  for (size_t want : {4u, 2u}) {
    const auto batch = q.PopBatch(4);
    ASSERT_EQ(batch.size(), want);
    for (const Request& r : batch) popped.push_back(r.enqueue_us);
  }
  EXPECT_EQ(popped, enqueued);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueueTest, RejectsWhenFullAndAfterClose) {
  RequestQueue q(2);
  ASSERT_TRUE(q.Push(MakeRequest()).ok());
  ASSERT_TRUE(q.Push(MakeRequest()).ok());
  EXPECT_EQ(q.Push(MakeRequest()).code(), StatusCode::kResourceExhausted);

  q.Close();
  EXPECT_EQ(q.Push(MakeRequest()).code(), StatusCode::kUnavailable);

  // Closed but not drained: consumers still receive the backlog...
  EXPECT_EQ(q.PopBatch(8).size(), 2u);
  // ...and then the empty shutdown signal.
  EXPECT_TRUE(q.PopBatch(8).empty());
}

// --- InferenceServer over a compiled model ----------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Get().Reset();
    SetLogLevel(LogLevel::Warning);
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

  Rng rng_{11};
  std::unique_ptr<models::TinyR2Plus1d> model_;
  std::unique_ptr<data::SyntheticVideoDataset> dataset_;
  std::unique_ptr<fpga::CompiledModel> compiled_;
};

TEST_F(ServeTest, BacklogIsPulledAsOneBatch) {
  // The only lane is held by a wedged first request while four more
  // queue behind it; once free, it takes all four in one pull.
  FaultInjector::Get().Arm("serve.replica_wedge", 1, /*delay_us=*/200'000);
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  serve::InferenceServer server(*compiled_, cfg);
  auto first = server.SubmitAsync(MakeClip(0, 99));
  WaitForTrip("serve.replica_wedge");
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.SubmitAsync(MakeClip(i % 4, 100 + i)));
  }
  auto lone = first.get();
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();
  EXPECT_EQ(lone->batch_size, 1);
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->batch_size, 4);
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 2.5);
}

TEST_F(ServeTest, StatsPercentilesAreExactForFewRequests) {
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  serve::InferenceServer server(*compiled_, cfg);
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(server.SubmitAsync(MakeClip(i % 4, 300 + i)));
  }
  std::vector<double> total_us;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    total_us.push_back(r->total_us);
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed, 24);
  EXPECT_DOUBLE_EQ(stats.p50_ms, serve::PercentileUs(total_us, 0.50) / 1e3);
  EXPECT_DOUBLE_EQ(stats.p99_ms, serve::PercentileUs(total_us, 0.99) / 1e3);
}

TEST_F(ServeTest, LoneRequestSkipsTheBatchingWindow) {
  // An idle lane starts on a lone request at once: it never sits out
  // max_delay_us waiting for a batch to fill, whether one lane fans
  // the clip out over the pool or one of several runs it serially.
  for (int replicas : {1, 3}) {
    SCOPED_TRACE(replicas);
    serve::ServerConfig cfg;
    cfg.replicas = replicas;
    cfg.max_batch = 64;
    cfg.max_delay_us = 10'000'000;
    serve::InferenceServer server(*compiled_, cfg);
    auto r = server.Submit(MakeClip(0, 7));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->batch_size, 1);
    EXPECT_LT(r->queue_us, cfg.max_delay_us / 10.0);
  }
}

TEST_F(ServeTest, LoneLaneRunsSmallClipsInlineAndFansOutLargeOnes) {
  if (ThreadPool::Get().threads() == 1) {
    GTEST_SKIP() << "a one-thread pool runs every clip inline";
  }
  const auto regions = [] {
    return obs::MetricsRegistry::Get().CounterTotal("kernels.pool.regions");
  };
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  {
    // The tiny clip is far below kInlineClipMacs, so no request opens a
    // pool region.
    serve::InferenceServer server(*compiled_, cfg);
    ASSERT_TRUE(server.Submit(MakeClip(0, 1)).ok());
    const int64_t before = regions();
    for (int i = 0; i < 8; ++i) {
      auto r = server.Submit(MakeClip(i % 4, 10 + i));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_LT(r->stats.macs_executed, serve::kInlineClipMacs);
    }
    EXPECT_EQ(regions(), before);
  }
  // serve_dense's model (8/16/32 channels) on its 8x16x16 clip still
  // fans every request out.
  models::TinyR2Plus1d dense(models::TinyR2Plus1dConfig{}, rng_);
  fpga::CompiledModelOptions copts;
  copts.tiling = fpga::Tiling{4, 4, 2, 4, 4};
  auto compiled = fpga::CompiledModel::Compile(dense, copts);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  serve::InferenceServer server(compiled.value(), cfg);
  TensorF clip(Shape{1, 8, 16, 16});
  FillUniform(clip, rng_, -1.0f, 1.0f);
  ASSERT_TRUE(server.Submit(clip).ok());
  for (int i = 0; i < 2; ++i) {
    const int64_t before = regions();
    auto r = server.Submit(clip);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.macs_executed, 34'652'160);
    EXPECT_GT(regions(), before);
  }
}

TEST_F(ServeTest, LoneLaneRunsEveryTinyShapeInlineFromItsFirstRequest) {
  if (ThreadPool::Get().threads() == 1) {
    GTEST_SKIP() << "a one-thread pool runs every clip inline";
  }
  const auto regions = [] {
    return obs::MetricsRegistry::Get().CounterTotal("kernels.pool.regions");
  };
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  serve::InferenceServer server(*compiled_, cfg);
  const Shape base = MakeClip(0, 1).shape();
  // A client that varies its clip shape (32 shapes, none larger than the
  // tiny clip): the lane works each shape's MACs out from the plan, so
  // not even a shape's first request fans out.
  for (int i = 0; i < 32; ++i) {
    TensorF clip(Shape{base[0], base[1] - i % 4, base[2] - i / 4 % 4,
                       base[3] - i / 16});
    FillUniform(clip, rng_, -1.0f, 1.0f);
    const int64_t before = regions();
    auto r = server.Submit(clip);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LT(r->stats.macs_executed, serve::kInlineClipMacs);
    EXPECT_EQ(regions(), before) << "shape " << clip.shape().ToString();
  }
}

TEST_F(ServeTest, BackpressureRejectsBeyondQueueCapacity) {
  // The only lane is held by a wedged request, so nothing leaves the
  // queue while it fills.
  FaultInjector::Get().Arm("serve.replica_wedge", 1, /*delay_us=*/200'000);
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 64;
  cfg.queue_capacity = 4;
  serve::InferenceServer server(*compiled_, cfg);
  auto held = server.SubmitAsync(MakeClip(0, 9));
  WaitForTrip("serve.replica_wedge");
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(server.SubmitAsync(MakeClip(0, 10 + i)));
  }
  // The 5th submit found the queue at capacity: rejected immediately,
  // not blocked.
  auto rejected = futures[4].get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  server.Shutdown();  // drains the 4 queued requests behind the wedge
  EXPECT_TRUE(held.get().ok());
  for (int i = 0; i < 4; ++i) {
    auto r = futures[i].get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.accepted, 5);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 5);
}

TEST_F(ServeTest, ExpiredDeadlineSkipsInference) {
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 8;
  serve::InferenceServer server(*compiled_, cfg);
  auto r = server.Submit(MakeClip(1, 3), /*deadline_us=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.Stats().deadline_exceeded, 1);
  EXPECT_EQ(server.Stats().completed, 0);
}

TEST_F(ServeTest, ShutdownDrainsAllAcceptedRequests) {
  serve::ServerConfig cfg;
  cfg.replicas = 4;
  cfg.max_batch = 4;
  cfg.queue_capacity = 32;
  serve::InferenceServer server(*compiled_, cfg);
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(server.SubmitAsync(MakeClip(i % 4, 40 + i)));
  }
  server.Shutdown();  // the 4 lanes must drain the backlog, not drop it
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->replica, 0);
    EXPECT_LT(r->replica, 4);
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.accepted, 30);
  EXPECT_EQ(stats.completed, 30);
  EXPECT_EQ(stats.queue_depth, 0);

  // After shutdown the server refuses new work.
  auto late = server.Submit(MakeClip(0, 99));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServeTest, MalformedClipFailsOnlyThatRequest) {
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 2;
  serve::InferenceServer server(*compiled_, cfg);
  auto bad = server.SubmitAsync(TensorF(Shape{1, 6, 10}));  // rank 3
  auto good = server.SubmitAsync(MakeClip(2, 5));
  auto bad_r = bad.get();
  ASSERT_FALSE(bad_r.ok());
  EXPECT_EQ(bad_r.status().code(), StatusCode::kInvalidArgument);
  auto good_r = good.get();
  EXPECT_TRUE(good_r.ok()) << good_r.status().ToString();
}

TEST_F(ServeTest, PredictionsInvariantAcrossReplicaCounts) {
  std::vector<TensorF> clips;
  for (int i = 0; i < 6; ++i) clips.push_back(MakeClip(i % 4, 60 + i));

  // Ground truth: the compiled model called directly.
  std::vector<TensorF> direct;
  for (const TensorF& clip : clips) direct.push_back(compiled_->Infer(clip));

  for (int replicas : {1, 2, 4}) {
    serve::ServerConfig cfg;
    cfg.replicas = replicas;
    cfg.max_batch = 3;
    serve::InferenceServer server(*compiled_, cfg);
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (const TensorF& clip : clips) {
      futures.push_back(server.SubmitAsync(clip));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      auto r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Bitwise identical to the direct path, whatever the replica.
      EXPECT_TRUE(AllClose(r->logits, direct[i], 0.0f, 0.0f))
          << "replicas=" << replicas << " clip " << i;
    }
  }
}

// One invalid field at a time: the single ServerConfig check must
// reject it, and the server constructor must throw on it.
TEST_F(ServeTest, EveryInvalidServerConfigFieldIsRejected) {
  EXPECT_TRUE(serve::ValidateServerConfig(serve::ServerConfig{}).ok());
  struct Case {
    const char* field;
    void (*corrupt)(serve::ServerConfig&);
  };
  const Case cases[] = {
      {"replicas", [](serve::ServerConfig& c) { c.replicas = 0; }},
      // Rejected before any lane thread starts.
      {"replicas",
       [](serve::ServerConfig& c) { c.replicas = serve::kMaxReplicas + 1; }},
      {"max_batch", [](serve::ServerConfig& c) { c.max_batch = 0; }},
      {"queue_capacity",
       [](serve::ServerConfig& c) { c.queue_capacity = 0; }},
      {"max_delay_us", [](serve::ServerConfig& c) { c.max_delay_us = -1; }},
      {"watchdog_timeout_us",
       [](serve::ServerConfig& c) { c.watchdog_timeout_us = -1; }},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.field);
    serve::ServerConfig cfg;
    tc.corrupt(cfg);
    const Status direct = serve::ValidateServerConfig(cfg);
    EXPECT_EQ(direct.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(direct.message().find(tc.field), std::string::npos)
        << direct.ToString();
    EXPECT_THROW(serve::InferenceServer(*compiled_, cfg), Error);
  }
}

TEST_F(ServeTest, PrunedCheckpointServesIdenticalModel) {
  // Hard-prune the fixture model to 50 % of its blocks and serve it
  // with the pruner's masks from two lanes.
  const fpga::Tiling tiling{4, 4, 2, 5, 5};
  std::vector<core::PruneLayerSpec> specs;
  for (nn::Conv3d* c : model_->PrunableConvs()) {
    specs.push_back({&c->weight(), tiling.block(), 0.5, c->name()});
  }
  core::AdmmPruner pruner(specs, core::AdmmConfig{});
  pruner.HardPrune();
  fpga::CompiledModelOptions copts;
  copts.tiling = tiling;
  copts.masks = pruner.masks();
  auto pruned = fpga::CompiledModel::Compile(*model_, copts);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  serve::InferenceServer server(*pruned, cfg);

  // A fresh model loads the checkpoint; its exactly-zero blocks give the
  // masks back, and the recompiled model runs the same blocks.
  const std::string path =
      ::testing::TempDir() + "/serve_pruned_roundtrip.ckpt";
  ASSERT_TRUE(nn::SaveCheckpoint(path, *model_).ok());
  Rng other_init(12345);
  models::TinyR2Plus1d reloaded(model_->config(), other_init);
  const Status loaded = nn::LoadCheckpoint(path, reloaded);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  copts.masks.clear();
  for (nn::Conv3d* c : reloaded.PrunableConvs()) {
    const core::BlockPartition part(c->weight().value.shape(), tiling.block());
    copts.masks.push_back(part.ZeroBlockMask(c->weight().value));
  }
  EXPECT_EQ(copts.masks, pruner.masks());
  auto recompiled = fpga::CompiledModel::Compile(reloaded, copts);
  ASSERT_TRUE(recompiled.ok()) << recompiled.status().ToString();

  std::vector<TensorF> clips;
  for (int i = 0; i < 6; ++i) clips.push_back(MakeClip(i % 4, 300 + i));
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (const TensorF& clip : clips) futures.push_back(server.SubmitAsync(clip));
  for (size_t i = 0; i < clips.size(); ++i) {
    auto served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    fpga::CompiledRunStats stats;
    const TensorF logits = recompiled->Infer(clips[i], &stats);
    EXPECT_TRUE(AllClose(served->logits, logits, 0.0f, 0.0f)) << "clip " << i;
    EXPECT_EQ(served->stats, stats) << "clip " << i;
    EXPECT_GT(stats.blocks_skipped, 0) << "clip " << i;
  }
}

}  // namespace
}  // namespace hwp3d
