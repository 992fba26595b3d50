#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string_view>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/strings.h"
#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::serve {

namespace {

struct ServeMetrics {
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Counter& deadline_exceeded;
  obs::Counter& completed;
  obs::Counter& batches;
  obs::Counter& retries;
  obs::Counter& faults_injected;
  obs::Counter& replicas_quarantined;
  obs::Counter& watchdog_fired;
  obs::Gauge& queue_depth;
  obs::Gauge& healthy_replicas;
  obs::Gauge& executor;  // 1 = fast compiled executor, 0 = simulator
  obs::Histogram& batch_size;
  obs::Histogram& latency_us;

  static ServeMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Get();
    static ServeMetrics m{reg.GetCounter("serve.accepted"),
                          reg.GetCounter("serve.rejected"),
                          reg.GetCounter("serve.deadline_exceeded"),
                          reg.GetCounter("serve.completed"),
                          reg.GetCounter("serve.batches"),
                          reg.GetCounter("serve.retries"),
                          reg.GetCounter("serve.faults_injected"),
                          reg.GetCounter("serve.replicas_quarantined"),
                          reg.GetCounter("serve.watchdog_fired"),
                          reg.GetGauge("serve.queue_depth"),
                          reg.GetGauge("serve.healthy_replicas"),
                          reg.GetGauge("serve.executor"),
                          reg.GetHistogram("serve.batch_size"),
                          reg.GetHistogram("serve.latency_us")};
    return m;
  }
};

int ArgMax(const TensorF& logits) {
  int best = 0;
  for (int64_t k = 1; k < logits.numel(); ++k) {
    if (logits[k] > logits[best]) best = static_cast<int>(k);
  }
  return best;
}

void SleepUs(int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

constexpr const char* kFaultReplicaInfer = "serve.replica_infer";
constexpr const char* kFaultReplicaWedge = "serve.replica_wedge";
constexpr const char* kFaultQueueAdmit = "serve.queue_admit";

// ValidateServerConfig as a precondition, for the constructor's
// initializer list.
const ServerConfig& CheckedConfig(const ServerConfig& config) {
  const Status valid = ValidateServerConfig(config);
  HWP_CHECK_MSG(valid.ok(), valid.ToString());
  return config;
}

}  // namespace

Status ValidateServerConfig(const ServerConfig& config) {
  if (config.replicas < 1 || config.replicas > kMaxReplicas) {
    return InvalidArgumentError(
        StrFormat("replicas (%d): need 1 to %d (one lane thread each)",
                  config.replicas, kMaxReplicas));
  }
  if (config.max_batch < 1) {
    return InvalidArgumentError(
        StrFormat("max_batch (%d): need at least 1", config.max_batch));
  }
  if (config.max_delay_us < 0) {
    return InvalidArgumentError(StrFormat(
        "max_delay_us (%lld): must be >= 0 (unused: a lane never waits "
        "for a batch to fill)",
        static_cast<long long>(config.max_delay_us)));
  }
  if (config.queue_capacity < 1) {
    return InvalidArgumentError("queue_capacity (0): need at least 1");
  }
  if (config.quarantine_after < 1) {
    return InvalidArgumentError(StrFormat(
        "quarantine_after (%d): need at least 1", config.quarantine_after));
  }
  if (config.retry.max_attempts < 1) {
    return InvalidArgumentError(StrFormat(
        "retry.max_attempts (%d): need at least 1",
        config.retry.max_attempts));
  }
  if (config.watchdog_timeout_us < 0) {
    return InvalidArgumentError(StrFormat(
        "watchdog_timeout_us (%lld): must be >= 0 (0 disables the "
        "watchdog)",
        static_cast<long long>(config.watchdog_timeout_us)));
  }
  return Status::Ok();
}

double PercentileUs(std::vector<double> latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const double pos = q * static_cast<double>(latencies_us.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, latencies_us.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return latencies_us[lo] * (1.0 - frac) + latencies_us[hi] * frac;
}

InferenceServer::InferenceServer(const fpga::CompiledModel& model,
                                 ServerConfig config)
    : config_(CheckedConfig(config)),
      retry_(config_.retry),
      model_(model),
      health_(config_.replicas, config_.quarantine_after),
      queue_(config_.queue_capacity) {
  replica_fault_points_.reserve(static_cast<size_t>(config_.replicas));
  for (int r = 0; r < config_.replicas; ++r) {
    replica_fault_points_.push_back(
        {StrFormat("%s.r%d", kFaultReplicaInfer, r),
         StrFormat("%s.r%d", kFaultReplicaWedge, r)});
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    totals_.healthy_replicas = config_.replicas;
  }
  ServeMetrics::Get().healthy_replicas.Set(
      static_cast<double>(config_.replicas));
  ServeMetrics::Get().executor.Set(
      model_.executor() == fpga::ExecMode::kFast ? 1.0 : 0.0);
  watch_.resize(static_cast<size_t>(config_.replicas));
  lanes_.reserve(static_cast<size_t>(config_.replicas));
  for (int lane = 0; lane < config_.replicas; ++lane) {
    lanes_.emplace_back([this, lane] { LaneLoop(lane); });
  }
  if (config_.watchdog_timeout_us > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::future<StatusOr<InferenceResult>> InferenceServer::SubmitAsync(
    TensorF clip, int64_t deadline_us) {
  auto& m = ServeMetrics::Get();
  if (FaultInjector::Get().Trip(kFaultQueueAdmit)) {
    Count({{m.faults_injected, &ServerStats::faults_injected},
           {m.rejected, &ServerStats::rejected}});
    std::promise<StatusOr<InferenceResult>> failed;
    failed.set_value(UnavailableError(
        StrFormat("injected fault: %s", kFaultQueueAdmit)));
    return failed.get_future();
  }
  Request req;
  req.clip = std::move(clip);
  req.enqueue_us = obs::NowUs();
  const int64_t rel =
      deadline_us > 0 ? deadline_us : config_.default_deadline_us;
  req.deadline_us = rel > 0 ? req.enqueue_us + static_cast<double>(rel) : 0.0;
  std::future<StatusOr<InferenceResult>> future =
      req.promise.get_future();

  Status admitted = queue_.Push(std::move(req));
  if (!admitted.ok()) {
    Count({{m.rejected, &ServerStats::rejected}});
    // The request object (with its promise) died with the failed Push;
    // report through a fresh promise for a uniform future-based path.
    std::promise<StatusOr<InferenceResult>> failed;
    failed.set_value(std::move(admitted));
    return failed.get_future();
  }
  m.queue_depth.Set(static_cast<double>(queue_.size()));
  Count({{m.accepted, &ServerStats::accepted}});
  return future;
}

StatusOr<InferenceResult> InferenceServer::Submit(const TensorF& clip,
                                                  int64_t deadline_us) {
  return SubmitAsync(clip, deadline_us).get();
}

void InferenceServer::Shutdown() {
  queue_.Close();
  // Serialize the joins so concurrent Shutdown() calls (user + dtor)
  // are safe; the lanes drain the queue before PopBatch returns empty.
  // The watchdog outlives the lanes on purpose: it must be able to kill
  // a batch wedged during the drain.
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
  {
    std::lock_guard<std::mutex> wlk(watch_mu_);
    watchdog_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void InferenceServer::LaneLoop(int lane) {
  // With several lanes, each runs its clips one after another on this
  // thread; a lone lane fans each clip out over the pool instead (RunOne
  // keeps small clips inline).
  std::optional<ThreadPool::SerialScope> serial;
  if (config_.replicas > 1) serial.emplace();
  // A quarantined lane stops pulling (the last healthy one never is).
  while (!health_.quarantined(lane)) {
    std::vector<Request> batch = queue_.PopBatch(config_.max_batch);
    if (batch.empty()) return;  // closed and drained
    RunBatch(lane, batch);
    ServeMetrics::Get().queue_depth.Set(static_cast<double>(queue_.size()));
  }
}

void InferenceServer::Count(std::initializer_list<StatBump> bumps) {
  for (const StatBump& b : bumps) b.counter.Add(b.n);
  std::lock_guard<std::mutex> lk(stats_mu_);
  for (const StatBump& b : bumps) totals_.*b.field += b.n;
}

void InferenceServer::NoteQuarantine(int replica) {
  auto& m = ServeMetrics::Get();
  m.replicas_quarantined.Add(1);
  m.healthy_replicas.Set(static_cast<double>(health_.healthy_count()));
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    totals_.replicas_quarantined = health_.quarantined_count();
    totals_.healthy_replicas = health_.healthy_count();
  }
  HWP_LOG(Warning) << "replica " << replica << " quarantined after "
                   << config_.quarantine_after
                   << " consecutive failures; serving degrades to "
                   << health_.healthy_count() << "/" << config_.replicas
                   << " replicas";
}

Status InferenceServer::RunOne(Pending& pending, int replica,
                               double start_us, int batch_size,
                               const std::atomic<bool>& cancelled) {
  auto& m = ServeMetrics::Get();
  auto& inj = FaultInjector::Get();
  Request& req = pending.req;
  Status transient = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    if (cancelled.load(std::memory_order_acquire)) {
      // The watchdog owns (or already resolved) this promise.
      return CancelledError("batch cancelled by watchdog");
    }
    // Per-item deadline enforcement: a request that expired while
    // earlier batch items ran must not consume a replica and must not
    // report a stale OK long past its deadline.
    const double now_us = obs::NowUs();
    if (req.deadline_us > 0.0 && now_us > req.deadline_us) {
      Status expired = DeadlineExceededError(StrFormat(
          "request expired %.0f us past its %.0f us deadline "
          "(mid-batch check)",
          now_us - req.deadline_us, req.deadline_us - req.enqueue_us));
      if (pending.Claim()) {
        Count({{m.deadline_exceeded, &ServerStats::deadline_exceeded}});
        req.promise.set_value(std::move(expired));
      }
      return DeadlineExceededError("expired mid-batch");
    }
    const FaultPoints& points =
        replica_fault_points_[static_cast<size_t>(replica)];
    const std::string_view wedge =
        inj.Trip(kFaultReplicaWedge) ? std::string_view(kFaultReplicaWedge)
        : inj.Trip(points.wedge)     ? std::string_view(points.wedge)
                                     : std::string_view();
    if (!wedge.empty()) {
      // Simulated wedged replica: stall, then continue normally. The
      // watchdog (when armed) kills the batch out from under us.
      Count({{m.faults_injected, &ServerStats::faults_injected}});
      SleepUs(inj.delay_us(wedge));
      if (cancelled.load(std::memory_order_acquire)) {
        return CancelledError("batch cancelled by watchdog");
      }
    }
    const bool injected_failure =
        inj.Trip(kFaultReplicaInfer) || inj.Trip(points.infer);
    if (!injected_failure) {
      InferenceResult result;
      result.queue_us = start_us - req.enqueue_us;
      result.batch_size = batch_size;
      result.replica = replica;
      try {
        // A lone lane keeps a clip of fewer than kInlineClipMacs MACs on
        // this thread (several lanes already run serially).
        std::optional<ThreadPool::SerialScope> inline_clip;
        if (config_.replicas == 1 &&
            model_.MacsFor(req.clip.shape()) < kInlineClipMacs) {
          inline_clip.emplace();
        }
        result.logits = model_.Infer(req.clip, &result.stats);
      } catch (const Error& e) {
        // A malformed request is a terminal per-request error, never a
        // replica fault: no retry, no health penalty, and it must not
        // take the lane (and every queued request) down.
        if (pending.Claim()) {
          req.promise.set_value(InvalidArgumentError(
              StrFormat("inference failed: %s", e.what())));
        }
        return InvalidArgumentError("malformed request");
      }
      health_.RecordSuccess(replica);
      result.label = ArgMax(result.logits);
      result.total_us = obs::NowUs() - req.enqueue_us;
      const double latency_us = result.total_us;
      // Claim first, then stats, then the promise: a waiter that saw
      // the future resolve must find its request reflected in Stats(),
      // and a concurrent watchdog kill must not double-resolve.
      if (pending.Claim()) {
        m.completed.Add(1);
        m.latency_us.Observe(latency_us);
        {
          std::lock_guard<std::mutex> lk(stats_mu_);
          ++totals_.completed;
          latency_sample_.Add(latency_us);
        }
        req.promise.set_value(std::move(result));
      }
      return Status::Ok();
    }
    // Injected transient failure.
    Count({{m.faults_injected, &ServerStats::faults_injected}});
    transient = UnavailableError(StrFormat(
        "injected fault: %s (replica %d, attempt %d)", kFaultReplicaInfer,
        replica, attempt));
    if (health_.RecordFailure(replica)) NoteQuarantine(replica);
    const std::optional<int64_t> backoff =
        retry_.NextBackoffUs(attempt, obs::NowUs(), req.deadline_us);
    if (!backoff) return transient;  // caller may rescue or fail truthfully
    Count({{m.retries, &ServerStats::retries}});
    SleepUs(*backoff);
  }
}

void InferenceServer::RunBatch(int lane, std::vector<Request>& batch) {
  auto& m = ServeMetrics::Get();
  obs::TraceScope span("serve/batch");

  // Stable-address wrappers so the watchdog and this lane can race for
  // each promise through an atomic claim.
  std::deque<Pending> owned;
  for (Request& req : batch) owned.emplace_back(std::move(req));

  // Expire requests whose deadline passed while they queued.
  const double start_us = obs::NowUs();
  std::vector<Pending*> live;
  for (Pending& p : owned) {
    if (p.req.deadline_us > 0.0 && start_us > p.req.deadline_us) {
      if (p.Claim()) {
        Count({{m.deadline_exceeded, &ServerStats::deadline_exceeded}});
        p.req.promise.set_value(DeadlineExceededError(StrFormat(
            "request queued for %.0f us, past its %.0f us deadline",
            start_us - p.req.enqueue_us,
            p.req.deadline_us - p.req.enqueue_us)));
      }
    } else {
      live.push_back(&p);
    }
  }
  if (live.empty()) return;

  // Record batch-level stats up front: promises below must only resolve
  // after every counter a waiter could observe through Stats() is final.
  m.batch_size.Observe(static_cast<double>(live.size()));
  Count({{m.batches, &ServerStats::batches}});

  std::atomic<bool> cancelled{false};
  if (config_.watchdog_timeout_us > 0) {
    std::lock_guard<std::mutex> lk(watch_mu_);
    watch_[static_cast<size_t>(lane)] =
        WatchTarget{start_us, &live, &cancelled};
  }

  // Items whose replica exhausted its retries; they get one rescue pass
  // on a (possibly different, still-healthy) replica before failing.
  std::vector<Pending*> rescue;
  const int batch_size = static_cast<int>(live.size());
  for (Pending* pending : live) {
    if (cancelled.load(std::memory_order_acquire)) break;
    // Once this lane's replica is quarantined, the rest of its batch
    // runs as the first healthy replica.
    const int replica = health_.quarantined(lane)
                            ? health_.HealthySet().front()
                            : lane;
    Status s = RunOne(*pending, replica, start_us, batch_size, cancelled);
    if (RetryPolicy::IsRetryable(s)) rescue.push_back(pending);
  }

  // Rescue pass, inline on this lane: the replica may have been the
  // problem (and may be quarantined by now), so give each survivor one
  // more run on the current healthy set's first replica.
  for (Pending* pending : rescue) {
    if (cancelled.load(std::memory_order_acquire)) break;
    if (pending->claimed.load(std::memory_order_acquire)) continue;
    Status s = RunOne(*pending, health_.HealthySet().front(), start_us,
                      batch_size, cancelled);
    if (RetryPolicy::IsRetryable(s) && pending->Claim()) {
      // Still transiently failing after retries on two replica picks:
      // fail truthfully with the transient status.
      pending->req.promise.set_value(std::move(s));
    }
  }

  if (config_.watchdog_timeout_us > 0) {
    std::lock_guard<std::mutex> lk(watch_mu_);
    watch_[static_cast<size_t>(lane)].reset();
  }

  if (span.active()) {
    span.AddArg("batch_size", static_cast<int64_t>(batch_size));
    span.AddArg("lane", static_cast<int64_t>(lane));
  }
}

void InferenceServer::WatchdogLoop() {
  auto& m = ServeMetrics::Get();
  const int64_t timeout_us = config_.watchdog_timeout_us;
  const auto poll = std::chrono::microseconds(
      std::clamp<int64_t>(timeout_us / 4, 1'000, 50'000));
  std::unique_lock<std::mutex> lk(watch_mu_);
  while (!watchdog_stop_) {
    watch_cv_.wait_for(lk, poll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const double now_us = obs::NowUs();
    for (size_t lane = 0; lane < watch_.size(); ++lane) {
      std::optional<WatchTarget>& watch = watch_[lane];
      if (!watch ||
          now_us - watch->start_us < static_cast<double>(timeout_us)) {
        continue;
      }
      // The lane's batch is stuck (wedged replica call, pathological
      // stall): cancel it cooperatively and fail every outstanding
      // request so waiters — and a pending Shutdown() — stop depending
      // on it. The other lanes keep pulling.
      watch->cancelled->store(true, std::memory_order_release);
      // Claim first, then stats, then the promises, as RunOne does: a
      // waiter that sees its future fail must find the firing in Stats().
      std::vector<Pending*> claimed;
      for (Pending* p : *watch->live) {
        if (p->Claim()) claimed.push_back(p);
      }
      const int64_t killed = static_cast<int64_t>(claimed.size());
      Count({{m.watchdog_fired, &ServerStats::watchdog_fired},
             {m.deadline_exceeded, &ServerStats::deadline_exceeded, killed}});
      for (Pending* p : claimed) {
        p->req.promise.set_value(DeadlineExceededError(StrFormat(
            "watchdog: batch stuck for more than %lld us; request failed "
            "without a result",
            static_cast<long long>(timeout_us))));
      }
      HWP_LOG(Warning) << "serve watchdog fired: lane " << lane
                       << " batch exceeded " << timeout_us << " us; failed "
                       << killed << " outstanding request(s)";
      watch.reset();  // one firing per registered batch
    }
  }
}

ServerStats InferenceServer::Stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ServerStats s = totals_;
  s.queue_depth = static_cast<int64_t>(queue_.size());
  s.mean_batch_size =
      s.batches > 0
          ? static_cast<double>(s.completed) / static_cast<double>(s.batches)
          : 0.0;
  const std::vector<double>& sample = latency_sample_.sample();
  s.p50_ms = PercentileUs(sample, 0.50) / 1000.0;
  s.p95_ms = PercentileUs(sample, 0.95) / 1000.0;
  s.p99_ms = PercentileUs(sample, 0.99) / 1000.0;
  return s;
}

}  // namespace hwp3d::serve
