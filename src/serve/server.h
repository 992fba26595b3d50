// Concurrent inference server over the compiled accelerator model,
// hardened for faulty replicas.
//
//   requests ──Push──▶ RequestQueue ◀──PopBatch── lane 0 (replica 0) ◀─┐
//                                   ◀──PopBatch── lane 1 (replica 1) ◀─┤
//                                   ◀──PopBatch── ...                  │
//            each lane: wait for work, take up to max_batch, run it,   │
//            pull again (all lanes run the one model)                  │
//                                      watchdog: one target per lane ──┘
//
// Each replica owns a lane thread that pulls from the queue whenever it
// is idle: PopBatch blocks only while the queue is empty and then hands
// over whatever is queued, up to max_batch, at once. An idle lane never
// waits for a batch to fill; under backlog batches fill by themselves,
// and a slow lane holds up only its own batch. With several replicas a
// lane runs its clips one at a time on its own thread (a
// ThreadPool::SerialScope keeps each Infer off the pool); a single
// replica fans each clip out over the process-wide hwp3d::ThreadPool,
// unless the clip is below kInlineClipMacs, where the pool's fan-out
// costs more than it splits.
// A replica is a lane index with its own health record and fault
// points, not a copy of the model: every lane calls Infer on the
// server's one immutable CompiledModel (const and safe to call
// concurrently), so predictions are bitwise identical for any replica
// count — which is what makes quarantine a safe degradation.
//
// Fault tolerance:
//  * Transient replica failures (fault points `serve.replica_infer` /
//    `serve.replica_infer.r<k>`) are retried per `config.retry` —
//    exponential backoff + deterministic jitter, never sleeping past
//    the request deadline. Items that exhaust their lane's retries get
//    one rescue pass, run inline by the lane on the first healthy
//    replica, before failing truthfully with the transient status.
//  * Every attempt outcome feeds ReplicaHealth; `quarantine_after`
//    consecutive failures quarantine the replica (never the last one).
//    Its lane serves the rest of its batch as the first healthy replica
//    and then stops pulling, so a quarantined index never appears in a
//    later result.
//  * A watchdog thread (enabled by `watchdog_timeout_us > 0`) watches
//    each lane's batch and fails one stuck longer than the timeout —
//    e.g. a wedged replica (`serve.replica_wedge` /
//    `serve.replica_wedge.r<k>`) — with kDeadlineExceeded, so waiters
//    and Shutdown() are never hostage to one bad replica call. The
//    other lanes keep pulling meanwhile.
//  * Deadlines are enforced both when a lane pulls a request and again
//    per item immediately before the replica call, so a request that
//    expires mid-batch returns kDeadlineExceeded instead of a stale OK.
//
// Admission control: the bounded queue rejects with kResourceExhausted
// instead of blocking producers; the fault point `serve.queue_admit`
// can inject admission failures. Shutdown(drain) stops admission and
// completes every already-accepted request.
//
// Metrics: serve.accepted/rejected/deadline_exceeded/completed/batches
// plus serve.retries/faults_injected/replicas_quarantined/
// watchdog_fired counters, serve.queue_depth and serve.healthy_replicas
// gauges, serve.batch_size and serve.latency_us histograms; trace span
// "serve/batch" per lane pull. A batch is one lane pull: serve.batches
// counts pulls and serve.batch_size the live requests each one took.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "fpga/model_compiler.h"
#include "serve/latency_reservoir.h"
#include "serve/replica_health.h"
#include "serve/request_queue.h"

namespace hwp3d::obs {
class Counter;
}

namespace hwp3d::serve {

// Every field is checked by ValidateServerConfig.
struct ServerConfig {
  int replicas = 1;                 // lane threads over the one model
  int max_batch = 8;                // most requests one lane pull takes
  // Unused: a lane never waits for a batch to fill. Kept (and checked
  // to be >= 0) until batched stage execution gives a batch a reason
  // to fill.
  int64_t max_delay_us = 2000;
  size_t queue_capacity = 64;
  int64_t default_deadline_us = 0;  // relative, applied at Submit; 0 = none
  RetryConfig retry;                // transient replica-failure retries
  int quarantine_after = 3;         // consecutive failures -> quarantine
  int64_t watchdog_timeout_us = 0;  // stuck-batch kill switch; 0 = off
};

// The one check of a ServerConfig: kInvalidArgument naming the first
// bad field, else OK. InferenceSession::Builder::Build returns it and
// the InferenceServer constructor enforces it.
Status ValidateServerConfig(const ServerConfig& config);

// Each replica is a lane thread; more than this is a configuration
// error, not a deployment.
inline constexpr int kMaxReplicas = 256;

// A lone lane runs a clip of fewer MACs (CompiledModel::MacsFor,
// worked out from the plan before the clip runs) inline instead of over
// the pool, from its first request. Measured on a 4-vCPU
// AVX-512 host with the fast executor, one Infer on the pool vs inline:
// 0.75x at 1.97 M MACs (the 4/8/8 model, 6x10x10 clip), 0.9-1.0x at
// 3.8 M, 1.04-1.07x at 6.7 M and 1.5-1.8x at 34.65 M (the dense 8/16/32
// model, 8x16x16 clip).
inline constexpr int64_t kInlineClipMacs = 4'000'000;

// Latencies InferenceServer keeps for its Stats() percentiles (32 KiB).
inline constexpr size_t kLatencySampleSize = 4096;

struct ServerStats {
  int64_t accepted = 0;
  int64_t rejected = 0;           // admission failures (queue full)
  int64_t deadline_exceeded = 0;
  int64_t completed = 0;
  int64_t batches = 0;            // lane pulls that ran a request
  int64_t retries = 0;            // backoff-then-retry attempts
  int64_t faults_injected = 0;    // fault-point trips observed in serve
  int64_t watchdog_fired = 0;     // stuck lane batches killed
  int64_t replicas_quarantined = 0;  // currently quarantined
  int64_t healthy_replicas = 0;
  int64_t queue_depth = 0;        // at the time of the Stats() call
  double mean_batch_size = 0.0;
  // End-to-end (enqueue -> completion) latency percentiles, in
  // milliseconds, over a fixed-size sample of the completed requests:
  // exact while at most kLatencySampleSize have completed.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

class InferenceServer {
 public:
  // Copies `model` once; every replica lane runs that copy. Throws
  // hwp3d::Error when ValidateServerConfig(config) fails.
  InferenceServer(const fpga::CompiledModel& model,
                  ServerConfig config);
  ~InferenceServer();  // graceful drain

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Admits one clip; the future resolves when a replica has run it (or
  // with kDeadlineExceeded / kUnavailable / kCancelled). `deadline_us`
  // is relative to now; 0 uses config.default_deadline_us. Admission
  // failure is reported through the future for a uniform error path.
  std::future<StatusOr<InferenceResult>> SubmitAsync(
      TensorF clip, int64_t deadline_us = 0);

  // Blocking convenience wrapper around SubmitAsync.
  StatusOr<InferenceResult> Submit(const TensorF& clip,
                                   int64_t deadline_us = 0);

  // Stops admission, waits for every accepted request to complete, and
  // joins the lanes + watchdog. Idempotent.
  void Shutdown();

  ServerStats Stats() const;
  const ServerConfig& config() const { return config_; }

 private:
  // A queued request plus a claim flag so exactly one of {replica lane,
  // rescue pass, queued-deadline check, watchdog} resolves the promise.
  struct Pending {
    explicit Pending(Request&& r) : req(std::move(r)) {}
    Request req;
    std::atomic<bool> claimed{false};
    // True for the first caller; the winner must then resolve req.promise.
    bool Claim() { return !claimed.exchange(true); }
  };

  // A lane's batch in flight, as seen by the watchdog. Valid only while
  // registered in that lane's slot (guarded by watch_mu_).
  struct WatchTarget {
    double start_us = 0.0;
    std::vector<Pending*>* live = nullptr;
    std::atomic<bool>* cancelled = nullptr;
  };

  struct FaultPoints {
    std::string infer;  // serve.replica_infer.r<k>
    std::string wedge;  // serve.replica_wedge.r<k>
  };

  // Lane `lane` (= its replica index) pulls and runs batches until the
  // queue is closed and drained or its replica is quarantined.
  void LaneLoop(int lane);
  void RunBatch(int lane, std::vector<Request>& batch);
  // Runs one request on `replica` with per-item deadline enforcement
  // and transient-failure retries. Resolves the promise on success /
  // terminal error; returns the transient status (promise untouched)
  // when retries on this replica are exhausted.
  Status RunOne(Pending& pending, int replica, double start_us,
                int batch_size, const std::atomic<bool>& cancelled);
  void WatchdogLoop();
  void NoteQuarantine(int replica);

  // One serve event's count: n added to a process-wide serve counter and
  // to the matching field of totals_.
  struct StatBump {
    obs::Counter& counter;
    int64_t ServerStats::*field;
    int64_t n = 1;
  };
  // Applies every bump; the fields of totals_ change under one hold of
  // stats_mu_, so Stats() sees them change together.
  void Count(std::initializer_list<StatBump> bumps);

  ServerConfig config_;
  RetryPolicy retry_;
  const fpga::CompiledModel model_;
  std::vector<FaultPoints> replica_fault_points_;  // indexed by replica
  ReplicaHealth health_;
  RequestQueue queue_;
  std::vector<std::thread> lanes_;  // lane k serves as replica k
  std::mutex shutdown_mu_;  // serializes the lane/watchdog joins

  std::thread watchdog_;
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool watchdog_stop_ = false;
  std::vector<std::optional<WatchTarget>> watch_;  // one slot per lane

  // Aggregate counters; latency_sample_ feeds the Stats() percentiles.
  mutable std::mutex stats_mu_;
  ServerStats totals_;
  LatencyReservoir latency_sample_{kLatencySampleSize};
};

// Sorted-copy percentile helper (q in [0,1]); exposed for the bench.
double PercentileUs(std::vector<double> latencies_us, double q);

}  // namespace hwp3d::serve
