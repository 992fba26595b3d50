// Load generator for the serving workloads.
//
// Arrival schedules are drawn from a seed before a phase starts, so the
// same seed gives the same offered load. Two ways to drive a server:
//
//  * Open loop (RunOpenLoop): one sender thread submits each request at
//    its scheduled due time whatever the server is doing, and a
//    collector thread resolves the futures. Latency is timed from the
//    due time, so a stalled sender or a full queue charges every request
//    it delays; how late the sender ran is reported as lag.
//  * Closed loop (RunClosedLoop): a fixed number of requests in flight;
//    each completion releases the next submission. Gives peak
//    throughput, the capacity the open-loop rates are set against.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/server.h"

namespace perfbench {

// Arrival offsets in microseconds from the phase start: Poisson
// arrivals at `rate_cps` for `seconds`, conditioned on the expected
// count (rate x seconds, rounded), so every seed offers the same load
// and only the arrival pattern varies.
std::vector<double> PoissonSchedule(double rate_cps, double seconds,
                                    uint64_t seed);

// On/off bursts: each period starts with an "on" window of `on_frac`
// of the period at `on_mult` times the mean rate, then an "off" window
// at the rate that keeps the mean at `rate_cps`. Poisson within each
// window, conditioned on its expected count as above; whole periods
// only.
struct BurstShape {
  double period_ms = 200.0;
  double on_frac = 0.25;
  double on_mult = 3.0;
};
std::vector<double> BurstSchedule(double rate_cps, double seconds,
                                  const BurstShape& shape, uint64_t seed);

// One request as the load generator saw it. Times are obs::NowUs().
struct Outcome {
  int64_t id = 0;
  double due_us = 0.0;
  double sent_us = 0.0;    // SubmitAsync called
  double submit_us = 0.0;  // duration of the SubmitAsync call
  bool resolved = false;   // false: the future never resolved (lost)
  hwp3d::StatusOr<hwp3d::serve::InferenceResult> result =
      hwp3d::Status(hwp3d::StatusCode::kInternal, "not resolved");

  bool ok() const { return resolved && result.ok(); }
  // Due -> completion; only meaningful when ok().
  double latency_us() const {
    return (sent_us - due_us) + result.value().total_us;
  }
};

struct PhaseResult {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;  // non-OK status or lost future
  int64_t backlog_at_end = 0;   // accepted - finished when sending ended
  int64_t completed_in_window = 0;  // closed loop: finished in the window
  bool aborted = false;         // sending stopped: backlog ran away
  std::vector<double> latency_us;  // ok requests, due -> completion
  std::vector<double> lag_us;      // sent - due, every request
};

struct LoadOptions {
  // Submits stop (the phase is aborted) once accepted-but-unfinished
  // requests exceed this; 0 disables the check.
  int64_t abort_backlog = 0;
};

// Builds the clip for request `id`.
using ClipFactory = std::function<hwp3d::TensorF(int64_t id)>;
// Called on the collector thread once per request, in submission order.
using OutcomeSink = std::function<void(const Outcome&)>;

PhaseResult RunOpenLoop(hwp3d::serve::InferenceServer& server,
                        const std::vector<double>& schedule_us,
                        int64_t first_id, const ClipFactory& clip,
                        const OutcomeSink& sink, const LoadOptions& opts);

PhaseResult RunClosedLoop(hwp3d::serve::InferenceServer& server,
                          int in_flight, double seconds, int64_t first_id,
                          const ClipFactory& clip, const OutcomeSink& sink);

// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench
