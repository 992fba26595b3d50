#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

using hwp3d::obs::NowUs;

namespace {

void SleepUntilUs(double t_us) {
  const double wait = t_us - NowUs();
  if (wait > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(wait)));
  }
}

// Requests the server accepted and has not finished yet, from the
// serve.* counters the server exports (cheap relaxed atomics).
class BacklogProbe {
 public:
  BacklogProbe()
      : accepted_(Reg().GetCounter("serve.accepted")),
        completed_(Reg().GetCounter("serve.completed")),
        expired_(Reg().GetCounter("serve.deadline_exceeded")),
        base_(Raw()) {}
  int64_t backlog() const { return Raw() - base_; }

 private:
  static hwp3d::obs::MetricsRegistry& Reg() {
    return hwp3d::obs::MetricsRegistry::Get();
  }
  int64_t Raw() const {
    return accepted_.value() - completed_.value() - expired_.value();
  }
  hwp3d::obs::Counter& accepted_;
  hwp3d::obs::Counter& completed_;
  hwp3d::obs::Counter& expired_;
  int64_t base_;
};

struct InFlight {
  Outcome outcome;
  std::future<hwp3d::StatusOr<hwp3d::serve::InferenceResult>> future;
};

// A future that takes longer than this to resolve counts as lost.
constexpr std::chrono::seconds kLostAfter{60};

// Resolves one request's future and folds it into `r`.
void Resolve(InFlight& f, PhaseResult& r) {
  if (f.future.wait_for(kLostAfter) == std::future_status::ready) {
    f.outcome.result = f.future.get();
    f.outcome.resolved = true;
  }
  ++r.attempted;
  r.lag_us.push_back(f.outcome.sent_us - f.outcome.due_us);
  if (f.outcome.ok()) {
    ++r.ok;
    r.latency_us.push_back(f.outcome.latency_us());
  } else {
    ++r.failed;
  }
}

InFlight Send(hwp3d::serve::InferenceServer& server, int64_t id, double due_us,
              hwp3d::TensorF clip) {
  InFlight f;
  f.outcome.id = id;
  f.outcome.due_us = due_us;
  f.outcome.sent_us = NowUs();
  f.future = server.SubmitAsync(std::move(clip));
  f.outcome.submit_us = NowUs() - f.outcome.sent_us;
  return f;
}

// Arrival times of a Poisson process given its count: the sorted
// order statistics of that many uniform draws over the window.
void UniformArrivals(hwp3d::Rng& rng, double start_s, double len_s,
                     double rate_cps, std::vector<double>& out) {
  const int64_t n = std::llround(rate_cps * len_s);
  const size_t first = out.size();
  for (int64_t i = 0; i < n; ++i) {
    out.push_back((start_s + rng.Uniform() * len_s) * 1e6);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace

std::vector<double> PoissonSchedule(double rate_cps, double seconds,
                                    uint64_t seed) {
  hwp3d::Rng rng(seed);
  std::vector<double> out;
  UniformArrivals(rng, 0.0, seconds, rate_cps, out);
  return out;
}

std::vector<double> BurstSchedule(double rate_cps, double seconds,
                                  const BurstShape& shape, uint64_t seed) {
  hwp3d::Rng rng(seed);
  const double period = shape.period_ms / 1e3;
  const double on_len = period * shape.on_frac;
  const double on_rate = rate_cps * shape.on_mult;
  const double off_rate = std::max(
      0.0, rate_cps * (1.0 - shape.on_frac * shape.on_mult) /
               (1.0 - shape.on_frac));
  std::vector<double> out;
  for (double start = 0.0; start + period <= seconds + 1e-9;
       start += period) {
    UniformArrivals(rng, start, on_len, on_rate, out);
    UniformArrivals(rng, start + on_len, period - on_len, off_rate, out);
  }
  return out;
}

PhaseResult RunOpenLoop(hwp3d::serve::InferenceServer& server,
                        const std::vector<double>& schedule_us,
                        int64_t first_id, const ClipFactory& clip,
                        const OutcomeSink& sink, const LoadOptions& opts) {
  PhaseResult r;
  BacklogProbe probe;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool sending_done = false;

  const auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      sending_done = true;
    }
    cv.notify_one();
  };
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      Resolve(f, r);
      if (sink) sink(f.outcome);
    }
  });

  // Start slightly in the future so the first due time is not already
  // late when the loop reaches it.
  const double t0 = NowUs() + 2000.0;
  try {
    for (size_t i = 0; i < schedule_us.size(); ++i) {
      const int64_t id = first_id + static_cast<int64_t>(i);
      const double due = t0 + schedule_us[i];
      hwp3d::TensorF c = clip(id);
      if (opts.abort_backlog > 0 && probe.backlog() > opts.abort_backlog) {
        r.aborted = true;
        break;
      }
      SleepUntilUs(due);
      InFlight f = Send(server, id, due, std::move(c));
      {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
  } catch (...) {
    // The collector references this frame: join it before unwinding.
    stop_collector();
    collector.join();
    throw;
  }
  r.backlog_at_end = probe.backlog();
  stop_collector();
  collector.join();
  return r;
}

PhaseResult RunClosedLoop(hwp3d::serve::InferenceServer& server,
                          int in_flight, double seconds, int64_t first_id,
                          const ClipFactory& clip, const OutcomeSink& sink) {
  PhaseResult r;
  std::deque<InFlight> ring;
  int64_t id = first_id;
  const auto send_next = [&] {
    hwp3d::TensorF c = clip(id);
    ring.push_back(Send(server, id, NowUs(), std::move(c)));
    ++id;
  };
  const auto finish_front = [&] {
    InFlight f = std::move(ring.front());
    ring.pop_front();
    Resolve(f, r);
    if (sink) sink(f.outcome);
  };
  const double end = NowUs() + seconds * 1e6;
  for (int i = 0; i < in_flight; ++i) send_next();
  int64_t done_in_window = 0;
  while (NowUs() < end) {
    finish_front();
    ++done_in_window;
    send_next();
  }
  while (!ring.empty()) finish_front();
  r.completed_in_window = done_in_window;
  return r;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace perfbench
