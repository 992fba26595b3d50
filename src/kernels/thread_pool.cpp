#include "kernels/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"

namespace hwp3d {
namespace {

thread_local bool t_in_worker = false;

// How long an idle worker, or a dispatcher waiting for its region's
// workers, spins before it blocks. Picked from a sweep of 20/50/100/200
// µs on the dense serving clip, whose conv layers are back-to-back
// regions a few tens of µs apart.
constexpr auto kSpinWindow = std::chrono::microseconds(100);

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins until done() holds or kSpinWindow passes; returns done().
template <typename Done>
bool SpinFor(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (int i = 1;; ++i) {
    if (done()) return true;
    CpuRelax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return done();
    }
  }
}

int PoolSizeFromEnv() {
  int threads = 0;
  if (const char* env = std::getenv("HWP_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      threads = static_cast<int>(std::min<long>(v, 256));
    } else {
      HWP_LOG(Warning) << "ignoring invalid HWP_THREADS value \"" << env
                       << "\" (want an integer >= 1)";
    }
  }
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  return threads;
}

}  // namespace

// One parallel-for region. Lives on the dispatching thread's stack;
// `next` is the shared chunk cursor every participant claims from.
struct ThreadPool::Region {
  void (*invoke)(void*, int64_t) = nullptr;
  void* ctx = nullptr;
  std::atomic<int64_t> next{0};
  int64_t end = 0;
  int64_t chunk = 1;
  // Workers inside Drain: incremented under mu_ (only while the region is
  // current_), decremented without it.
  std::atomic<int> active{0};
  std::exception_ptr error;    // first body exception; guarded by mu_
};

ThreadPool& ThreadPool::Get() {
  static ThreadPool pool(PoolSizeFromEnv());
  return pool;
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(threads, 1)) {
  obs::MetricsRegistry::Get().GetGauge("kernels.pool.threads")
      .Set(static_cast<double>(threads_));
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int w = 0; w < threads_ - 1; ++w) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::InWorker() { return t_in_worker; }

ThreadPool::SerialScope::SerialScope() : was_serial_(t_in_worker) {
  t_in_worker = true;
}

ThreadPool::SerialScope::~SerialScope() { t_in_worker = was_serial_; }

void ThreadPool::Dispatch(void (*invoke)(void*, int64_t), void* ctx,
                          int64_t begin, int64_t end) {
  static obs::Counter& regions =
      obs::MetricsRegistry::Get().GetCounter("kernels.pool.regions");
  regions.Add(1);

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  Region region;
  region.invoke = invoke;
  region.ctx = ctx;
  region.next.store(begin, std::memory_order_relaxed);
  region.end = end;
  // ~4 chunks per participant: coarse enough to amortize the cursor,
  // fine enough that an early-finishing participant still finds work.
  region.chunk =
      std::max<int64_t>(1, (end - begin) / (static_cast<int64_t>(threads_) * 4));
  {
    std::lock_guard<std::mutex> lk(mu_);
    current_ = &region;
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();

  Drain(region);  // the caller is a participant too

  const auto joined = [&] {
    return region.active.load(std::memory_order_acquire) == 0;
  };
  SpinFor(joined);
  // Only the check under mu_ is final: a worker joins under mu_, so once
  // current_ is cleared here no worker can touch the dead region.
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, joined);
  current_ = nullptr;
  if (region.error) {
    std::exception_ptr err = region.error;
    lk.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::Drain(Region& region) {
  const bool was_worker = t_in_worker;
  t_in_worker = true;  // nested For() calls from the body run inline
  std::exception_ptr err;
  for (;;) {
    const int64_t lo =
        region.next.fetch_add(region.chunk, std::memory_order_relaxed);
    if (lo >= region.end) break;
    const int64_t hi = std::min(region.end, lo + region.chunk);
    try {
      for (int64_t i = lo; i < hi; ++i) region.invoke(region.ctx, i);
    } catch (...) {
      err = std::current_exception();
      // Cancel the unclaimed chunks; in-flight ones finish normally.
      region.next.store(region.end, std::memory_order_relaxed);
      break;
    }
  }
  t_in_worker = was_worker;
  if (err) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!region.error) region.error = err;
  }
}

void ThreadPool::WorkerMain() {
  t_in_worker = true;
  uint64_t seen_epoch = 0;
  const auto woken = [&] {
    return stop_.load(std::memory_order_acquire) ||
           epoch_.load(std::memory_order_acquire) != seen_epoch;
  };
  for (;;) {
    SpinFor(woken);
    std::unique_lock<std::mutex> lk(mu_);
    wake_cv_.wait(lk, woken);
    if (stop_.load(std::memory_order_relaxed)) return;
    seen_epoch = epoch_.load(std::memory_order_relaxed);
    Region* region = current_;
    if (region == nullptr) continue;  // it ended before this worker woke
    region->active.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    Drain(*region);
    // The region may end as soon as active reaches 0: touch only the
    // pool after the decrement.
    if (region->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> done_lk(mu_);
      done_cv_.notify_all();
    }
  }
}

}  // namespace hwp3d
