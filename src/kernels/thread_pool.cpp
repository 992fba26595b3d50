#include "kernels/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"

namespace hwp3d {
namespace {

thread_local bool t_in_worker = false;

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
  int active = 0;              // workers inside Drain; guarded by mu_
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
    stop_ = true;
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
    ++epoch_;
  }
  wake_cv_.notify_all();

  Drain(region);  // the caller is a participant too

  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return region.active == 0; });
  current_ = nullptr;  // late-waking workers must not touch the dead region
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
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_cv_.wait(lk, [&] {
      return stop_ || (current_ != nullptr && epoch_ != seen_epoch);
    });
    if (stop_) return;
    seen_epoch = epoch_;
    Region* region = current_;
    ++region->active;
    lk.unlock();
    Drain(*region);
    lk.lock();
    if (--region->active == 0) done_cv_.notify_all();
  }
}

}  // namespace hwp3d
