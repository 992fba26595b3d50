// Persistent worker pool with chunked, self-scheduling parallel-for.
//
// One process-wide pool (`ThreadPool::Get()`, sized by HWP_THREADS or
// the hardware concurrency) owns every worker thread for the lifetime
// of the process: parallel regions are dispatched to the same
// long-lived workers instead of spawning `std::thread`s per call.
// Work is distributed work-stealing style by chunked self-scheduling —
// every participant (the N-1 workers plus the calling thread)
// repeatedly claims the next unclaimed chunk of the index range from a
// shared atomic cursor, so fast participants automatically take over
// the chunks slow ones never reached and no static partition can
// strand work.
//
// Guarantees:
//  * body(i) runs exactly once per index in [begin, end); For() returns
//    only after every invocation has finished.
//  * An exception thrown by the body cancels the unclaimed chunks and
//    the first captured exception is rethrown on the calling thread.
//  * Nested For() calls (from inside a body) run serially inline —
//    deadlock-free and deterministic.
//  * HWP_THREADS=1 (or a single-core machine, or a live SerialScope on
//    the calling thread) degrades to plain in-order serial execution,
//    independent of the scheduler.
//  * Workers are joinable and joined in the destructor; none are
//    detached (sanitizer-friendly shutdown).
//
// Between regions an idle worker spins (with a CPU pause) on the region
// epoch for a short window before it parks on a condition variable, and
// the dispatching thread spins on the region's active count before it
// waits: back-to-back regions, such as the conv layers of one clip,
// then start and join without a futex round trip. After the window
// everyone parks, so an idle pool burns no CPU.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hwp3d {

class ThreadPool {
 public:
  // Process-wide pool. Sized by the HWP_THREADS environment variable
  // when set (clamped to [1, 256]), else std::thread::hardware_concurrency.
  static ThreadPool& Get();

  // Standalone pool with `threads` participants total (the constructor
  // spawns threads-1 workers; the thread calling For() is the last
  // participant). Intended for tests; production code uses Get().
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total participants (worker threads + the calling thread).
  int threads() const { return threads_; }

  // While alive, every For() the constructing thread starts runs inline
  // and in index order, as it does in a one-thread pool. Lets a test or
  // bench compare one thread with the whole pool in one process.
  class SerialScope {
   public:
    SerialScope();
    ~SerialScope();
    SerialScope(const SerialScope&) = delete;
    SerialScope& operator=(const SerialScope&) = delete;

   private:
    bool was_serial_;
  };

  // Invokes body(i) for every i in [begin, end).
  template <typename Body>
  void For(int64_t begin, int64_t end, Body&& body) {
    const int64_t n = end - begin;
    if (n <= 0) return;
    if (threads_ == 1 || n == 1 || InWorker()) {
      for (int64_t i = begin; i < end; ++i) body(i);
      return;
    }
    using B = std::remove_reference_t<Body>;
    Dispatch(
        [](void* ctx, int64_t i) { (*static_cast<B*>(ctx))(i); },
        const_cast<std::remove_const_t<B>*>(&body), begin, end);
  }

 private:
  struct Region;

  // True on pool worker threads, while the calling thread is inside a
  // parallel region, and under a SerialScope (serializes submissions).
  static bool InWorker();

  void Dispatch(void (*invoke)(void*, int64_t), void* ctx, int64_t begin,
                int64_t end);
  void Drain(Region& region);
  void WorkerMain();

  int threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  // serializes concurrent top-level For() calls

  // Guards current_ and Region joins; epoch_ and stop_ change only under
  // it but are atomic so spinning threads may read them without it.
  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers wait for a new region
  std::condition_variable done_cv_;  // caller waits for region completion
  Region* current_ = nullptr;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace hwp3d
