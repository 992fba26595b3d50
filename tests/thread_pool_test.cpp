#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "kernels/thread_pool.h"

namespace hwp3d {
namespace {

TEST(ThreadPoolTest, SingletonIsProcessWideAndSized) {
  ThreadPool& a = ThreadPool::Get();
  ThreadPool& b = ThreadPool::Get();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.threads(), 1);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.For(0, 10000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(4);
  bool called = false;
  pool.For(5, 5, [&](int64_t) { called = true; });
  pool.For(7, 3, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.For(0, 1000,
                        [](int64_t i) {
                          if (i == 321) throw Error("boom");
                        }),
               Error);
  // The pool must stay fully usable after a body threw.
  std::atomic<int64_t> sum{0};
  pool.For(0, 100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, SerialScopeRunsInlineInOrderThenRestores) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  {
    ThreadPool::SerialScope serial;
    std::vector<int64_t> order;
    bool other_thread = false;
    pool.For(0, 1000, [&](int64_t i) {
      order.push_back(i);
      other_thread |= std::this_thread::get_id() != caller;
    });
    EXPECT_FALSE(other_thread);
    ASSERT_EQ(order.size(), 1000u);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<int64_t>(i));
    }
  }
  // After the scope the pool fans out again.
  std::atomic<bool> other_thread{false};
  for (int attempt = 0; attempt < 100 && !other_thread.load(); ++attempt) {
    pool.For(0, 64, [&](int64_t) {
      if (std::this_thread::get_id() != caller) other_thread = true;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  EXPECT_TRUE(other_thread.load());
}

TEST(ThreadPoolTest, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.For(0, 8, [&](int64_t) {
    // A nested region from inside a body must not deadlock; it runs
    // serially inline on the submitting participant.
    pool.For(0, 100, [&](int64_t) { count++; });
  });
  EXPECT_EQ(count.load(), 800);
}

TEST(ThreadPoolTest, SingleThreadPoolIsSerialAndOrdered) {
  // HWP_THREADS=1 semantics: no workers, strict in-order execution.
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int64_t> order;  // unsynchronized on purpose: must be serial
  pool.For(0, 64, [&](int64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, SerialScopeForcesSerialOrderOnSingletonPool) {
  ThreadPool::SerialScope serial;
  std::vector<int64_t> order;  // unsynchronized on purpose: must be serial
  ThreadPool::Get().For(0, 64, [&](int64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, ConcurrentTopLevelSubmitsSerialize) {
  // Two external threads race to submit regions to one pool; the
  // submissions must serialize and every index must still run once.
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  auto submitter = [&] {
    for (int r = 0; r < 50; ++r) {
      pool.For(0, 100, [&](int64_t) { total++; });
    }
  };
  std::thread t1(submitter), t2(submitter);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 2 * 50 * 100);
}

TEST(ThreadPoolTest, ManySmallRegionsReuseWorkers) {
  // Per-call thread spawn would make this test take seconds; the
  // persistent pool handles thousands of tiny regions instantly.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int r = 0; r < 2000; ++r) {
    pool.For(0, 8, [&](int64_t) { total++; });
  }
  EXPECT_EQ(total.load(), 2000 * 8);
}

TEST(ThreadPoolTest, BackToBackRegionsRunEachIndexOnce) {
  // Regions that follow each other within the workers' spin window, of
  // sizes that leave workers with nothing (1), fewer chunks than
  // participants (2, threads()) and many chunks (1000).
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{pool.threads()},
                      int64_t{1000}}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      pool.For(0, n, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "n=" << n;
    }
  }
}

TEST(ThreadPoolTest, DestroyRightAfterRegionJoinsPromptly) {
  // The workers are still spinning for the next region when the pool
  // goes away: they must see the stop and exit, not finish the window
  // or park for good.
  for (int round = 0; round < 20; ++round) {
    const auto start = std::chrono::steady_clock::now();
    {
      ThreadPool pool(4);
      std::atomic<int64_t> sum{0};
      pool.For(0, 64, [&](int64_t i) { sum += i; });
      EXPECT_EQ(sum.load(), 63 * 64 / 2);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  }
}

TEST(ThreadPoolTest, ExceptionRightAfterSpunRegionPropagates) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    pool.For(0, 16, [&](int64_t) { ran++; });
    ASSERT_EQ(ran.load(), 16);
    EXPECT_THROW(pool.For(0, 16,
                          [](int64_t i) {
                            if (i == 7) throw Error("boom");
                          }),
                 Error);
  }
}

TEST(ThreadPoolTest, MoveOnlyStateInBody) {
  // For() is a template over the body, so a move-only body works (a
  // std::function-based signature would require a copyable one).
  std::atomic<int64_t> sum{0};
  auto token = std::make_unique<int64_t>(7);
  ThreadPool::Get().For(
      0, 10, [&sum, t = std::move(token)](int64_t i) { sum += i * *t; });
  EXPECT_EQ(sum.load(), 45 * 7);
}

}  // namespace
}  // namespace hwp3d
