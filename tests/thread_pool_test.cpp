// Dedicated coverage for common/thread_pool: parallel_for chunking
// boundaries, the serial fallback of the free helper, and the
// future-returning submit() path the serving runtime depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace orco::common {
namespace {

// Every index in [begin, end) must be visited exactly once, whatever the
// relation between trip count and worker count.
void expect_exact_coverage(ThreadPool& pool, std::size_t begin,
                           std::size_t end) {
  std::vector<std::atomic<int>> hits(end);
  pool.parallel_for(begin, end, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < begin; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (std::size_t i = begin; i < end; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolChunkingTest, CoversBoundaryTripCounts) {
  ThreadPool pool(4);
  expect_exact_coverage(pool, 0, 1);    // fewer items than workers
  expect_exact_coverage(pool, 0, 3);    // n < workers
  expect_exact_coverage(pool, 0, 4);    // n == workers
  expect_exact_coverage(pool, 0, 5);    // n == workers + 1 (ragged last chunk)
  expect_exact_coverage(pool, 0, 1000); // n >> workers
  expect_exact_coverage(pool, 7, 8);    // single item, nonzero begin
  expect_exact_coverage(pool, 13, 29);  // odd range, nonzero begin
}

TEST(ThreadPoolChunkingTest, SingleWorkerPoolStillCovers) {
  ThreadPool pool(1);
  expect_exact_coverage(pool, 0, 17);
}

TEST(ThreadPoolChunkingTest, EmptyAndInvertedRangesAreNoops) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  pool.parallel_for(9, 3, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// A worker may still be signalling a call's completion, or only start its
// helper task, after that call returned. Back-to-back calls with trivial
// chunks are where such a worker would race the next call's handshake if
// the handshake lived on the caller's stack (TSan reports it).
TEST(ThreadPoolChunkingTest, BackToBackTinyCallsEachCompleteFully) {
  ThreadPool pool(4);
  std::atomic<std::size_t> visited{0};
  constexpr std::size_t kCalls = 20000;
  for (std::size_t c = 0; c < kCalls; ++c) {
    pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
      visited.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(visited.load(), 4 * kCalls);
}

TEST(ThreadPoolHelperTest, NullPoolRunsSerially) {
  std::vector<int> hits(10, 0);
  const auto tid = std::this_thread::get_id();
  bool same_thread = true;
  parallel_for(nullptr, 0, 10, /*grain=*/1, [&](std::size_t lo, std::size_t hi) {
    same_thread = same_thread && std::this_thread::get_id() == tid;
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  EXPECT_TRUE(same_thread);
  for (const auto h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolHelperTest, BelowGrainFallsBackToOneSerialCall) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(&pool, 0, 9, /*grain=*/10, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 9u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolHelperTest, AtGrainUsesThePool) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for(&pool, 0, 16, /*grain=*/16, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolSubmitTest, ReturnsTaskResultThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolSubmitTest, VoidTasksComplete) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto future = pool.submit([&] { ran.store(true); });
  future.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolSubmitTest, ExceptionsPropagateThroughFutureGet) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task exploded"); });
  try {
    (void)future.get();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task exploded");
  }
}

TEST(ThreadPoolSubmitTest, ManyConcurrentTasksAllRun) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  std::size_t sum = 0;
  for (auto& f : futures) sum += f.get();
  std::size_t expect = 0;
  for (std::size_t i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPoolSubmitTest, LongRunningTasksDoNotBlockParallelFor) {
  // A long-running submitted task must not wedge parallel_for chunks queued
  // behind it as long as another worker is free.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> count{0};
  std::thread loop([&] {
    pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
  });
  loop.join();
  EXPECT_EQ(count.load(), 8);
  release.store(true);
  blocker.get();
}

TEST(ThreadPoolSubmitTest, ParallelForCompletesWithEveryWorkerBusy) {
  // The caller claims chunks itself, so a pool whose workers are all held
  // by long-running tasks still finishes the loop, on the calling thread.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(pool.submit([&] {
      while (!release.load()) std::this_thread::yield();
    }));
  }
  const auto tid = std::this_thread::get_id();
  bool on_caller = true;
  int covered = 0;
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    on_caller = on_caller && std::this_thread::get_id() == tid;
    covered += static_cast<int>(hi - lo);
  });
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(covered, 8);
  release.store(true);
  for (auto& b : blockers) b.get();
}

TEST(ThreadPoolSubmitTest, ParallelForRethrowsAfterEveryChunkFinished) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](std::size_t lo, std::size_t) {
                                   if (lo == 2) throw std::runtime_error("x");
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPoolGlobalTest, GlobalPoolIsStableAcrossCalls) {
  ThreadPool* first = &ThreadPool::global();
  ThreadPool* second = &ThreadPool::global();
  EXPECT_EQ(first, second);
  EXPECT_GE(first->size(), 1u);
  auto future = first->submit([] { return 1; });
  EXPECT_EQ(future.get(), 1);
}

}  // namespace
}  // namespace orco::common
