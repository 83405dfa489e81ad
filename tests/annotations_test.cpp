// Runtime companions to the compile-time thread-safety contracts.
//
// The ORCO_GUARDED_BY / ORCO_REQUIRES annotations (enforced by the clang
// CI job, with tests/negative/thread_safety_violations.cpp proving the
// analysis rejects violations) cover the mutex-protected state. Two things
// they cannot cover are exercised here at runtime:
//
//  * thread-LOCAL state that is intentionally unsynchronized — the
//    BackendScope override stack and the per-thread GEMM parallelism
//    opt-out must stay isolated per pool worker, never leak across the
//    pool's task boundaries, and never observe another thread's value;
//  * the sanitizer wall itself — TsanCanary is a deliberately racy
//    increment, armed only via ORCO_TSAN_CANARY=1, that the TSan CI job
//    runs EXPECTING a detected race. A clean exit there means the
//    instrumentation is off and every green TSan run is meaningless.

#include <atomic>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "tensor/backend.h"

namespace orco {
namespace {

// Each pool worker flips its own thread-local GEMM parallelism flag and
// then re-reads it after every other worker has flipped (or not flipped)
// theirs: the barrier forces the reads to happen while the other threads'
// writes are in effect, so any cross-thread leakage would be observed.
TEST(ThreadLocalIsolation, GemmParallelismIsPerPoolWorker) {
  constexpr std::size_t kWorkers = 4;
  common::ThreadPool pool(kWorkers);

  std::atomic<std::size_t> arrived{0};
  std::vector<std::future<bool>> results;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    results.push_back(pool.submit([i, &arrived] {
      const bool mine = (i % 2 == 0);  // workers disagree on purpose
      tensor::set_thread_gemm_parallelism(mine);
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers) std::this_thread::yield();
      // Every worker still sees its own setting, not a neighbour's.
      const bool ok = tensor::thread_gemm_parallelism() == mine;
      tensor::set_thread_gemm_parallelism(true);  // restore for reuse
      return ok;
    }));
  }
  for (auto& r : results) EXPECT_TRUE(r.get());
  // The submitting thread's own flag was never touched.
  EXPECT_TRUE(tensor::thread_gemm_parallelism());
}

// Same isolation contract for the BackendScope override stack: a scope
// constructed on one pool worker must redirect current_backend() on that
// worker only, and destruction must restore the previous selection even
// with all workers inside scopes concurrently.
TEST(ThreadLocalIsolation, BackendScopeIsPerPoolWorker) {
  constexpr std::size_t kWorkers = 4;
  common::ThreadPool pool(kWorkers);
  const tensor::Backend& base = tensor::current_backend();
  const tensor::Backend* simd = tensor::find_backend("simd");
  ASSERT_NE(simd, nullptr);

  std::atomic<std::size_t> arrived{0};
  std::vector<std::future<bool>> results;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    results.push_back(pool.submit([i, &arrived, &base, simd] {
      bool ok = true;
      {
        // Odd workers override; even workers keep the default. A null
        // scope must be a no-op (the "not configured" passthrough).
        tensor::BackendScope scope(i % 2 == 1 ? simd : nullptr);
        arrived.fetch_add(1);
        while (arrived.load() < kWorkers) std::this_thread::yield();
        const tensor::Backend& seen = tensor::current_backend();
        ok = ok && (&seen == (i % 2 == 1 ? simd : &base));
      }
      // Scope destruction restores the worker to the process default.
      ok = ok && (&tensor::current_backend() == &base);
      return ok;
    }));
  }
  for (auto& r : results) EXPECT_TRUE(r.get());
  EXPECT_EQ(&tensor::current_backend(), &base);
}

// A pool worker's thread-local state must not leak into LATER tasks that
// happen to land on the same worker thread: submit a task that sets the
// flag and deliberately "forgets" to restore it, then verify the repo
// convention — scoped restoration — is what the runtime relies on, by
// checking a fresh task observes whatever the previous task left. This
// documents the hazard the RAII BackendScope exists to prevent.
TEST(ThreadLocalIsolation, StateStickinessIsWhyScopesExist) {
  common::ThreadPool pool(1);  // single worker: tasks share one thread
  pool.submit([] { tensor::set_thread_gemm_parallelism(false); }).get();
  const bool seen_by_next_task =
      pool.submit([] { return tensor::thread_gemm_parallelism(); }).get();
  EXPECT_FALSE(seen_by_next_task);  // sticky: pool threads outlive tasks
  pool.submit([] { tensor::set_thread_gemm_parallelism(true); }).get();
}

// Deliberate data race, armed only under ORCO_TSAN_CANARY=1. The TSan CI
// job runs this test expecting the sanitizer to abort it (halt_on_error);
// the job FAILS if the test exits cleanly. Under a normal (uninstrumented)
// run the test is skipped, so the tier-1 suite never executes the race.
TEST(TsanCanary, RacyIncrementMustBeDetected) {
  const char* armed = std::getenv("ORCO_TSAN_CANARY");
  if (armed == nullptr || armed[0] != '1') {
    GTEST_SKIP() << "set ORCO_TSAN_CANARY=1 to arm the canary race";
  }
  // Unsynchronized read-modify-write from two threads on a plain int:
  // the textbook race TSan must flag.
  int racy = 0;
  std::thread a([&racy] {
    for (int i = 0; i < 100000; ++i) racy = racy + 1;
  });
  std::thread b([&racy] {
    for (int i = 0; i < 100000; ++i) racy = racy + 1;
  });
  a.join();
  b.join();
  // Reaching here under TSan (halt_on_error=1) means no race was
  // reported; the CI step inverts the exit code and fails.
  EXPECT_GT(racy, 0);
}

}  // namespace
}  // namespace orco
