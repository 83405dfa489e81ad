// A small fixed-size thread pool with parallel_for and future-returning
// task submission.
//
// Used by the tensor GEMM/conv kernels at bench scale and as the worker
// substrate of the serving runtime (src/serve). The pool is optional for
// loops: parallel_for falls back to a serial loop when the pool is null or
// the range is small, which keeps unit tests deterministic and cheap.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace orco::common {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(begin..end) split into roughly `size()` contiguous chunks and
  /// blocks until all chunks finish. fn receives [chunk_begin, chunk_end).
  /// The calling thread runs chunks too, claiming them with the workers
  /// from a shared counter, so a busy or slow-to-wake pool delays the call
  /// by at most the chunks it already took. An exception thrown by fn is
  /// rethrown here once every chunk has finished.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Enqueues a task and returns a future for its result. Exceptions thrown
  /// by the task are captured and rethrown from future::get(). Long-running
  /// tasks (e.g. serve-shard worker loops) occupy a worker until they
  /// return, so size the pool accordingly.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mu_);
      if (stop_) {
        throw std::runtime_error("ThreadPool::submit on a stopped pool");
      }
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Process-wide pool, lazily constructed on first use and intentionally
  /// never destroyed: joining workers from a static destructor races with
  /// other static teardown (a later destructor calling global() would touch
  /// a dead pool). Leaking keeps global() valid for the whole process; the
  /// OS reclaims the threads at exit.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ ORCO_GUARDED_BY(mu_);
  std::condition_variable cv_;
  bool stop_ ORCO_GUARDED_BY(mu_) = false;
};

/// Dispatch helper for optional pools: a null pool or a sub-grain range
/// runs `fn` inline. A template rather than a std::function signature on
/// purpose — type-erasing the lambda would heap-allocate its capture on
/// every call, and this sits on the steady-state decode path whose
/// zero-allocation contract (tensor/workspace.h) forbids exactly that.
/// The pooled branch still erases (ThreadPool::parallel_for submits
/// chunks), which is fine: crossing threads allocates regardless.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain, F&& fn) {
  if (pool == nullptr || end - begin < grain) {
    if (begin < end) fn(begin, end);
    return;
  }
  pool->parallel_for(begin, end, fn);
}

}  // namespace orco::common
