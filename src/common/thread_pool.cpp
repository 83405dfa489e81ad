#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace orco::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_.wait(lock.native());
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t parts = std::min(n, workers_.size());
  const std::size_t chunk_size = (n + parts - 1) / parts;
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }

  // Chunks are claimed from a shared counter by this thread and by up to
  // chunks - 1 pool workers, so the call completes even when no worker
  // wakes in time (the caller then runs every chunk itself). The handshake
  // state is shared with the helper tasks: a helper that starts after the
  // last chunk was claimed finds nothing to do and touches only this state,
  // never `fn` or the caller's frame, which may be gone by then.
  struct Shared {
    std::atomic<std::size_t> next{0};
    Mutex mu;
    std::condition_variable cv;
    std::size_t done ORCO_GUARDED_BY(mu) = 0;
    std::exception_ptr error ORCO_GUARDED_BY(mu);
  };
  const auto shared = std::make_shared<Shared>();
  const auto drain = [&fn, begin, end, chunk_size, chunks](Shared& state) {
    for (std::size_t c = state.next.fetch_add(1); c < chunks;
         c = state.next.fetch_add(1)) {
      const std::size_t lo = begin + c * chunk_size;
      std::exception_ptr error;
      try {
        fn(lo, std::min(end, lo + chunk_size));
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(state.mu);
      if (error && !state.error) state.error = error;
      if (++state.done == chunks) state.cv.notify_one();
    }
  };
  {
    MutexLock lock(mu_);
    for (std::size_t h = 1; h < chunks; ++h) {
      tasks_.emplace([shared, drain] { drain(*shared); });
    }
  }
  for (std::size_t h = 1; h < chunks; ++h) cv_.notify_one();

  Shared& state = *shared;
  drain(state);
  MutexLock lock(state.mu);
  while (state.done != chunks) state.cv.wait(lock.native());
  if (state.error) std::rethrow_exception(state.error);
}

ThreadPool& ThreadPool::global() {
  // Deliberately leaked (see header): keeps the pool alive through static
  // destruction so late users never touch a joined pool.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace orco::common
