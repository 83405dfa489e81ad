#include "serve/batch_queue.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace orco::serve {

BatchQueue::BatchQueue(const BatchQueueConfig& config) : config_(config) {
  ORCO_CHECK(config.capacity > 0, "BatchQueue capacity must be positive");
  ORCO_CHECK(config.max_batch > 0, "BatchQueue max_batch must be positive");
}

bool BatchQueue::erase_lane(ClusterId cluster) {
  common::MutexLock lock(mu_);
  const auto it = lanes_.find(cluster);
  if (it == lanes_.end() || !it->second.entries.empty()) return false;
  lanes_.erase(it);
  return true;
}

PushResult BatchQueue::push(PendingRequest&& pending) {
  {
    common::MutexLock lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (total_ >= config_.capacity) return PushResult::kShed;
    const ClusterId cluster = pending.request.cluster;
    lanes_[cluster].entries.push_back(Entry{std::move(pending), next_seq_++});
    ++total_;
  }
  // notify_all, not notify_one: with multiple consumers, one of them may be
  // lingering in a coalescing window for a *different* cluster and would
  // absorb a single notification without extracting this request, leaving a
  // top-level waiter asleep and the request stalled (the MPMC lost-wakeup).
  // Waking every waiter guarantees an eligible consumer sees it.
  cv_.notify_all();
  return PushResult::kAccepted;
}

ClusterId BatchQueue::pick_cluster() const {
  ClusterId best = 0;
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [cluster, lane] : lanes_) {
    if (!lane.entries.empty() && lane.entries.front().seq < best_seq) {
      best = cluster;
      best_seq = lane.entries.front().seq;
    }
  }
  ORCO_CHECK(best_seq != std::numeric_limits<std::uint64_t>::max(),
             "pick_cluster on an empty queue");
  return best;
}

void BatchQueue::extract_cluster(ClusterId cluster, std::size_t limit,
                                 std::vector<PendingRequest>& out) {
  const auto it = lanes_.find(cluster);
  if (it == lanes_.end()) return;
  std::deque<Entry>& entries = it->second.entries;
  if (entries.empty()) return;
  const auto popped_at = std::chrono::steady_clock::now();
  while (!entries.empty() && out.size() < limit) {
    out.push_back(std::move(entries.front().pending));
    out.back().popped_at = popped_at;
    entries.pop_front();
    --total_;
  }
}

std::vector<PendingRequest> BatchQueue::pop_batch() {
  std::vector<PendingRequest> batch;
  common::MutexLock lock(mu_);
  while (!closed_ && total_ == 0) cv_.wait(lock.native());
  if (total_ == 0) return batch;  // closed and drained

  const ClusterId target = pick_cluster();
  // Coalescing window: once we own the batch's first request, linger for
  // more of the same cluster — for at most one decode of this lane, capped
  // at max_wait_us (see the header). Read once: the lane may be erased
  // while we wait. Closed queues skip the wait so shutdown drains promptly.
  const std::chrono::nanoseconds window =
      std::min<std::chrono::nanoseconds>(
          std::chrono::microseconds(config_.max_wait_us),
          lanes_.at(target).last_decode);
  extract_cluster(target, config_.max_batch, batch);

  const auto deadline = std::chrono::steady_clock::now() + window;
  while (batch.size() < config_.max_batch && !closed_ &&
         window.count() > 0) {
    if (cv_.wait_until(lock.native(), deadline) == std::cv_status::timeout) {
      extract_cluster(target, config_.max_batch, batch);
      break;
    }
    extract_cluster(target, config_.max_batch, batch);
  }
  return batch;
}

void BatchQueue::record_decode(ClusterId cluster,
                               std::chrono::nanoseconds elapsed) {
  common::MutexLock lock(mu_);
  const auto it = lanes_.find(cluster);
  if (it != lanes_.end()) it->second.last_decode = elapsed;
}

void BatchQueue::close() {
  {
    common::MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool BatchQueue::closed() const {
  common::MutexLock lock(mu_);
  return closed_;
}

std::size_t BatchQueue::size() const {
  common::MutexLock lock(mu_);
  return total_;
}

std::size_t BatchQueue::size(ClusterId cluster) const {
  common::MutexLock lock(mu_);
  const auto it = lanes_.find(cluster);
  return it == lanes_.end() ? 0 : it->second.entries.size();
}

}  // namespace orco::serve
