#include "serve/batch_queue.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace orco::serve {

namespace {

/// Microseconds of head-of-line wait that double a cluster's scheduling
/// score (BatchQueue::pick_cluster).
constexpr double kAgingUs = 1000.0;

}  // namespace

BatchQueue::BatchQueue(const BatchQueueConfig& config) : config_(config) {
  ORCO_CHECK(config.capacity > 0, "BatchQueue capacity must be positive");
  ORCO_CHECK(config.max_batch > 0, "BatchQueue max_batch must be positive");
}

BatchQueue::Lane& BatchQueue::lane_for(ClusterId cluster) {
  const auto it = lanes_.find(cluster);
  if (it != lanes_.end()) return it->second;
  Lane& lane = lanes_[cluster];
  lane.policy = config_.default_policy;
  return lane;
}

void BatchQueue::set_policy(ClusterId cluster, const TenantPolicy& policy) {
  common::MutexLock lock(mu_);
  lane_for(cluster).policy = policy;
}

TenantPolicy BatchQueue::policy(ClusterId cluster) const {
  common::MutexLock lock(mu_);
  const auto it = lanes_.find(cluster);
  return it == lanes_.end() ? config_.default_policy : it->second.policy;
}

bool BatchQueue::erase_lane(ClusterId cluster) {
  common::MutexLock lock(mu_);
  const auto it = lanes_.find(cluster);
  if (it == lanes_.end() || !it->second.entries.empty()) return false;
  lanes_.erase(it);
  return true;
}

PushResult BatchQueue::push(PendingRequest&& pending,
                            std::vector<PendingRequest>* evicted) {
  PendingRequest self_answered_eviction;
  bool have_self_answered = false;
  {
    common::MutexLock lock(mu_);
    if (closed_) return PushResult::kClosed;
    Lane& lane = lane_for(pending.request.cluster);
    const std::size_t quota = lane.policy.queue_quota;
    if (quota > 0 && lane.entries.size() >= quota) return PushResult::kShed;
    if (total_ >= config_.capacity) {
      // At capacity: shed low-priority work first. Find the lowest-priority
      // lane strictly below the arriving request's class (largest backlog
      // breaks ties) and evict its newest entry; the oldest requests keep
      // their positions so eviction never reorders surviving work.
      Lane* victim = nullptr;
      for (auto& [id, candidate] : lanes_) {
        if (candidate.entries.empty()) continue;
        if (candidate.policy.priority <= lane.policy.priority) continue;
        if (victim == nullptr ||
            candidate.policy.priority > victim->policy.priority ||
            (candidate.policy.priority == victim->policy.priority &&
             candidate.entries.size() > victim->entries.size())) {
          victim = &candidate;
        }
      }
      if (victim == nullptr) return PushResult::kShed;
      Entry dropped = std::move(victim->entries.back());
      victim->entries.pop_back();
      --total_;
      if (evicted != nullptr) {
        evicted->push_back(std::move(dropped.pending));
      } else {
        self_answered_eviction = std::move(dropped.pending);
        have_self_answered = true;  // answer outside the lock
      }
    }
    Entry entry;
    entry.pending = std::move(pending);
    entry.seq = next_seq_++;
    entry.queued_at = std::chrono::steady_clock::now();
    lane.entries.push_back(std::move(entry));
    ++total_;
  }
  // notify_all, not notify_one: with multiple consumers, one of them may be
  // lingering in a coalescing window for a *different* cluster and would
  // absorb a single notification without extracting this request, leaving a
  // top-level waiter asleep and the request stalled (the MPMC lost-wakeup).
  // Waking every waiter guarantees an eligible consumer sees it.
  cv_.notify_all();
  // Safety net for direct queue users that passed no out-vector (the
  // runtime always does): answer the evicted promise here.
  if (have_self_answered) {
    resolve_with_status(self_answered_eviction, ResponseStatus::kShed);
  }
  return PushResult::kAccepted;
}

ClusterId BatchQueue::pick_cluster() const {
  const auto now = std::chrono::steady_clock::now();
  ClusterId best = 0;
  double best_score = -1.0;
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [cluster, lane] : lanes_) {
    if (lane.entries.empty()) continue;
    const Entry& head = lane.entries.front();
    const double age_us =
        std::chrono::duration<double, std::micro>(now - head.queued_at)
            .count();
    const double score =
        lane.policy.schedule_weight() * (1.0 + age_us / kAgingUs);
    if (score > best_score ||
        (score == best_score && head.seq < best_seq)) {
      best = cluster;
      best_score = score;
      best_seq = head.seq;
    }
  }
  ORCO_CHECK(best_score >= 0.0, "pick_cluster on an empty queue");
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
