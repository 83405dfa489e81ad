// BatchQueue — a bounded MPMC queue that coalesces same-cluster decode
// requests into batches, in arrival order.
//
// Producers push from any thread; push never blocks. Admission is the
// queue's capacity alone: a request that finds the queue full is shed, and
// nothing already queued is displaced. A consumer pops a *batch*: all
// requests in it belong to one cluster (hence one decoder model), so the
// shard can decode them with a single batched GEMM. Each cluster has its
// own FIFO lane, and the next batch comes from the lane whose head request
// arrived first. Once the first request is in hand, pop_batch lingers for
// stragglers of the same cluster, but never longer than that lane's last
// measured decode (record_decode), capped at max_wait_us: a request that
// misses the batch costs exactly one more decode, so waiting longer than
// one decode cannot pay for itself. A lane with no measured decode yet does
// not wait at all. Millisecond decoders therefore keep the full window
// while microsecond ones barely linger.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/request.h"

namespace orco::serve {

struct BatchQueueConfig {
  std::size_t capacity = 1024;   // pending requests before shedding
  std::size_t max_batch = 32;    // coalescing ceiling per pop
  /// Longest coalescing window after a batch's first request. A lane's
  /// actual window is min(max_wait_us, its last measured decode); a lane
  /// with no measured decode does not wait.
  std::uint64_t max_wait_us = 200;
};

enum class PushResult { kAccepted, kShed, kClosed };

class BatchQueue {
 public:
  explicit BatchQueue(const BatchQueueConfig& config);

  /// Thread-safe, non-blocking. kShed when the queue is at capacity,
  /// kClosed after close().
  PushResult push(PendingRequest&& pending);

  /// Blocks until at least one request is available (or the queue is closed
  /// and drained — then returns empty). Returns up to max_batch requests,
  /// all for the same cluster, preserving per-cluster FIFO order. Other
  /// clusters' requests keep their positions. The cluster is the one whose
  /// head request arrived first.
  std::vector<PendingRequest> pop_batch();

  /// Records how long `cluster`'s last batch took to decode; that lane's
  /// next pop lingers at most this long (capped at max_wait_us). Only
  /// updates an existing lane: a lane that demotion erased mid-batch is
  /// not resurrected.
  void record_decode(ClusterId cluster, std::chrono::nanoseconds elapsed);

  /// Stops intake and wakes consumers; queued requests remain poppable so a
  /// graceful shutdown can drain in-flight work.
  void close();

  /// Drops an *empty* tenant lane, reclaiming its slot — without this,
  /// 100k cold-tier demote/wake cycles would leave 100k dead lanes that
  /// every pop_batch scan walks. Returns false (and changes
  /// nothing) when the lane still holds queued requests or never existed.
  bool erase_lane(ClusterId cluster);

  bool closed() const;
  std::size_t size() const;
  std::size_t size(ClusterId cluster) const;
  std::size_t capacity() const noexcept { return config_.capacity; }
  const BatchQueueConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    PendingRequest pending;
    std::uint64_t seq = 0;  // global arrival order
  };
  /// One tenant's FIFO lane. Lanes are created on first push and live
  /// until erase_lane (the fleet's demotion path) reclaims them once
  /// drained.
  struct Lane {
    std::deque<Entry> entries;
    std::chrono::nanoseconds last_decode{0};  // 0: never measured
  };

  /// Picks the non-empty lane whose head has the lowest seq. At least one
  /// lane must be non-empty.
  ClusterId pick_cluster() const ORCO_REQUIRES(mu_);
  /// Moves up to `limit` requests for `cluster` out of its lane into out.
  void extract_cluster(ClusterId cluster, std::size_t limit,
                       std::vector<PendingRequest>& out) ORCO_REQUIRES(mu_);

  BatchQueueConfig config_;
  mutable common::Mutex mu_;
  std::condition_variable cv_;
  std::map<ClusterId, Lane> lanes_ ORCO_GUARDED_BY(mu_);
  std::size_t total_ ORCO_GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ ORCO_GUARDED_BY(mu_) = 0;
  bool closed_ ORCO_GUARDED_BY(mu_) = false;
};

}  // namespace orco::serve
