// ClusterShard — one shard of the serving runtime's tenant space.
//
// ServerRuntime places each cluster on one shard at registration; each
// shard owns the OrcoDcsSystem instances of its clusters and is driven by
// exactly one worker thread, so tenant state needs no locks on the serve
// path. The shard's BatchQueue hands the worker same-cluster batches.
// Every batch takes one path: validate each request, assemble one float
// batch (float latents copied, quantized payloads dequantized into their
// rows), run one decode, and fan the rows back out to the per-request
// futures.
//
// Serve-while-retraining: when a train::ModelRegistry is attached, the
// shard decodes through the tenant's current immutable ModelSnapshot — one
// copy out of the tenant's registry slot per batch picks up hot swaps
// published by the background TrainerRuntime, and the snapshot's shared_ptr
// pins exactly one coherent model for the whole fan-out. Without a registry
// the shard falls back to decoding on the tenant's live EdgeServer (fine as
// long as nothing trains it concurrently).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/system.h"
#include "serve/batch_queue.h"
#include "serve/request.h"
#include "serve/telemetry.h"
#include "train/model_registry.h"

namespace orco::serve {

class ClusterShard {
 public:
  /// `registry` (nullable) enables the hot-swap path for tenants published
  /// there.
  ClusterShard(std::size_t index, const BatchQueueConfig& queue_config,
               Telemetry* telemetry,
               std::shared_ptr<train::ModelRegistry> registry = nullptr);

  std::size_t index() const noexcept { return index_; }
  BatchQueue& queue() noexcept { return queue_; }

  /// Registers a tenant; its queue lane opens with its first request. The
  /// system is shared so callers can keep training or monitoring it
  /// between serve batches: with a model registry attached the trainer may
  /// mutate it freely (the serve path only reads registry snapshots);
  /// without one, external mutation should pause traffic first.
  void add_cluster(ClusterId cluster,
                   std::shared_ptr<core::OrcoDcsSystem> system);

  /// Removes a tenant (the fleet's cold-tier demotion path); a no-op for an
  /// id this shard does not hold. The caller must have drained the
  /// tenant's queued work first: a request still queued when its batch pops
  /// is answered kUnknownCluster. A batch already holding the entry
  /// finishes on it safely (entries are shared_ptr-owned).
  void remove_cluster(ClusterId cluster);

  /// Registered tenants; ServerRuntime places a new tenant on the shard
  /// with the fewest.
  std::size_t cluster_count() const;

  /// Worker loop: pops batches until the queue is closed and drained.
  /// Runs on exactly one thread per shard.
  void run();

  /// Decodes one same-cluster batch and fulfils every request's promise.
  /// Exposed for tests; normally called from run().
  void serve_batch(std::vector<PendingRequest> batch);

 private:
  /// One registered tenant: the live system plus (when a registry is
  /// attached) its swap slot.
  struct TenantEntry {
    std::shared_ptr<core::OrcoDcsSystem> system;
    std::shared_ptr<train::ModelRegistry::Entry> model;  // null: direct path
  };

  /// Entries are shared_ptr-owned so a lookup outlives both the internal
  /// lock hold and a concurrent remove_cluster: the worker's batch keeps
  /// the entry (and its system/model slot) alive through its fan-out even
  /// if the tenant is demoted mid-batch.
  std::shared_ptr<TenantEntry> find_cluster(ClusterId cluster)
      ORCO_EXCLUDES(tenants_mu_);

  std::size_t index_;
  BatchQueue queue_;
  Telemetry* telemetry_;  // runtime-owned; never null
  std::shared_ptr<train::ModelRegistry> registry_;  // nullable
  /// Worker-thread-owned inference memory, reused across batches and sized
  /// to the shard's high-water mark: batch assembly writes the coalesced
  /// latents (quantized payloads dequantized in place) straight into
  /// infer_ctx_'s input buffer, the decoder ping-pongs through the context,
  /// and the decode lands in decode_out_, out of which responses are filled
  /// by row copies. After the first batch at the largest shapes, a
  /// steady-state decode performs zero heap allocations.
  nn::InferContext infer_ctx_;
  Tensor decode_out_;
  mutable common::Mutex tenants_mu_;  // guards registration vs. lookup only
  std::map<ClusterId, std::shared_ptr<TenantEntry>> tenants_
      ORCO_GUARDED_BY(tenants_mu_);
};

}  // namespace orco::serve
