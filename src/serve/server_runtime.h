// ServerRuntime — the multi-tenant edge serving runtime.
//
// Owns shard_count ClusterShards, each with its own coalescing BatchQueue
// and exactly one worker task running on an orco::common::ThreadPool (via
// submit()). register_cluster() places a tenant on the shard holding the
// fewest tenants and records the placement; submit() routes a cluster's
// latent through that table and returns a future; backpressure is a
// bounded queue with an explicit shed-load answer, and shutdown() is
// graceful: intake stops, queued work drains, workers join, every
// outstanding future resolves.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "serve/cluster_shard.h"

namespace orco::serve {

struct ServeConfig {
  // Decode workers, one ClusterShard each; every tenant is served by the
  // one shard register_cluster placed it on.
  std::size_t shard_count = 4;
  BatchQueueConfig queue;  // applied per shard
  // Serve-while-retraining: when set (typically TrainerRuntime::registry()),
  // shards decode registered tenants through the registry's immutable
  // versioned snapshots and pick up hot swaps between batches; when null,
  // shards decode on the tenant's live EdgeServer as before.
  std::shared_ptr<train::ModelRegistry> model_registry;
  // Per-tenant telemetry rows (counters + latency histogram per ClusterId,
  // ~8KB each, living for the runtime's lifetime). On by default; a fleet
  // cell fronting ~100k registered tenants turns this off so telemetry
  // memory stays O(1) — Telemetry::tenant() then returns null and every
  // record lands in the runtime-wide series only.
  bool per_tenant_telemetry = true;
  // Observability export (obs/export.h): non-empty paths are written once,
  // after the workers join at shutdown, when every trace ring is retired
  // and the counters are final. export_observability() writes them on
  // demand.
  obs::ExportConfig obs_export;
};

class ServerRuntime {
 public:
  explicit ServerRuntime(const ServeConfig& config);

  /// Calls shutdown(); any still-queued requests are served first.
  ~ServerRuntime();

  ServerRuntime(const ServerRuntime&) = delete;
  ServerRuntime& operator=(const ServerRuntime&) = delete;

  /// Registers a tenant on the shard holding the fewest registered tenants
  /// (the lowest index on a tie); the tenant stays on that shard until
  /// unregistered. Allowed before start() and while running;
  /// re-registering a registered id throws.
  void register_cluster(ClusterId cluster,
                        std::shared_ptr<core::OrcoDcsSystem> system);

  /// Removes a tenant: subsequent submits answer kUnknownCluster, the
  /// tenant's (drained) queue lane is reclaimed and its shard counts one
  /// tenant fewer for the next placement. The fleet's cold-tier
  /// demotion path; callers must drain the tenant's queued work first —
  /// anything still queued is answered kUnknownCluster when its batch
  /// pops. A batch already in flight finishes safely (the shard's entry is
  /// shared-pointer-owned). Returns false when the id was not registered.
  bool unregister_cluster(ClusterId cluster);

  /// Enqueues one latent for decoding. Always returns a future that will be
  /// fulfilled: kOk with the reconstruction, kShed under backpressure,
  /// kShutdown after shutdown(), kUnknownCluster / kBadRequest on invalid
  /// traffic. Unregistered cluster ids are answered kUnknownCluster
  /// immediately — they get no queue slot and no per-tenant telemetry row,
  /// so bogus ids cannot grow state or take real tenants' queue capacity.
  /// Requests may be submitted before start(); they queue up and are served
  /// once workers run (subject to queue capacity).
  std::future<DecodeResponse> submit(ClusterId cluster, Tensor latent);

  /// Enqueues one quantized latent payload (core/quantization.h wire
  /// framing: affine header + codes) for decoding, without the caller ever
  /// materializing the float latent. Same answer contract as the float
  /// overload; a payload whose size does not match the tenant's latent_dim
  /// at `precision` is answered kBadRequest. The shard dequantizes the
  /// payload into its row of the batch (core::dequantize_latents_into), so
  /// it decodes exactly as the float overload would decode
  /// core::dequantize_latents of the same bytes, and may share a batch
  /// with float and other-precision requests.
  std::future<DecodeResponse> submit(ClusterId cluster,
                                     std::vector<std::uint8_t> payload,
                                     core::LatentPrecision precision);

  /// Launches one worker per shard. Idempotent until shutdown().
  void start();

  /// Graceful stop: refuse new traffic, drain every shard queue, join the
  /// workers. Safe to call multiple times and without start().
  void shutdown();

  bool running() const noexcept { return running_.load(); }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  ClusterShard& shard(std::size_t i) { return *shards_[i]; }
  const ClusterShard& shard(std::size_t i) const { return *shards_[i]; }
  /// The shard a registered cluster was placed on (fixed while it stays
  /// registered); nullopt for an id that is not registered.
  std::optional<std::size_t> shard_of(ClusterId cluster) const;

  /// Writes the configured observability exports now (shutdown() also
  /// writes them once, after the workers join). Returns false when any
  /// destination failed.
  bool export_observability() const;

  Telemetry& telemetry() noexcept { return telemetry_; }
  const Telemetry& telemetry() const noexcept { return telemetry_; }
  const ServeConfig& config() const noexcept { return config_; }
  /// The hot-swap registry shards read from; null when serving live models.
  const std::shared_ptr<train::ModelRegistry>& model_registry()
      const noexcept {
    return config_.model_registry;
  }

 private:
  std::future<DecodeResponse> immediate_response(RequestId id,
                                                 ResponseStatus status);
  /// Shared admission tail of both submit overloads: stamps the id and
  /// enqueue time, routes to the tenant's shard, answers unknown ids and
  /// shutdown up front, and answers backpressure kShed.
  std::future<DecodeResponse> submit_request(DecodeRequest request);

  ServeConfig config_;
  Telemetry telemetry_;
  std::vector<std::unique_ptr<ClusterShard>> shards_;
  common::ThreadPool pool_;  // one thread per shard worker
  std::vector<std::future<void>> workers_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<RequestId> next_request_id_{1};
  // Registered cluster -> index of the shard serving it. register and
  // unregister change this table and that shard's tenant map in one hold,
  // so an id found here is held by its shard unless an unregister races
  // the submit (the shard then answers kUnknownCluster at pop).
  mutable common::Mutex placement_mu_;
  std::unordered_map<ClusterId, std::size_t> placement_
      ORCO_GUARDED_BY(placement_mu_);
};

}  // namespace orco::serve
