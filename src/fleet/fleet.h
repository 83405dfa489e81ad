// EdgeFleet — multi-edge scale-out front door.
//
// One process-wide facade over N in-process edge cells, each a full serving
// stack (ServerRuntime + ModelRegistry, optionally a TrainerRuntime).
// Three mechanisms make ~100k registered tenants servable on one box:
//
//   Routing    — a fixed hash maps every tenant id to its owning cell:
//                splitmix64(id) modulo the cell count. Topology is fixed
//                at construction, so the per-request route is one mix and
//                one modulo, lock-free.
//   Tiering    — registration is O(1) bookkeeping; a tenant materializes
//                (OrcoDcsSystem + registry slot + prepacked decoder) only
//                when traffic arrives, and an LRU residency manager demotes
//                idle tenants back to their durable state, bounding warm
//                state by FleetConfig::warm_capacity. The cold tier is
//                write-back: only a tenant that changed while warm writes
//                a crash-safe on-disk record (ColdStore); one without a
//                record is in its template state, which the config
//                template and the tenant id rebuild deterministically.
//                The first request to a cold tenant transparently
//                reactivates it; concurrent wakers coalesce onto one
//                activation (single-flight), so a thundering herd costs
//                at most one disk read.
//   Replication— every cell registry publish fans out a delta-encoded
//                snapshot image (SnapshotDelta, changed layer blobs only)
//                to the next cell by index, so a follower holds a
//                byte-identical standby image without deep-copying
//                unchanged parameters. Standby images are held only while
//                the tenant is warm, so they are bounded by warm_capacity.
//
// Warm/cold lifecycle and its invalidation rules:
//
//   cold -> warm (ensure_warm): build the tenant system from the config
//     template (per-tenant seed), overlay the cold record's weights if one
//     exists, continue the decoder generation counter from the record so
//     publishes stay monotonic, remember that version as the one the
//     tenant's durable state reproduces, register with the cell's trainer
//     (which publishes a snapshot) or publish directly, then register with
//     the cell's runtime. Only after the snapshot is live does the
//     tenant's serving flag open the submit fast path.
//   warm -> cold (demote): fence new fast-path entries (demoting flag,
//     store-load ordered against the in-flight counter), wait out
//     in-flight submits, flush the tenant's queue lane with a sentinel
//     decode (per-tenant lanes are FIFO — the sentinel's answer proves
//     every earlier request was answered), unregister from the trainer
//     (refused unless quiescent), and — only when the decoder generation
//     moved past the durable one — serialize encoder + decoder + version
//     to the cold store (fsync + atomic rename). Then drop the registry
//     slot, runtime registration, the follower's standby image,
//     caches and prepacked panels with the system itself. Any contention
//     aborts the demotion — the tenant simply stays warm and the next
//     sweep retries. So does a failed cold write: the tenant re-registers
//     with its trainer and keeps serving.
//
// Thread-safety: submit() may race register_tenant(), demote() and other
// submits arbitrarily; the fast path takes no lock (see ORCO_HOT_PATH in
// fleet.cpp). TenantState objects are created at registration and never
// destroyed before the fleet, so raw pointers handed out under the shared
// map lock stay valid.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/system.h"
#include "fleet/cold_store.h"
#include "fleet/replication.h"
#include "fleet/residency.h"
#include "obs/metrics.h"
#include "serve/server_runtime.h"
#include "train/trainer_runtime.h"

namespace orco::fleet {

using tensor::Tensor;

struct FleetConfig {
  /// Edge cells. Fixed for the fleet's lifetime. A fleet restarted with
  /// another count re-routes most tenants; their state follows them
  /// through the cold store, which every cell shares.
  std::size_t replicas = 2;
  /// Max materialized tenants fleet-wide; beyond it the LRU sweep demotes.
  std::size_t warm_capacity = 64;
  /// Cold-tier directory (created if missing).
  std::string cold_dir = "fleet-cold";
  /// Fan snapshot publishes out to the next cell by index as deltas.
  bool replicate = true;
  /// Per-cell serving template. model_registry is overwritten with the
  /// cell's own registry; set per_tenant_telemetry=false for large fleets.
  serve::ServeConfig serve;
  /// Per-tenant system template; orco.seed is re-mixed with the tenant id
  /// so tenants get distinct initial weights, deterministically.
  core::SystemConfig system;
  /// Trainer threads per cell; 0 disables training (snapshots are then
  /// published by the fleet itself at activation).
  std::size_t trainer_threads = 0;
  /// Trainer template when trainer_threads > 0 (worker_threads is taken
  /// from trainer_threads).
  train::TrainerConfig trainer;
};

/// Point-in-time fleet counters (fleet-local, independent of the global
/// obs registry so several fleets in one process stay distinguishable).
struct FleetStats {
  std::uint64_t registered = 0;
  std::uint64_t resident = 0;
  /// Activations of a tenant that was demoted earlier or that reads a
  /// cold-store record (a record can predate this fleet).
  std::uint64_t cold_wakes = 0;
  /// The remaining activations: first-ever ones, from the template.
  std::uint64_t cold_builds = 0;
  std::uint64_t wake_coalesced = 0;  // wakers that joined an in-flight wake
  /// Completed demotions, whether or not they wrote a record.
  std::uint64_t demotions = 0;
  /// Demotions that yielded (busy tenant) or whose cold write failed.
  std::uint64_t demotion_aborts = 0;
  std::uint64_t capacity_overrides = 0;
  std::uint64_t deltas_shipped = 0;
  std::uint64_t delta_bytes = 0;     // payload bytes of those deltas
  std::uint64_t full_ships = 0;
};

class EdgeFleet {
 public:
  explicit EdgeFleet(const FleetConfig& config);
  /// Calls shutdown().
  ~EdgeFleet();

  EdgeFleet(const EdgeFleet&) = delete;
  EdgeFleet& operator=(const EdgeFleet&) = delete;

  /// Starts every cell (trainers first, then serving workers). Idempotent.
  void start();
  /// Stops intake, then shuts cells down (trainers before runtimes so the
  /// last publishes land). Safe to call multiple times.
  void shutdown();

  /// O(1): records the tenant; no model is built until the first submit
  /// (or an explicit warm()). Re-registering throws.
  void register_tenant(ClusterId id);

  /// Routes one latent to the tenant's owning cell. Warm tenants take a
  /// lock-free fast path; cold tenants are transparently reactivated
  /// first (single-flight — concurrent wakers block on the same wake and
  /// then proceed). Unregistered ids answer kUnknownCluster, a stopped
  /// fleet kShutdown, a failed activation kInternalError.
  std::future<serve::DecodeResponse> submit(ClusterId id, Tensor latent);

  /// Forces the tenant warm (same single-flight path submit uses).
  void warm(ClusterId id);

  /// Demotes the tenant to the cold tier, writing a record only when it
  /// changed since activation. Returns false when the tenant is unknown,
  /// already cold, mid-wake, still busy (in-flight submits, queued work,
  /// or an active training job) or its cold write failed — demotion never
  /// blocks traffic, it yields to it, and a failed demotion leaves the
  /// tenant warm and serving.
  bool demote(ClusterId id);

  /// The cell serving `id`: splitmix64(id) modulo the cell count. The
  /// same mix derives each tenant's template seed.
  std::uint32_t owner_of(ClusterId id) const {
    return static_cast<std::uint32_t>(common::SplitMix64(id).next() %
                                      cells_.size());
  }
  bool resident(ClusterId id) const;
  std::size_t resident_count() const { return residency_.warm_count(); }
  std::size_t registered_count() const {
    return registered_.load(std::memory_order_relaxed);
  }

  std::size_t cell_count() const noexcept { return cells_.size(); }
  serve::ServerRuntime& cell_runtime(std::size_t i) {
    return *cells_[i]->runtime;
  }
  /// Null when trainer_threads == 0.
  train::TrainerRuntime* cell_trainer(std::size_t i) {
    return cells_[i]->trainer.get();
  }
  const std::shared_ptr<train::ModelRegistry>& cell_registry(
      std::size_t i) const {
    return cells_[i]->registry;
  }

  /// The standby image cell `i` holds for `id` via delta replication
  /// (empty image when none arrived, or once the tenant was demoted).
  /// Blobs are shared, not copied.
  SnapshotImage replicated_image(std::size_t i, ClusterId id) const;

  const ColdStore& cold_store() const noexcept { return cold_; }
  const FleetConfig& config() const noexcept { return config_; }
  FleetStats stats() const;
  /// Fleet-local cold-wake latency (microseconds per activation).
  obs::HistogramSnapshot cold_wake_histogram() const {
    return cold_wake_hist_.snapshot();
  }

 private:
  /// One edge cell: registry + optional trainer + serving runtime + the
  /// standby images replicated to it.
  struct Cell {
    std::shared_ptr<train::ModelRegistry> registry;
    std::unique_ptr<train::TrainerRuntime> trainer;  // may be null
    std::unique_ptr<serve::ServerRuntime> runtime;
    mutable common::Mutex images_mu;
    std::map<ClusterId, SnapshotImage> images ORCO_GUARDED_BY(images_mu);
  };

  /// Per-tenant lifecycle state. Created at registration, never destroyed
  /// before the fleet — submit holds raw pointers across the map lock.
  struct TenantState {
    /// Residency stamp; stored by every submit (relaxed).
    std::atomic<std::uint64_t> last_touch{0};
    /// Submits between routing and hand-off to the cell runtime. Paired
    /// with `demoting` as a store-load fence (both seq_cst): a submit
    /// either sees demoting and diverts, or its increment is seen by the
    /// demoter's drain wait.
    std::atomic<std::uint32_t> inflight{0};
    /// Fast-path gate: true exactly while the tenant is registered on its
    /// cell with a live snapshot.
    std::atomic<bool> serving{false};
    std::atomic<bool> demoting{false};
    /// Guards the wake/demote state machine (slow path only).
    common::Mutex mu;
    std::condition_variable cv;
    bool waking ORCO_GUARDED_BY(mu) = false;
    bool warm ORCO_GUARDED_BY(mu) = false;
    /// Set by the first successful demotion (cold_wakes vs cold_builds).
    bool demoted ORCO_GUARDED_BY(mu) = false;
    std::shared_ptr<core::OrcoDcsSystem> system ORCO_GUARDED_BY(mu);
    /// While warm: the decoder generation the tenant's durable state (its
    /// cold record, or its template state when it has none) reproduces.
    /// demote() writes a record only when model_version() moved past it.
    std::uint64_t durable_version ORCO_GUARDED_BY(mu) = 0;
  };

  TenantState* find_tenant(ClusterId id) const ORCO_EXCLUDES(tenants_mu_);
  static std::future<serve::DecodeResponse> immediate(
      serve::ResponseStatus status, std::string detail = {});
  /// Single-flight wake; returns with the tenant warm or throws the
  /// activation failure. Callers retry the fast path afterwards.
  void ensure_warm(ClusterId id, TenantState& t);
  /// Builds/loads + registers the tenant on its cell. Runs on the one
  /// thread that won the wake race (t.waking set), without t.mu held.
  void activate(ClusterId id, TenantState& t);
  /// Mirrors TrainerRuntime's export path for trainer-less cells.
  void publish_snapshot(Cell& cell, ClusterId id, core::OrcoDcsSystem& sys);
  /// Demotes LRU victims until the warm set fits (skipping `except`).
  void admit(ClusterId id);
  bool evict_one(ClusterId except);
  /// Publish-hook target: image the snapshot, ship a delta to the
  /// follower, fold it into the follower's standby image.
  void replicate(std::size_t owner, ClusterId tenant,
                 const train::ModelSnapshot& snapshot);
  /// The cell holding `owner`'s standby images: the next one by index.
  Cell& follower_of(std::size_t owner) {
    return *cells_[(owner + 1) % cells_.size()];
  }
  void refresh_population_gauges();

  FleetConfig config_;
  ResidencyManager residency_;
  ColdStore cold_;
  std::vector<std::unique_ptr<Cell>> cells_;

  mutable common::SharedMutex tenants_mu_;
  std::unordered_map<ClusterId, std::unique_ptr<TenantState>> tenants_
      ORCO_GUARDED_BY(tenants_mu_);

  /// Publisher-side replication memory: last image shipped per tenant.
  common::Mutex repl_mu_;
  std::map<ClusterId, SnapshotImage> last_shipped_ ORCO_GUARDED_BY(repl_mu_);

  std::atomic<bool> accepting_{true};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> registered_{0};
  std::atomic<std::uint64_t> cold_wakes_{0};
  std::atomic<std::uint64_t> cold_builds_{0};
  std::atomic<std::uint64_t> wake_coalesced_{0};
  std::atomic<std::uint64_t> demotions_{0};
  std::atomic<std::uint64_t> demotion_aborts_{0};
  std::atomic<std::uint64_t> capacity_overrides_{0};
  std::atomic<std::uint64_t> deltas_shipped_{0};
  std::atomic<std::uint64_t> delta_bytes_{0};
  std::atomic<std::uint64_t> full_ships_{0};

  obs::Histogram cold_wake_hist_{2};
  obs::Histogram demote_hist_{1};
};

}  // namespace orco::fleet
