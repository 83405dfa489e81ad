// ModelRegistry — versioned, immutable model snapshots with atomic hot-swap.
//
// The serve-while-retraining loop needs two worlds that never block each
// other: shard workers decoding at full rate, and trainer threads mutating
// decoder weights. The registry is the handoff point. A ModelSnapshot is an
// immutable (encoder, decoder) pair stamped with the EdgeServer's
// monotonically increasing model version; publishing replaces one
// mutex-guarded shared_ptr slot per tenant, so a shard picks up the new
// model between batches by copying the slot out under its lock once per
// batch — never for the decode itself — and a batch already in flight
// keeps its snapshot alive (and coherent) through its own shared_ptr until
// the fan-out completes.
//
// Layering: this header depends on nn/ only, so serve/ can hold registry
// entries while train/'s TrainerRuntime (which depends on core/ and serve/)
// produces them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "nn/infer_plan.h"
#include "nn/sequential.h"

namespace orco::train {

/// Same id space as serve::ClusterId (both are the tenant's cluster id).
using ClusterId = std::uint64_t;

/// One immutable model generation. The decoder (and optional encoder — the
/// §III-C broadcast package a client refreshes after a swap) must never be
/// mutated after publication: shard workers run the snapshot's plan over
/// them concurrently with later generations being trained.
struct ModelSnapshot {
  std::uint64_t version = 0;  // EdgeServer::model_version() at export time
  std::shared_ptr<const nn::Sequential> decoder;
  std::shared_ptr<const nn::Sequential> encoder;  // may be null
  std::size_t latent_dim = 0;
  std::size_t output_dim = 0;
  /// Compiled-once inference plan over `decoder` — the executor every
  /// shard pinning this snapshot runs, on the backend it was compiled for
  /// (see nn/infer_plan.h). Publishers may pre-compile and warm it
  /// (TrainerRuntime does); ModelRegistry::publish compiles it under the
  /// publisher's current backend when absent, so a published snapshot
  /// always carries one. Immutable and shared like the snapshot.
  std::shared_ptr<const nn::InferPlan> plan;
  std::chrono::steady_clock::time_point published_at;

  /// Age of this snapshot (how stale the served model is) in microseconds.
  double age_us(std::chrono::steady_clock::time_point now) const {
    return std::chrono::duration<double, std::micro>(now - published_at)
        .count();
  }
};

class ModelRegistry {
 public:
  /// One tenant's swap slot. A shard grabs the shared Entry at tenant
  /// registration and copies the snapshot out once per batch; remove()
  /// (the fleet's demotion path) only drops the registry's reference —
  /// holders keep the slot alive until their batch completes.
  ///
  /// The slot is a shared_ptr under a per-entry mutex rather than a
  /// std::atomic<std::shared_ptr>: libstdc++ 12's atomic load releases its
  /// internal lock with a relaxed store, which ThreadSanitizer reports as a
  /// race against the publisher's store.
  class Entry {
   public:
    std::shared_ptr<const ModelSnapshot> load() const ORCO_EXCLUDES(mu_) {
      common::MutexLock lock(mu_);
      return snapshot_;
    }
    std::uint64_t swap_count() const noexcept {
      return swaps_.load(std::memory_order_relaxed);
    }

   private:
    friend class ModelRegistry;
    void store(std::shared_ptr<const ModelSnapshot> snapshot)
        ORCO_EXCLUDES(mu_) {
      {
        common::MutexLock lock(mu_);
        snapshot_.swap(snapshot);
      }
      // `snapshot` now holds the previous generation and is released here,
      // outside the lock: freeing it never stalls a shard's load().
    }

    mutable common::Mutex mu_;
    std::shared_ptr<const ModelSnapshot> snapshot_ ORCO_GUARDED_BY(mu_);
    std::atomic<std::uint64_t> swaps_{0};
  };

  /// Get-or-create the tenant's swap slot (empty until the first publish).
  std::shared_ptr<Entry> entry(ClusterId cluster);

  /// Lookup without creating; null when the tenant was never seen.
  std::shared_ptr<Entry> find(ClusterId cluster) const;

  /// Latest snapshot for the tenant, or null before the first publish.
  std::shared_ptr<const ModelSnapshot> current(ClusterId cluster) const;

  /// Atomically installs `snapshot` as the tenant's serving model. Versions
  /// must be strictly increasing per tenant (they mirror the tenant
  /// EdgeServer's train-step counter); a stale or duplicate version throws
  /// and leaves the current snapshot in place. `published_at` is stamped
  /// here. Returns the published version.
  std::uint64_t publish(ClusterId cluster,
                        std::shared_ptr<ModelSnapshot> snapshot);

  /// Drops the tenant's swap slot (the fleet's cold-tier demotion).
  /// Outstanding Entry shared_ptrs stay valid — a shard's in-flight batch
  /// finishes on its pinned snapshot — but a re-registered tenant starts
  /// from a fresh slot, so its first publish after reactivation only has
  /// to beat the version persisted in its cold record, not whatever the
  /// dead slot last held. Returns false when the tenant was never seen.
  bool remove(ClusterId cluster);

  /// Called after every successful publish — outside the registry lock, on
  /// the publishing thread — with the tenant and the installed snapshot.
  /// The fleet hangs its delta-replication fan-out here. One hook per
  /// registry; replace with nullptr to clear. Hooks must not publish back
  /// into this registry for the same tenant (infinite recursion).
  using PublishHook =
      std::function<void(ClusterId, const std::shared_ptr<const ModelSnapshot>&)>;
  void set_publish_hook(PublishHook hook);

  std::size_t size() const;
  /// Total snapshots published across all tenants.
  std::uint64_t total_published() const noexcept {
    return total_published_.load(std::memory_order_relaxed);
  }

 private:
  /// Guards the map and serializes publishers; shards read a tenant's slot
  /// under its own entry lock, never under this one.
  mutable common::Mutex mu_;
  std::map<ClusterId, std::shared_ptr<Entry>> entries_ ORCO_GUARDED_BY(mu_);
  PublishHook publish_hook_ ORCO_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> total_published_{0};
};

}  // namespace orco::train
