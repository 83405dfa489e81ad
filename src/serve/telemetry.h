// Serving telemetry: request counters, latency quantiles and batch-occupancy
// histograms, thread-safe for concurrent shard workers and submitters.
//
// Since PR 6 this is a typed facade over an obs::MetricsRegistry: every
// counter/histogram the serving path records lives in the registry as a
// named metric (so Prometheus/JSON export sees exactly what the reports
// print), and the hot path is lock-free — each record_* is a handful of
// relaxed atomics on sharded, cache-line-padded cells. The old design took
// one global mutex on EVERY per-request record; under 8 shard workers plus
// client threads that lock was the first thing TSan's contention profile
// surfaced. The mutex that remains (inside the registry, plus a
// shared_mutex over the tenant directory) is only taken on handle creation
// and snapshot/export.
//
// Latencies land in log-spaced microsecond buckets so record() is O(1) and
// memory stays constant under million-request loads; quantiles are
// interpolated inside the winning bucket (a few percent of resolution,
// plenty for p50/p95/p99 reporting). The bucket math is shared with
// obs::Histogram (obs/metrics.h) — both sides are bitwise-identical for the
// same samples.
//
// Counters exist at two grains: the runtime-wide totals (the PR-1 snapshot)
// and per-tenant rows keyed on ClusterId — submitted/shed/rejected counts
// plus a full latency histogram per tenant, so QoS policies are observable
// (a high-priority tenant's p99 vs a low-priority one's under overload).
// PR 6 adds a third grain: per-tenant per-STAGE accounting (queue wait,
// batch assembly, decode, respond) so a latency regression can be localized
// to the pipeline stage that grew.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/table.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/request.h"

namespace orco::serve {

/// Single-writer log-bucketed histogram (the obs::Histogram bucket layout
/// without the sharding/atomics). Kept for callers that aggregate privately
/// — bench percentile tracks, tests — and as the reference implementation
/// the sharded cells are pinned against.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(double us);
  /// Element-wise accumulate of another histogram (bucket counts, count,
  /// sum, max) — merging per-worker locals into one distribution.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double mean_us() const;
  double max_us() const noexcept { return max_us_; }
  /// q in [0, 1]; returns an interpolated bucket position in microseconds.
  double quantile(double q) const;

  /// The canonical bucket index for a microsecond value (quarter-powers of
  /// two; see obs::hist_bucket_for).
  static std::size_t bucket_for(double us) { return obs::hist_bucket_for(us); }

 private:
  std::vector<std::uint64_t> buckets_;  // bucket b covers [2^(b/4), 2^((b+1)/4)) us
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
  double max_us_ = 0.0;
};

struct TelemetrySnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;  // kUnknownCluster/kBadRequest/kShutdown/kInternalError
  std::uint64_t batches = 0;
  double mean_batch_occupancy = 0.0;
  std::size_t max_batch_occupancy = 0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  double mean_latency_us = 0.0, max_latency_us = 0.0;

  /// Completed requests per second over `elapsed_s` of wall time.
  double throughput_rps(double elapsed_s) const {
    return elapsed_s > 0.0 ? static_cast<double>(completed) / elapsed_s : 0.0;
  }
};

/// One tenant's view of the counters.
struct TenantSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  /// Decoder generation that served the tenant's most recent batch (0 when
  /// nothing has been served yet) and how many version changes this
  /// tenant's shard has observed — i.e. hot swaps that actually reached the
  /// serve path.
  std::uint64_t model_version = 0;
  std::uint64_t model_swaps = 0;
  /// Age of the serving snapshot when it last served (us since its
  /// publish): the model-staleness gauge for the online-fine-tuning loop.
  /// 0 on the legacy direct path (the live model is never stale).
  double model_staleness_us = 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  double mean_latency_us = 0.0, max_latency_us = 0.0;
};

class Telemetry {
 public:
  /// The serve-pipeline stages the per-tenant breakdown accounts.
  enum class Stage : std::size_t {
    kQueueWait = 0,  // submit enqueue -> batch pop
    kAssembly,       // shape validation + latent stacking/dequantization
    kDecode,         // decoder inference
    kRespond,        // row copy + promise fulfilment
  };
  static constexpr std::size_t kStageCount = 4;

  /// One stage's accumulated totals for a tenant.
  struct StageSnapshot {
    std::uint64_t us = 0;        // total stage time
    std::uint64_t requests = 0;  // requests that time was spent on

    double mean_us() const {
      return requests > 0
                 ? static_cast<double>(us) / static_cast<double>(requests)
                 : 0.0;
    }
  };

  /// `per_tenant` false drops the per-tenant grain entirely: record_*
  /// overloads taking a ClusterId update only the runtime-wide series and
  /// never allocate a tenant row. A fleet cell fronting ~100k registered
  /// tenants would otherwise pin ~8KB of cells per tenant forever.
  explicit Telemetry(bool per_tenant = true);

  // Runtime-wide counters (kept for callers that have no tenant in hand).
  void record_submitted();
  void record_shed();
  void record_rejected();
  /// One served batch of `occupancy` coalesced requests.
  void record_batch(std::size_t occupancy);
  /// One request answered kOk after `latency_us`.
  void record_completed(double latency_us);

  // Per-tenant variants: update the tenant's row AND the runtime totals.
  void record_submitted(ClusterId cluster);
  void record_shed(ClusterId cluster);
  void record_rejected(ClusterId cluster);
  void record_completed(ClusterId cluster, double latency_us);
  /// Called once per served batch with the decoder generation that served
  /// it and the snapshot's age (0 for the live, non-snapshot path). Version
  /// changes increment the tenant's swap counter.
  void record_model_version(ClusterId cluster, std::uint64_t version,
                            double staleness_us);
  /// Accounts `stage_us` of `stage` time spent on `requests` requests of
  /// `cluster`. Batch-scoped stages (assembly/decode/respond) record the
  /// batch duration once with requests = batch occupancy; queue wait is
  /// per-request.
  void record_stage(ClusterId cluster, Stage stage, double stage_us,
                    std::uint64_t requests = 1);

  TelemetrySnapshot snapshot() const;
  TenantSnapshot tenant_snapshot(ClusterId cluster) const;
  std::map<ClusterId, TenantSnapshot> tenant_snapshots() const;
  /// Per-stage totals for one tenant, indexed by Stage.
  std::array<StageSnapshot, kStageCount> stage_snapshot(
      ClusterId cluster) const;

  /// Renders the snapshot as the repo-standard aligned table; pass wall
  /// time to get a throughput row.
  common::Table report(double elapsed_s) const;
  /// One row per tenant: cluster | submitted | completed | shed | rejected |
  /// p50 us | p99 us | model ver | swaps | staleness ms.
  common::Table tenant_report() const;
  /// Per-tenant stage breakdown: mean us/request spent in each pipeline
  /// stage (cluster | queue wait us | assembly us | decode us | respond us
  /// | accounted us).
  common::Table stage_report() const;

  /// The backing registry — for Prometheus/JSON export and for registering
  /// adjacent metrics under the same scrape.
  obs::MetricsRegistry& registry() noexcept { return registry_; }
  const obs::MetricsRegistry& registry() const noexcept { return registry_; }

 private:
  /// Handles for one tenant's metrics. Counter/histogram writes go through
  /// registry cells; model-version fields are single-writer (the tenant's
  /// shard worker) and read with relaxed loads by snapshots.
  struct TenantCells {
    obs::Counter* submitted;
    obs::Counter* shed;
    obs::Counter* rejected;
    obs::Histogram* latency;  // 1 cell: one shard worker records per tenant
    obs::Counter* stage_us[kStageCount];
    obs::Counter* stage_requests[kStageCount];
    std::atomic<std::uint64_t> model_version{0};
    std::atomic<std::uint64_t> model_swaps{0};
    std::atomic<double> model_staleness_us{0.0};
  };

  static TenantSnapshot snapshot_of(const TenantCells& cells);
  /// Shared-locks for the (overwhelmingly common) existing-tenant lookup,
  /// upgrades to a unique lock only to create a new tenant's row.
  TenantCells& tenant_cells(ClusterId cluster);
  const TenantCells* find_tenant(ClusterId cluster) const;

  obs::MetricsRegistry registry_;
  const bool per_tenant_;

  // Runtime-wide handles, resolved once at construction.
  obs::Counter* submitted_;
  obs::Counter* shed_;
  obs::Counter* rejected_;
  obs::Counter* batches_;
  obs::Counter* batch_requests_;
  obs::Gauge* max_occupancy_;
  obs::Histogram* latency_;

  /// Guards the tenant *directory* only, never the cells: record paths
  /// take it shared for the lookup and write through lock-free registry
  /// cells; only first-seen tenant creation upgrades to exclusive.
  mutable common::SharedMutex tenants_mu_;
  std::map<ClusterId, std::unique_ptr<TenantCells>> tenants_
      ORCO_GUARDED_BY(tenants_mu_);
};

}  // namespace orco::serve
