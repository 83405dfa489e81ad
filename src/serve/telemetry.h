// Serving telemetry: request counters, latency quantiles and batch-occupancy
// histograms, thread-safe for concurrent shard workers and submitters.
//
// A typed facade over an obs::MetricsRegistry: every counter/histogram the
// serving path records lives in the registry as a named metric, so
// Prometheus/JSON export sees exactly what the reports print. Latencies use
// obs::Histogram's log-spaced microsecond buckets, so a record is O(1) and
// memory stays constant under million-request loads.
//
// Counters exist at three grains: runtime-wide totals; per-tenant rows
// keyed on ClusterId (submitted/shed/rejected counts, a latency histogram
// and the serving model version); and, in the same row, per-STAGE
// accounting (queue wait, batch assembly, decode, respond) so a latency
// regression can be localized to the pipeline stage that grew.
//
// The row contract. tenant(cluster) hands out the tenant's row, creating it
// on the first call; that lookup is the only lock on the record path, and a
// caller takes it once per submit and once per served batch. Every record_*
// then takes the row, which may be null: a row records the runtime series
// and the row; null records the runtime series only (unknown ids, shutdown
// answers, rows turned off). The record bodies are relaxed atomics on the
// registry's cells, no lock and no allocation (an ORCO_HOT_PATH region that
// tools/check_invariants.py checks). Rows live as long as the Telemetry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/table.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/request.h"

namespace orco::serve {

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

  /// One tenant's registry handles (defined in telemetry.cpp); callers only
  /// hold the pointer tenant() returns and pass it back to record_*.
  struct TenantRow;

  /// `per_tenant` false drops the per-tenant grain entirely: tenant()
  /// returns null, so records land in the runtime-wide series only and no
  /// row is ever allocated. A fleet cell fronting ~100k registered tenants
  /// would otherwise pin ~8KB of cells per tenant forever.
  explicit Telemetry(bool per_tenant = true);
  ~Telemetry();

  /// The tenant's row, created on the first call. Null when per-tenant rows
  /// are off or metrics are disabled, so neither case creates a row.
  TenantRow* tenant(ClusterId cluster);

  void record_submitted(TenantRow* row);
  void record_shed(TenantRow* row);
  void record_rejected(TenantRow* row);
  /// One served batch of `occupancy` coalesced requests.
  void record_batch(std::size_t occupancy);
  /// One request answered kOk after `latency_us`.
  void record_completed(TenantRow* row, double latency_us);
  /// Called once per served batch with the decoder generation that served
  /// it and the snapshot's age (0 for the live, non-snapshot path). Version
  /// changes increment the tenant's swap counter. Row-only: a no-op on null.
  void record_model_version(TenantRow* row, std::uint64_t version,
                            double staleness_us);
  /// Accounts `stage_us` of `stage` time spent on `requests` requests.
  /// Batch-scoped stages (assembly/decode/respond) record the batch
  /// duration once with requests = batch occupancy; queue wait is
  /// per-request. Row-only: a no-op on null.
  void record_stage(TenantRow* row, Stage stage, double stage_us,
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
  /// The row of `cluster`, or null when it has none.
  const TenantRow* find_row(ClusterId cluster) const;
  /// Every row in cluster order, copied out of the directory.
  std::vector<std::pair<ClusterId, const TenantRow*>> rows() const;

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

  /// Guards the tenant directory only, never the rows it points to.
  mutable common::Mutex tenants_mu_;
  std::map<ClusterId, std::unique_ptr<TenantRow>> tenants_
      ORCO_GUARDED_BY(tenants_mu_);
};

}  // namespace orco::serve
