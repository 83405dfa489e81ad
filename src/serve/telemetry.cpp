#include "serve/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "obs/config.h"

namespace orco::serve {

/// Handles for one tenant's metrics. Counter/histogram writes go through
/// registry cells; model-version fields are single-writer (the tenant's
/// shard worker) and read with relaxed loads by snapshots.
struct Telemetry::TenantRow {
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

namespace {

constexpr const char* kStageNames[Telemetry::kStageCount] = {
    "queue_wait", "assembly", "decode", "respond"};

TenantSnapshot snapshot_of(const Telemetry::TenantRow& row) {
  TenantSnapshot s;
  const obs::HistogramSnapshot latency = row.latency->snapshot();
  s.submitted = row.submitted->value();
  s.completed = latency.count;
  s.shed = row.shed->value();
  s.rejected = row.rejected->value();
  s.model_version = row.model_version.load(std::memory_order_relaxed);
  s.model_swaps = row.model_swaps.load(std::memory_order_relaxed);
  s.model_staleness_us =
      row.model_staleness_us.load(std::memory_order_relaxed);
  s.p50_us = latency.quantile(0.50);
  s.p99_us = latency.quantile(0.99);
  s.mean_latency_us = latency.mean_us();
  s.max_latency_us = latency.max_us;
  return s;
}

std::array<Telemetry::StageSnapshot, Telemetry::kStageCount> stages_of(
    const Telemetry::TenantRow& row) {
  std::array<Telemetry::StageSnapshot, Telemetry::kStageCount> out{};
  for (std::size_t s = 0; s < Telemetry::kStageCount; ++s) {
    out[s].us = row.stage_us[s]->value();
    out[s].requests = row.stage_requests[s]->value();
  }
  return out;
}

}  // namespace

Telemetry::Telemetry(bool per_tenant)
    : per_tenant_(per_tenant),
      submitted_(registry_.counter("serve.submitted")),
      shed_(registry_.counter("serve.shed")),
      rejected_(registry_.counter("serve.rejected")),
      batches_(registry_.counter("serve.batches")),
      batch_requests_(registry_.counter("serve.batch_requests")),
      max_occupancy_(registry_.gauge("serve.max_batch_occupancy")),
      latency_(registry_.histogram("serve.latency_us")) {}

Telemetry::~Telemetry() = default;

Telemetry::TenantRow* Telemetry::tenant(ClusterId cluster) {
  if (!per_tenant_ || !obs::metrics_enabled()) return nullptr;
  common::MutexLock lock(tenants_mu_);
  const auto it = tenants_.find(cluster);
  if (it != tenants_.end()) return it->second.get();
  const obs::Labels labels = {{"tenant", std::to_string(cluster)}};
  auto row = std::make_unique<TenantRow>();
  row->submitted = registry_.counter("serve.tenant.submitted", labels);
  row->shed = registry_.counter("serve.tenant.shed", labels);
  row->rejected = registry_.counter("serve.tenant.rejected", labels);
  row->latency =
      registry_.histogram("serve.tenant.latency_us", labels, /*cells=*/1);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    row->stage_us[s] = registry_.counter(
        std::string("serve.stage.") + kStageNames[s] + "_us", labels);
    row->stage_requests[s] = registry_.counter(
        std::string("serve.stage.") + kStageNames[s] + "_requests", labels);
  }
  // Inserted only once complete: a throw above leaves no half-built row
  // for the snapshot walks to find.
  return tenants_.emplace(cluster, std::move(row)).first->second.get();
}

const Telemetry::TenantRow* Telemetry::find_row(ClusterId cluster) const {
  common::MutexLock lock(tenants_mu_);
  const auto it = tenants_.find(cluster);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<ClusterId, const Telemetry::TenantRow*>>
Telemetry::rows() const {
  common::MutexLock lock(tenants_mu_);
  std::vector<std::pair<ClusterId, const TenantRow*>> out;
  out.reserve(tenants_.size());
  for (const auto& [cluster, row] : tenants_) {
    out.emplace_back(cluster, row.get());
  }
  return out;
}

// ORCO_HOT_PATH BEGIN
// The record path: relaxed atomics on registry cells through handles the
// caller resolved with tenant() — no lock, no allocation.
void Telemetry::record_submitted(TenantRow* row) {
  if (!obs::metrics_enabled()) return;
  submitted_->inc();
  if (row != nullptr) row->submitted->inc();
}

void Telemetry::record_shed(TenantRow* row) {
  if (!obs::metrics_enabled()) return;
  shed_->inc();
  if (row != nullptr) row->shed->inc();
}

void Telemetry::record_rejected(TenantRow* row) {
  if (!obs::metrics_enabled()) return;
  rejected_->inc();
  if (row != nullptr) row->rejected->inc();
}

void Telemetry::record_batch(std::size_t occupancy) {
  if (!obs::metrics_enabled()) return;
  batches_->inc();
  batch_requests_->inc(occupancy);
  max_occupancy_->max_of(static_cast<double>(occupancy));
}

void Telemetry::record_completed(TenantRow* row, double latency_us) {
  if (!obs::metrics_enabled()) return;
  latency_->record(latency_us);
  if (row != nullptr) row->latency->record(latency_us);
}

void Telemetry::record_model_version(TenantRow* row, std::uint64_t version,
                                     double staleness_us) {
  if (row == nullptr || !obs::metrics_enabled()) return;
  // Single writer per tenant (its shard worker): the load-compare-store is
  // not a race, only the snapshot readers are concurrent.
  const std::uint64_t prev =
      row->model_version.load(std::memory_order_relaxed);
  if (prev != 0 && prev != version) {
    row->model_swaps.fetch_add(1, std::memory_order_relaxed);
  }
  row->model_version.store(version, std::memory_order_relaxed);
  row->model_staleness_us.store(staleness_us, std::memory_order_relaxed);
}

void Telemetry::record_stage(TenantRow* row, Stage stage, double stage_us,
                             std::uint64_t requests) {
  if (row == nullptr || !obs::metrics_enabled()) return;
  const std::size_t s = static_cast<std::size_t>(stage);
  row->stage_us[s]->inc(
      static_cast<std::uint64_t>(std::llround(std::max(0.0, stage_us))));
  row->stage_requests[s]->inc(requests);
}
// ORCO_HOT_PATH END

TenantSnapshot Telemetry::tenant_snapshot(ClusterId cluster) const {
  const TenantRow* row = find_row(cluster);
  return row == nullptr ? TenantSnapshot{} : snapshot_of(*row);
}

std::map<ClusterId, TenantSnapshot> Telemetry::tenant_snapshots() const {
  std::map<ClusterId, TenantSnapshot> out;
  for (const auto& [cluster, row] : rows()) {
    out.emplace(cluster, snapshot_of(*row));
  }
  return out;
}

std::array<Telemetry::StageSnapshot, Telemetry::kStageCount>
Telemetry::stage_snapshot(ClusterId cluster) const {
  const TenantRow* row = find_row(cluster);
  return row == nullptr ? std::array<StageSnapshot, kStageCount>{}
                        : stages_of(*row);
}

common::Table Telemetry::tenant_report() const {
  const auto snapshots = tenant_snapshots();
  common::Table t({"cluster", "submitted", "completed", "shed", "rejected",
                   "p50 us", "p99 us", "model ver", "swaps", "staleness ms"});
  for (const auto& [cluster, s] : snapshots) {
    t.add_row({std::to_string(cluster), std::to_string(s.submitted),
               std::to_string(s.completed), std::to_string(s.shed),
               std::to_string(s.rejected), common::Table::num(s.p50_us, 1),
               common::Table::num(s.p99_us, 1),
               std::to_string(s.model_version), std::to_string(s.model_swaps),
               common::Table::num(s.model_staleness_us / 1000.0, 1)});
  }
  return t;
}

common::Table Telemetry::stage_report() const {
  common::Table t({"cluster", "queue wait us", "assembly us", "decode us",
                   "respond us", "accounted us"});
  for (const auto& [cluster, row] : rows()) {
    double accounted = 0.0;
    std::vector<std::string> cells{std::to_string(cluster)};
    for (const StageSnapshot& s : stages_of(*row)) {
      accounted += s.mean_us();
      cells.push_back(common::Table::num(s.mean_us(), 1));
    }
    cells.push_back(common::Table::num(accounted, 1));
    t.add_row(std::move(cells));
  }
  return t;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot s;
  const obs::HistogramSnapshot latency = latency_->snapshot();
  s.submitted = submitted_->value();
  s.completed = latency.count;
  s.shed = shed_->value();
  s.rejected = rejected_->value();
  s.batches = batches_->value();
  const std::uint64_t batch_requests = batch_requests_->value();
  s.mean_batch_occupancy =
      s.batches > 0 ? static_cast<double>(batch_requests) /
                          static_cast<double>(s.batches)
                    : 0.0;
  s.max_batch_occupancy =
      static_cast<std::size_t>(max_occupancy_->value());
  s.p50_us = latency.quantile(0.50);
  s.p95_us = latency.quantile(0.95);
  s.p99_us = latency.quantile(0.99);
  s.mean_latency_us = latency.mean_us();
  s.max_latency_us = latency.max_us;
  return s;
}

common::Table Telemetry::report(double elapsed_s) const {
  const TelemetrySnapshot s = snapshot();
  common::Table t({"metric", "value"});
  t.add_row({"submitted", std::to_string(s.submitted)});
  t.add_row({"completed", std::to_string(s.completed)});
  t.add_row({"shed", std::to_string(s.shed)});
  t.add_row({"rejected", std::to_string(s.rejected)});
  t.add_row({"batches", std::to_string(s.batches)});
  t.add_row({"mean batch occupancy", common::Table::num(s.mean_batch_occupancy, 2)});
  t.add_row({"max batch occupancy", std::to_string(s.max_batch_occupancy)});
  t.add_row({"p50 latency (us)", common::Table::num(s.p50_us, 1)});
  t.add_row({"p95 latency (us)", common::Table::num(s.p95_us, 1)});
  t.add_row({"p99 latency (us)", common::Table::num(s.p99_us, 1)});
  t.add_row({"mean latency (us)", common::Table::num(s.mean_latency_us, 1)});
  if (elapsed_s > 0.0) {
    t.add_row({"throughput (req/s)",
               common::Table::num(s.throughput_rps(elapsed_s), 1)});
  }
  return t;
}

}  // namespace orco::serve
