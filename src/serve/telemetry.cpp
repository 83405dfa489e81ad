#include "serve/telemetry.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/config.h"

namespace orco::serve {

LatencyHistogram::LatencyHistogram() : buckets_(obs::kHistBucketCount, 0) {}

void LatencyHistogram::record(double us) {
  us = std::max(0.0, us);
  buckets_[bucket_for(us)]++;
  ++count_;
  sum_us_ += us;
  max_us_ = std::max(max_us_, us);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_us_ += other.sum_us_;
  max_us_ = std::max(max_us_, other.max_us_);
}

double LatencyHistogram::mean_us() const {
  return count_ > 0 ? sum_us_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::quantile(double q) const {
  return obs::hist_quantile(buckets_.data(), buckets_.size(), count_, max_us_,
                            q);
}

namespace {

constexpr const char* kStageNames[Telemetry::kStageCount] = {
    "queue_wait", "assembly", "decode", "respond"};

obs::Labels tenant_labels(ClusterId cluster) {
  return {{"tenant", std::to_string(cluster)}};
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

Telemetry::TenantCells& Telemetry::tenant_cells(ClusterId cluster) {
  {
    common::ReaderMutexLock lock(tenants_mu_);
    const auto it = tenants_.find(cluster);
    if (it != tenants_.end()) return *it->second;
  }
  common::WriterMutexLock lock(tenants_mu_);
  auto& slot = tenants_[cluster];
  if (slot == nullptr) {
    const obs::Labels labels = tenant_labels(cluster);
    auto cells = std::make_unique<TenantCells>();
    cells->submitted = registry_.counter("serve.tenant.submitted", labels);
    cells->shed = registry_.counter("serve.tenant.shed", labels);
    cells->rejected = registry_.counter("serve.tenant.rejected", labels);
    cells->latency =
        registry_.histogram("serve.tenant.latency_us", labels, /*cells=*/1);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      cells->stage_us[s] = registry_.counter(
          std::string("serve.stage.") + kStageNames[s] + "_us", labels);
      cells->stage_requests[s] = registry_.counter(
          std::string("serve.stage.") + kStageNames[s] + "_requests", labels);
    }
    slot = std::move(cells);
  }
  return *slot;
}

const Telemetry::TenantCells* Telemetry::find_tenant(ClusterId cluster) const {
  common::ReaderMutexLock lock(tenants_mu_);
  const auto it = tenants_.find(cluster);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void Telemetry::record_submitted() {
  if (!obs::metrics_enabled()) return;
  submitted_->inc();
}

void Telemetry::record_shed() {
  if (!obs::metrics_enabled()) return;
  shed_->inc();
}

void Telemetry::record_rejected() {
  if (!obs::metrics_enabled()) return;
  rejected_->inc();
}

void Telemetry::record_batch(std::size_t occupancy) {
  if (!obs::metrics_enabled()) return;
  batches_->inc();
  batch_requests_->inc(occupancy);
  max_occupancy_->max_of(static_cast<double>(occupancy));
}

void Telemetry::record_completed(double latency_us) {
  if (!obs::metrics_enabled()) return;
  latency_->record(latency_us);
}

void Telemetry::record_submitted(ClusterId cluster) {
  if (!obs::metrics_enabled()) return;
  submitted_->inc();
  if (per_tenant_) tenant_cells(cluster).submitted->inc();
}

void Telemetry::record_shed(ClusterId cluster) {
  if (!obs::metrics_enabled()) return;
  shed_->inc();
  if (per_tenant_) tenant_cells(cluster).shed->inc();
}

void Telemetry::record_rejected(ClusterId cluster) {
  if (!obs::metrics_enabled()) return;
  rejected_->inc();
  if (per_tenant_) tenant_cells(cluster).rejected->inc();
}

void Telemetry::record_completed(ClusterId cluster, double latency_us) {
  if (!obs::metrics_enabled()) return;
  latency_->record(latency_us);
  if (per_tenant_) tenant_cells(cluster).latency->record(latency_us);
}

void Telemetry::record_model_version(ClusterId cluster, std::uint64_t version,
                                     double staleness_us) {
  if (!obs::metrics_enabled() || !per_tenant_) return;
  TenantCells& cells = tenant_cells(cluster);
  // Single writer per tenant (its shard worker): the load-compare-store is
  // not a race, only the snapshot readers are concurrent.
  const std::uint64_t prev =
      cells.model_version.load(std::memory_order_relaxed);
  if (prev != 0 && prev != version) {
    cells.model_swaps.fetch_add(1, std::memory_order_relaxed);
  }
  cells.model_version.store(version, std::memory_order_relaxed);
  cells.model_staleness_us.store(staleness_us, std::memory_order_relaxed);
}

void Telemetry::record_stage(ClusterId cluster, Stage stage, double stage_us,
                             std::uint64_t requests) {
  if (!obs::metrics_enabled() || !per_tenant_) return;
  TenantCells& cells = tenant_cells(cluster);
  const std::size_t s = static_cast<std::size_t>(stage);
  cells.stage_us[s]->inc(
      static_cast<std::uint64_t>(std::llround(std::max(0.0, stage_us))));
  cells.stage_requests[s]->inc(requests);
}

TenantSnapshot Telemetry::snapshot_of(const TenantCells& cells) {
  TenantSnapshot s;
  const obs::HistogramSnapshot latency = cells.latency->snapshot();
  s.submitted = cells.submitted->value();
  s.completed = latency.count;
  s.shed = cells.shed->value();
  s.rejected = cells.rejected->value();
  s.model_version = cells.model_version.load(std::memory_order_relaxed);
  s.model_swaps = cells.model_swaps.load(std::memory_order_relaxed);
  s.model_staleness_us =
      cells.model_staleness_us.load(std::memory_order_relaxed);
  s.p50_us = latency.quantile(0.50);
  s.p99_us = latency.quantile(0.99);
  s.mean_latency_us = latency.mean_us();
  s.max_latency_us = latency.max_us;
  return s;
}

TenantSnapshot Telemetry::tenant_snapshot(ClusterId cluster) const {
  const TenantCells* cells = find_tenant(cluster);
  return cells == nullptr ? TenantSnapshot{} : snapshot_of(*cells);
}

std::map<ClusterId, TenantSnapshot> Telemetry::tenant_snapshots() const {
  common::ReaderMutexLock lock(tenants_mu_);
  std::map<ClusterId, TenantSnapshot> out;
  for (const auto& [cluster, cells] : tenants_) {
    out.emplace(cluster, snapshot_of(*cells));
  }
  return out;
}

std::array<Telemetry::StageSnapshot, Telemetry::kStageCount>
Telemetry::stage_snapshot(ClusterId cluster) const {
  std::array<StageSnapshot, kStageCount> out{};
  const TenantCells* cells = find_tenant(cluster);
  if (cells == nullptr) return out;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    out[s].us = cells->stage_us[s]->value();
    out[s].requests = cells->stage_requests[s]->value();
  }
  return out;
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
  std::vector<ClusterId> clusters;
  {
    common::ReaderMutexLock lock(tenants_mu_);
    clusters.reserve(tenants_.size());
    for (const auto& [cluster, cells] : tenants_) clusters.push_back(cluster);
  }
  for (const ClusterId cluster : clusters) {
    const auto stages = stage_snapshot(cluster);
    double accounted = 0.0;
    std::vector<std::string> row{std::to_string(cluster)};
    for (const StageSnapshot& s : stages) {
      accounted += s.mean_us();
      row.push_back(common::Table::num(s.mean_us(), 1));
    }
    row.push_back(common::Table::num(accounted, 1));
    t.add_row(std::move(row));
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
