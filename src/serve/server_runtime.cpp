#include "serve/server_runtime.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "tensor/backend.h"

namespace orco::serve {

ServerRuntime::ServerRuntime(const ServeConfig& config)
    : config_(config),
      telemetry_(config.per_tenant_telemetry),
      pool_(std::max<std::size_t>(1, config.shard_count)) {
  ORCO_CHECK(config.shard_count > 0, "ServerRuntime needs at least one shard");
  const tensor::Backend* backend = tensor::resolve_backend(config.backend);
  shards_.reserve(config.shard_count);
  for (std::size_t i = 0; i < config.shard_count; ++i) {
    shards_.push_back(std::make_unique<ClusterShard>(
        i, config.queue, &telemetry_, backend, config.model_registry));
  }
}

ServerRuntime::~ServerRuntime() { shutdown(); }

void ServerRuntime::register_cluster(
    ClusterId cluster, std::shared_ptr<core::OrcoDcsSystem> system) {
  register_cluster(cluster, std::move(system),
                   config_.queue.default_policy);
}

void ServerRuntime::register_cluster(
    ClusterId cluster, std::shared_ptr<core::OrcoDcsSystem> system,
    const TenantPolicy& policy) {
  common::MutexLock lock(placement_mu_);
  // Checked here, not by the shard: placement would put a duplicate on a
  // shard that does not hold the id.
  const auto existing = placement_.find(cluster);
  ORCO_CHECK(existing == placement_.end(),
             "cluster " << cluster << " already registered on shard "
                        << existing->second);
  std::size_t target = 0;
  std::size_t fewest = shards_[0]->cluster_count();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    const std::size_t count = shards_[i]->cluster_count();
    if (count < fewest) {
      target = i;
      fewest = count;
    }
  }
  shards_[target]->add_cluster(cluster, std::move(system), policy);
  placement_.emplace(cluster, target);
}

bool ServerRuntime::unregister_cluster(ClusterId cluster) {
  common::MutexLock lock(placement_mu_);
  const auto it = placement_.find(cluster);
  if (it == placement_.end()) return false;
  ClusterShard& shard = *shards_[it->second];
  placement_.erase(it);
  shard.remove_cluster(cluster);
  // Reclaim the tenant's queue lane; a non-empty lane (caller didn't drain)
  // stays until the shard has answered its requests kUnknownCluster at pop,
  // and the shard erases it then.
  shard.queue().erase_lane(cluster);
  return true;
}

std::optional<std::size_t> ServerRuntime::shard_of(ClusterId cluster) const {
  common::MutexLock lock(placement_mu_);
  const auto it = placement_.find(cluster);
  if (it == placement_.end()) return std::nullopt;
  return it->second;
}

std::future<DecodeResponse> ServerRuntime::immediate_response(
    RequestId id, ResponseStatus status) {
  std::promise<DecodeResponse> promise;
  std::future<DecodeResponse> future = promise.get_future();
  DecodeResponse response;
  response.id = id;
  response.status = status;
  promise.set_value(std::move(response));
  return future;
}

std::future<DecodeResponse> ServerRuntime::submit(ClusterId cluster,
                                                  Tensor latent) {
  DecodeRequest request;
  request.cluster = cluster;
  request.latent = std::move(latent);
  return submit_request(std::move(request));
}

std::future<DecodeResponse> ServerRuntime::submit(
    ClusterId cluster, std::vector<std::uint8_t> payload,
    core::LatentPrecision precision) {
  DecodeRequest request;
  request.cluster = cluster;
  request.payload = std::move(payload);
  request.precision = precision;
  request.quantized = true;
  return submit_request(std::move(request));
}

std::future<DecodeResponse> ServerRuntime::submit_request(
    DecodeRequest request) {
  const ClusterId cluster = request.cluster;
  const RequestId id = next_request_id_.fetch_add(1);
  if (!accepting_.load()) {
    telemetry_.record_submitted();
    telemetry_.record_rejected();
    return immediate_response(id, ResponseStatus::kShutdown);
  }
  const std::optional<std::size_t> home = shard_of(cluster);
  if (!home.has_value()) {
    // Answer unregistered ids up front: they must not allocate queue lanes
    // or per-tenant telemetry rows (both live for the runtime's lifetime),
    // and must not carry the default policy's power to evict registered
    // low-priority tenants' queued work. Counted in the global counters
    // only, so arbitrary bogus ids cannot grow memory.
    telemetry_.record_submitted();
    telemetry_.record_rejected();
    return immediate_response(id, ResponseStatus::kUnknownCluster);
  }
  telemetry_.record_submitted(cluster);
  ClusterShard& shard = *shards_[*home];

  PendingRequest pending;
  pending.request = std::move(request);
  pending.request.id = id;
  pending.request.enqueued_at = std::chrono::steady_clock::now();
  // Per-request sampling decision, made once here so the whole span tree
  // (queue wait through respond, recorded on the shard worker) is coherent.
  pending.request.traced = obs::TraceCollector::instance().should_sample();
  std::future<DecodeResponse> future = pending.promise.get_future();

  std::vector<PendingRequest> evicted;
  const PushResult result = shard.queue().push(std::move(pending), &evicted);
  // Queue-full admission may bump lower-priority pending work to make room;
  // answer each bumped request kShed before returning so its caller's
  // future resolves as promptly as a directly-shed one.
  for (auto& bumped : evicted) {
    telemetry_.record_shed(bumped.request.cluster);
    resolve_with_status(bumped, ResponseStatus::kShed);
  }
  switch (result) {
    case PushResult::kAccepted:
      return future;
    case PushResult::kShed: {
      telemetry_.record_shed(cluster);
      return immediate_response(id, ResponseStatus::kShed);
    }
    case PushResult::kClosed:
      telemetry_.record_rejected(cluster);
      return immediate_response(id, ResponseStatus::kShutdown);
  }
  return future;  // unreachable
}

bool ServerRuntime::export_observability() const {
  return obs::export_all(telemetry_.registry(), config_.obs_export);
}

void ServerRuntime::start_flusher() {
  if (!config_.obs_export.any() || config_.obs_export.flush_period_s <= 0.0) {
    return;
  }
  flusher_ = std::thread([this] {
    const auto period = std::chrono::duration<double>(
        config_.obs_export.flush_period_s);
    common::MutexLock lock(flush_mu_);
    while (!flush_stop_) {
      // Deadline-based so spurious wakeups don't stretch the period.
      const auto deadline = std::chrono::steady_clock::now() + period;
      while (!flush_stop_ && flush_cv_.wait_until(lock.native(), deadline) !=
                                 std::cv_status::timeout) {
      }
      if (flush_stop_) return;  // final export happens on the shutdown path
      export_observability();
    }
  });
}

void ServerRuntime::stop_flusher() {
  {
    common::MutexLock lock(flush_mu_);
    flush_stop_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void ServerRuntime::start() {
  ORCO_CHECK(!stopped_.load(), "cannot restart a shut-down ServerRuntime");
  if (running_.exchange(true)) return;
  workers_.reserve(shards_.size());
  for (auto& shard : shards_) {
    ClusterShard* s = shard.get();
    workers_.push_back(pool_.submit([s] {
      // The shards already hold the cores: keep this shard's GEMMs inline.
      tensor::set_thread_gemm_parallelism(false);
      s->run();
    }));
  }
  start_flusher();
}

void ServerRuntime::shutdown() {
  if (stopped_.exchange(true)) return;
  accepting_.store(false);
  for (auto& shard : shards_) shard->queue().close();
  if (running_.load()) {
    // Join every worker even if one died; shutdown() must not throw (it
    // runs from the destructor).
    for (auto& worker : workers_) {
      try {
        worker.get();
      } catch (const std::exception& e) {
        ORCO_LOG_ERROR("serve shard worker died: " << e.what());
      }
    }
    workers_.clear();
    running_.store(false);
  } else {
    // Never started: drain queues inline so every accepted future resolves.
    for (auto& shard : shards_) shard->run();
  }
  stop_flusher();
  // The authoritative dump: the workers' futures have resolved, so their
  // trace rings are quiescent and the counters are final.
  if (config_.obs_export.any()) export_observability();
}

}  // namespace orco::serve
