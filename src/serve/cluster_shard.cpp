#include "serve/cluster_shard.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "core/quantization.h"
#include "common/logging.h"
#include "obs/config.h"
#include "obs/trace.h"

namespace orco::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

double between_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

void respond_error(PendingRequest& pending, ResponseStatus status,
                   std::string detail = {}) {
  DecodeResponse response;
  response.id = pending.request.id;
  response.status = status;
  response.detail = std::move(detail);
  response.latency_us = elapsed_us(pending.request.enqueued_at);
  pending.promise.set_value(std::move(response));
  pending.answered = true;
}

/// Scope guard over a batch: whatever unwinds out of serve_batch — an
/// allocation failure, a poisoned promise mid-fan-out — every request still
/// unanswered when the guard runs is answered kInternalError, so callers
/// never see a std::future_error broken_promise from the shard dropping a
/// batch.
class AnswerAllGuard {
 public:
  AnswerAllGuard(std::vector<PendingRequest>& batch, Telemetry& telemetry,
                 Telemetry::TenantRow* row)
      : batch_(batch), telemetry_(telemetry), row_(row) {}

  ~AnswerAllGuard() {
    for (auto& pending : batch_) {
      if (pending.answered) continue;
      try {
        respond_error(pending, ResponseStatus::kInternalError,
                      "serve_batch aborted");
        // Counted only after the answer lands: a promise consumed without
        // the flag being set (the set_value that threw mid-fan-out) was
        // already counted on its original path and must not be counted
        // twice.
        telemetry_.record_rejected(row_);
      } catch (const std::future_error&) {
        // Nothing left to answer.
      }
    }
  }

 private:
  std::vector<PendingRequest>& batch_;
  Telemetry& telemetry_;
  Telemetry::TenantRow* row_;
};

}  // namespace

ClusterShard::ClusterShard(std::size_t index,
                           const BatchQueueConfig& queue_config,
                           Telemetry* telemetry,
                           std::shared_ptr<train::ModelRegistry> registry)
    : index_(index),
      queue_(queue_config),
      telemetry_(telemetry),
      registry_(std::move(registry)) {
  ORCO_CHECK(telemetry != nullptr, "ClusterShard needs a telemetry registry");
}

void ClusterShard::add_cluster(ClusterId cluster,
                               std::shared_ptr<core::OrcoDcsSystem> system) {
  ORCO_CHECK(system != nullptr, "cannot register a null tenant system");
  auto entry = std::make_shared<TenantEntry>();
  entry->system = std::move(system);
  // The swap slot is grabbed once here; the serve path then copies the
  // snapshot out under the slot's mutex once per batch, never a registry
  // map lookup.
  if (registry_ != nullptr) entry->model = registry_->entry(cluster);
  common::MutexLock lock(tenants_mu_);
  ORCO_CHECK(tenants_.emplace(cluster, std::move(entry)).second,
             "cluster " << cluster << " already registered on shard "
                        << index_);
}

void ClusterShard::remove_cluster(ClusterId cluster) {
  common::MutexLock lock(tenants_mu_);
  // A worker mid-batch still holds its shared_ptr; erasing here only stops
  // future lookups. The entry (and the tenant system it pins) is destroyed
  // when the last holder lets go.
  tenants_.erase(cluster);
}

std::size_t ClusterShard::cluster_count() const {
  common::MutexLock lock(tenants_mu_);
  return tenants_.size();
}

std::shared_ptr<ClusterShard::TenantEntry> ClusterShard::find_cluster(
    ClusterId cluster) {
  common::MutexLock lock(tenants_mu_);
  const auto it = tenants_.find(cluster);
  return it == tenants_.end() ? nullptr : it->second;
}

void ClusterShard::run() {
  for (;;) {
    std::vector<PendingRequest> batch = queue_.pop_batch();
    if (batch.empty()) return;  // closed and drained
    try {
      serve_batch(std::move(batch));
    } catch (const std::exception& e) {
      // serve_batch's scope guard has already answered the affected batch
      // with kInternalError; anything escaping it (e.g. allocation failure)
      // must not kill the shard worker — it keeps serving.
      ORCO_LOG_ERROR("shard " << index_ << " dropped a batch: " << e.what());
    }
  }
}

void ClusterShard::serve_batch(std::vector<PendingRequest> batch) {
  if (batch.empty()) return;
  const ClusterId cluster = batch.front().request.cluster;
  // The tenant's telemetry row, resolved once: every record below is then
  // lock-free.
  Telemetry::TenantRow* const tenant_row = telemetry_->tenant(cluster);
  AnswerAllGuard guard(batch, *telemetry_, tenant_row);

  // Stage accounting + tracing. The sampling decision was made per request
  // at submit time; a batch is traced when any member is, so a traced
  // request always gets its full span tree. Queue wait (enqueue -> pop) is
  // recorded retroactively from the stamps the queue left on the requests.
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  const bool traced =
      obs::trace_enabled() &&
      std::any_of(batch.begin(), batch.end(), [](const PendingRequest& p) {
        return p.request.traced;
      });
  double queue_wait_total_us = 0.0;
  for (const PendingRequest& pending : batch) {
    const double wait_us = std::max(
        0.0, between_us(pending.request.enqueued_at, pending.popped_at));
    queue_wait_total_us += wait_us;
    if (traced && pending.request.traced) {
      tc.emit({"queue_wait", "serve",
               tc.to_trace_us(pending.request.enqueued_at),
               static_cast<std::int64_t>(wait_us), pending.request.id,
               cluster, 0});
    }
  }
  telemetry_->record_stage(tenant_row, Telemetry::Stage::kQueueWait,
                           queue_wait_total_us, batch.size());
  const auto assembly_start = std::chrono::steady_clock::now();

  const std::shared_ptr<TenantEntry> tenant = find_cluster(cluster);
  if (tenant == nullptr) {
    for (auto& pending : batch) {
      // Telemetry strictly before the promise resolves: a caller who sees
      // the future ready must also see the counters updated.
      telemetry_->record_rejected(tenant_row);
      respond_error(pending, ResponseStatus::kUnknownCluster);
    }
    // The tenant was unregistered before its lane drained, and may since
    // live on another shard: drop the lane here if it is empty (the next
    // push for the id opens a fresh one).
    queue_.erase_lane(cluster);
    return;
  }

  // Pin one coherent model generation for the whole batch: the snapshot's
  // shared_ptr keeps it alive through the fan-out even if the trainer
  // publishes a newer one mid-flight; requests popped after this batch see
  // the swap. Without a registry entry (or before its first publish), fall
  // back to the tenant's live EdgeServer.
  const std::shared_ptr<const train::ModelSnapshot> snapshot =
      tenant->model != nullptr ? tenant->model->load() : nullptr;
  const std::uint64_t version =
      snapshot != nullptr ? snapshot->version
                          : tenant->system->edge().model_version();
  const std::size_t latent_dim =
      snapshot != nullptr ? snapshot->latent_dim
                          : tenant->system->config().orco.latent_dim;
  const double staleness_us =
      snapshot != nullptr ? snapshot->age_us(std::chrono::steady_clock::now())
                          : 0.0;
  telemetry_->record_model_version(tenant_row, version, staleness_us);

  // Validate shapes up front; only well-formed requests join the decode
  // batch. Requests stay in `batch` (the guard owns them); `good` holds
  // their indices.
  std::vector<std::size_t> good;
  good.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const DecodeRequest& request = batch[i].request;
    const Tensor& latent = request.latent;
    const bool well_formed =
        request.quantized
            ? request.payload.size() ==
                  core::quantized_payload_bytes(latent_dim, request.precision)
            : (latent.rank() == 1 ||
               (latent.rank() == 2 && latent.dim(0) == 1)) &&
                  latent.numel() == latent_dim;
    if (!well_formed) {
      telemetry_->record_rejected(tenant_row);
      respond_error(batch[i], ResponseStatus::kBadRequest);
      continue;
    }
    good.push_back(i);
  }
  const auto record_assembly = [&](std::chrono::steady_clock::time_point
                                       end) {
    telemetry_->record_stage(tenant_row, Telemetry::Stage::kAssembly,
                             between_us(assembly_start, end), batch.size());
    if (traced) {
      tc.emit({"assembly", "serve", tc.to_trace_us(assembly_start),
               static_cast<std::int64_t>(between_us(assembly_start, end)), 0,
               cluster, batch.size()});
    }
  };
  if (good.empty()) {
    record_assembly(std::chrono::steady_clock::now());
    return;
  }

  // One batched decode for the whole coalesced batch: the decoder weights
  // stream through cache once instead of once per request. Each latent is
  // written straight into its row of the shard's reusable InferContext
  // input buffer (a float latent by one sized copy, a quantized payload by
  // dequantizing into the row), so requests of any precision share one
  // batch, and the decode lands in the worker-owned output buffer: after
  // warmup this whole block performs zero heap allocations.
  const std::size_t rows = good.size();
  Tensor& stacked = infer_ctx_.input();
  stacked.resize(rows, latent_dim);
  for (std::size_t row = 0; row < rows; ++row) {
    const DecodeRequest& request = batch[good[row]].request;
    float* dst = stacked.data().data() + row * latent_dim;
    if (request.quantized) {
      core::dequantize_latents_into(request.payload.data(),
                                    request.payload.size(), request.precision,
                                    dst, latent_dim);
    } else {
      const auto src = request.latent.data();
      std::copy(src.begin(), src.end(), dst);
    }
  }
  const auto decode_start = std::chrono::steady_clock::now();
  record_assembly(decode_start);
  try {
    // Snapshot batches execute the snapshot's compiled InferPlan (every
    // published snapshot carries one — fused ops, pre-packed panels, zero
    // per-batch planning); the registry-free path goes through EdgeServer,
    // which maintains its own plan.
    if (snapshot != nullptr) {
      snapshot->plan->run(stacked, decode_out_, infer_ctx_);
    } else {
      tenant->system->edge().decode_inference(stacked, decode_out_,
                                              infer_ctx_);
    }
  } catch (const std::exception& e) {
    for (const std::size_t i : good) {
      telemetry_->record_rejected(tenant_row);
      respond_error(batch[i], ResponseStatus::kInternalError, e.what());
    }
    return;
  }
  // Every layer scope has rewound, so the arena is empty: reset() here
  // coalesces a warmup spill into one slab (a no-op from the second
  // steady-state batch on).
  infer_ctx_.scratch().reset();
  telemetry_->record_batch(good.size());
  const auto respond_start = std::chrono::steady_clock::now();
  // Bounds this lane's next coalescing window (BatchQueue::pop_batch).
  queue_.record_decode(cluster, respond_start - decode_start);
  telemetry_->record_stage(tenant_row, Telemetry::Stage::kDecode,
                           between_us(decode_start, respond_start),
                           good.size());
  if (traced) {
    tc.emit({"decode", "serve", tc.to_trace_us(decode_start),
             static_cast<std::int64_t>(between_us(decode_start,
                                                  respond_start)),
             0, cluster, good.size()});
  }

  for (std::size_t row = 0; row < good.size(); ++row) {
    PendingRequest& pending = batch[good[row]];
    DecodeResponse response;
    response.id = pending.request.id;
    response.status = ResponseStatus::kOk;
    // One sized allocation + one memcpy per response, straight out of the
    // shared decode buffer (the response tensor must own its storage — it
    // outlives this batch and the context's buffers are about to be
    // recycled).
    response.reconstruction = decode_out_.row_copy(row);
    response.batch_size = good.size();
    response.model_version = version;
    response.latency_us = elapsed_us(pending.request.enqueued_at);
    telemetry_->record_completed(tenant_row, response.latency_us);
    pending.promise.set_value(std::move(response));
    pending.answered = true;
  }
  const auto respond_end = std::chrono::steady_clock::now();
  telemetry_->record_stage(tenant_row, Telemetry::Stage::kRespond,
                           between_us(respond_start, respond_end),
                           good.size());
  if (traced) {
    tc.emit({"respond", "serve", tc.to_trace_us(respond_start),
             static_cast<std::int64_t>(between_us(respond_start,
                                                  respond_end)),
             0, cluster, good.size()});
    // Retro "request" spans wrap the stages above: emitted last but
    // starting at enqueue time, so each traced request's queue_wait /
    // assembly / decode / respond nest inside its request span on this
    // worker's track.
    const std::int64_t end_us = tc.to_trace_us(respond_end);
    for (const PendingRequest& pending : batch) {
      if (!pending.request.traced) continue;
      const std::int64_t start_us =
          tc.to_trace_us(pending.request.enqueued_at);
      tc.emit({"request", "serve", start_us, end_us - start_us,
               pending.request.id, cluster, good.size()});
    }
  }
}

}  // namespace orco::serve
