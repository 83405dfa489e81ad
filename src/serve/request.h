// Request/response types of the multi-cluster serving runtime.
//
// A DecodeRequest carries one latent vector from a cluster's uplink; the
// runtime routes it to the shard owning that cluster, coalesces it with
// other pending latents for the same tenant, and answers with the decoded
// reconstruction. Responses travel back through per-request futures.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/quantization.h"
#include "tensor/tensor.h"

namespace orco::serve {

using tensor::Tensor;

/// Stable tenant identifier; ServerRuntime places it on one shard.
using ClusterId = std::uint64_t;
using RequestId = std::uint64_t;

enum class ResponseStatus {
  kOk,              // decoded successfully
  kShed,            // rejected by backpressure: the shard queue was full
  kShutdown,        // runtime not accepting traffic (stopped or stopping)
  kUnknownCluster,  // no tenant registered under this cluster id
  kBadRequest,      // latent shape does not match the tenant's latent_dim
  kInternalError,   // tenant decode threw; see the response's detail field
};

inline const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kShutdown: return "shutdown";
    case ResponseStatus::kUnknownCluster: return "unknown-cluster";
    case ResponseStatus::kBadRequest: return "bad-request";
    case ResponseStatus::kInternalError: return "internal-error";
  }
  return "invalid";
}

struct DecodeRequest {
  ClusterId cluster = 0;
  RequestId id = 0;
  Tensor latent;  // (M) or (1, M) for the tenant's latent dimension M
  /// Quantized uplink alternative to `latent`: when `quantized` is set the
  /// request carries the wire payload (core/quantization.h framing — affine
  /// header followed by codes) and `latent` stays empty. The shard
  /// dequantizes it into its row of the batch's float input.
  std::vector<std::uint8_t> payload;
  core::LatentPrecision precision = core::LatentPrecision::kFloat32;
  bool quantized = false;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Sampling decision made once at submit time (obs tracing): a traced
  /// request records its whole span tree (queue wait, assembly, decode,
  /// respond under the request span); an untraced one records nothing.
  bool traced = false;
};

struct DecodeResponse {
  RequestId id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  Tensor reconstruction;        // (N) on kOk; empty otherwise
  std::string detail;           // human-readable cause on kInternalError
  double latency_us = 0.0;      // enqueue -> response
  std::size_t batch_size = 0;   // occupancy of the batch that served it
  /// Decoder generation that produced the reconstruction: the registry
  /// snapshot's version on the hot-swap path, or the live tenant's
  /// EdgeServer::model_version() on the legacy direct path. 0 on errors.
  /// Exactly one version answers any request — a batch pins its snapshot
  /// for its whole fan-out, swaps land only between batches.
  std::uint64_t model_version = 0;
};

/// A queued request plus the promise that fulfils its caller's future.
struct PendingRequest {
  DecodeRequest request;
  std::promise<DecodeResponse> promise;
  /// Set by whoever resolves the promise; the shard's answer-all scope
  /// guard uses it to find requests left unanswered by an exception.
  bool answered = false;
  /// Stamped by BatchQueue::extract_cluster when the request leaves the
  /// queue: enqueued_at -> popped_at is the queue-wait stage.
  std::chrono::steady_clock::time_point popped_at;

  PendingRequest() = default;
  PendingRequest(DecodeRequest req, std::promise<DecodeResponse> prom)
      : request(std::move(req)), promise(std::move(prom)) {}
  PendingRequest(PendingRequest&&) = default;
  PendingRequest& operator=(PendingRequest&&) = default;
  PendingRequest(const PendingRequest&) = delete;
  PendingRequest& operator=(const PendingRequest&) = delete;
};

}  // namespace orco::serve
