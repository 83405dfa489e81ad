// The edge-server side of the orchestration.
//
// Owns the deep decoder (eq. 3). Reconstructs from noisy latents, and on
// receiving the residual ("reconstruction error", §III-B) derives the Huber
// gradient, updates the decoder, and returns the latent gradient so the
// aggregator can update its encoder.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/mutex.h"
#include "core/config.h"
#include "core/messages.h"
#include "nn/infer_plan.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace orco::core {

/// The §III-B training loss and its gradient dL/dXr, both functions of the
/// residual r = X - Xr alone — the first half of EdgeServer::train_step:
///   Huber: L = mean(huber(r)),   dL/dXr = -clip(r, ±delta) / numel
///   MSE:   L = mean(r^2),        dL/dXr = -2 r / numel
std::pair<float, Tensor> residual_loss_and_gradient(const Tensor& residual,
                                                    ReconLoss loss_kind,
                                                    float huber_delta);

class EdgeServer {
 public:
  EdgeServer(std::unique_ptr<nn::Sequential> decoder,
             const OrcoConfig& config);

  /// Decodes latents into reconstructions; caches activations when
  /// `training` so the next train_step can backpropagate.
  ReconstructionMsg reconstruct(const LatentBatchMsg& msg, bool training);

  /// Derives the Huber gradient from the residual (loss and gradient are
  /// both functions of X - Xr alone: residual_loss_and_gradient),
  /// backpropagates through the decoder and applies one SGD step in one
  /// walk (nn::Sgd::backward_step), and returns dL/d(latents) plus the
  /// loss.
  LatentGradMsg train_step(const ResidualMsg& msg);

  /// Noise-free decoding for evaluation / steady-state reconstruction
  /// through the decoder's lazily compiled InferPlan (recompiled when a
  /// training step made it stale): one decoder can serve batched read-only
  /// decode traffic without perturbing training state.
  Tensor decode_inference(const Tensor& latents) const;

  /// Zero-allocation variant: decodes into `out` using the caller's
  /// long-lived InferContext (nn::InferPlan::run). The serving shards and
  /// the background trainer's validation loop call this so a steady-state
  /// decode touches no allocator after warmup. Same concurrency contract as
  /// above, with one context per calling thread.
  void decode_inference(const Tensor& latents, Tensor& out,
                        nn::InferContext& ctx) const;

  nn::Sequential& decoder() noexcept { return *decoder_; }
  const nn::Sequential& decoder() const noexcept { return *decoder_; }
  const nn::Sgd& optimizer() const noexcept { return *optimizer_; }

  /// The compiled inference plan the decode paths execute — the registry-
  /// free equivalent of a snapshot's plan. Compiled lazily on first decode
  /// for the caller's current backend, and recompiled (weights repacked)
  /// when that backend is not the plan's or whenever the decoder's weight
  /// versions moved since compile: train_step, nn::load_params and
  /// mutable-accessor edits all bump versions, so a stale plan can never
  /// serve old panels. Callers may hold the returned plan across batches;
  /// it stays valid (merely superseded) after a rebuild.
  std::shared_ptr<const nn::InferPlan> current_plan() const;

  /// FLOPs charged to the edge for one training round on `batch` samples.
  std::size_t train_flops(std::size_t batch) const;

  /// Monotonically increasing decoder generation: starts at 1 and bumps on
  /// every applied train_step. The training runtime stamps exported
  /// ModelRegistry snapshots with this value, so "model version" means the
  /// same thing on the training side, in the registry and in serve
  /// telemetry. Atomic: serving threads read it concurrently with training.
  std::uint64_t model_version() const noexcept {
    return model_version_.load(std::memory_order_acquire);
  }

  /// Restores the decoder generation counter — the cold-tier reactivation
  /// path: the fleet rebuilds a demoted tenant from its cold record and
  /// continues the version sequence where it left off, so registry
  /// publishes stay strictly monotonic across demote/wake cycles. Callers
  /// must not race this with train_step.
  void set_model_version(std::uint64_t version) noexcept {
    model_version_.store(version, std::memory_order_release);
  }

 private:
  std::unique_ptr<nn::Sequential> decoder_;
  std::unique_ptr<nn::Sgd> optimizer_;
  ReconLoss loss_kind_;
  float huber_delta_;
  std::uint64_t pending_round_ = 0;
  std::atomic<std::uint64_t> model_version_{1};
  /// Registry-free decode plan: copied out under plan_mu_ once per decode,
  /// rebuilt under the same lock when stale (see current_plan).
  mutable common::Mutex plan_mu_;
  mutable std::shared_ptr<const nn::InferPlan> plan_ ORCO_GUARDED_BY(plan_mu_);
  bool round_open_ = false;
  std::size_t batch_in_flight_ = 0;
  std::size_t latent_dim_, output_dim_;
};

}  // namespace orco::core
