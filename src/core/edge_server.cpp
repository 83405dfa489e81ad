#include "core/edge_server.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "tensor/backend.h"

namespace orco::core {

std::pair<float, Tensor> residual_loss_and_gradient(const Tensor& residual,
                                                    ReconLoss loss_kind,
                                                    float huber_delta) {
  const auto r = residual.data();
  const float inv_n = 1.0f / static_cast<float>(residual.numel());
  Tensor grad(residual.shape());
  auto gd = grad.data();
  double loss_acc = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const float ri = r[i];
    if (loss_kind == ReconLoss::kMse) {
      loss_acc += static_cast<double>(ri) * ri;
      gd[i] = -2.0f * ri * inv_n;
      continue;
    }
    const float a = std::fabs(ri);
    if (a <= huber_delta) {
      loss_acc += 0.5 * static_cast<double>(a) * a;
      gd[i] = -ri * inv_n;
    } else {
      loss_acc += static_cast<double>(huber_delta) * a -
                  0.5 * huber_delta * huber_delta;
      gd[i] = (ri > 0.0f ? -huber_delta : huber_delta) * inv_n;
    }
  }
  const float loss =
      static_cast<float>(loss_acc / static_cast<double>(residual.numel()));
  return {loss, std::move(grad)};
}

EdgeServer::EdgeServer(std::unique_ptr<nn::Sequential> decoder,
                       const OrcoConfig& config)
    : decoder_(std::move(decoder)),
      loss_kind_(config.loss),
      huber_delta_(config.huber_delta),
      latent_dim_(config.latent_dim),
      output_dim_(config.input_dim) {
  ORCO_CHECK(decoder_ != nullptr, "null decoder");
  ORCO_CHECK(decoder_->output_features(config.latent_dim) == config.input_dim,
             "decoder does not map latent_dim to input_dim");
  optimizer_ = std::make_unique<nn::Sgd>(decoder_->params(),
                                         config.learning_rate,
                                         config.momentum);
}

ReconstructionMsg EdgeServer::reconstruct(const LatentBatchMsg& msg,
                                          bool training) {
  ORCO_CHECK(msg.latents.rank() == 2 && msg.latents.dim(1) == latent_dim_,
             "edge expects (batch, " << latent_dim_ << ") latents");
  if (training) {
    ORCO_CHECK(!round_open_, "edge round " << pending_round_ << " still open");
    pending_round_ = msg.round;
    round_open_ = true;
    batch_in_flight_ = msg.latents.dim(0);
  }
  Tensor rec = decoder_->forward(msg.latents, training);
  return ReconstructionMsg{msg.round, std::move(rec)};
}

LatentGradMsg EdgeServer::train_step(const ResidualMsg& msg) {
  ORCO_CHECK(round_open_ && msg.round == pending_round_,
             "residual for round " << msg.round << " does not match "
                                   << pending_round_);
  ORCO_CHECK(msg.residuals.rank() == 2 &&
                 msg.residuals.dim(0) == batch_in_flight_ &&
                 msg.residuals.dim(1) == output_dim_,
             "residual shape mismatch");

  auto [loss, grad] =
      residual_loss_and_gradient(msg.residuals, loss_kind_, huber_delta_);
  Tensor latent_grad =
      optimizer_->backward_step(*decoder_, grad, /*input_grad=*/true);
  // The step mutated decoder parameters through ParamView pointers the
  // layers cannot observe: bump every layer's weight version (so the lazy
  // decode plan reports weights_stale() and recompiles) and advance the
  // decoder generation.
  decoder_->invalidate_weight_cache();
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  round_open_ = false;
  return LatentGradMsg{msg.round, loss, std::move(latent_grad)};
}

namespace {

/// Sampled span decision for standalone decode calls (outside the serving
/// runtime, which makes its own per-request decision and wraps this call in
/// its "decode" stage span).
bool sample_decode_span() {
  return obs::trace_enabled() &&
         obs::TraceCollector::instance().should_sample();
}

}  // namespace

std::shared_ptr<const nn::InferPlan> EdgeServer::current_plan() const {
  // Compile (or recompile after a weight-version bump, or for another
  // backend) under the slot's lock; concurrent decoders that lose the race
  // reuse the winner's plan. A plan runs on its compile backend, so a
  // decode under another backend gets a plan compiled for that one.
  const tensor::Backend& backend = tensor::current_backend();
  common::MutexLock lock(plan_mu_);
  if (plan_ == nullptr || &plan_->backend() != &backend ||
      plan_->weights_stale()) {
    plan_ = nn::InferPlan::compile(*decoder_, &backend);
  }
  return plan_;
}

Tensor EdgeServer::decode_inference(const Tensor& latents) const {
  ORCO_CHECK(!round_open_, "cannot run inference with an open round");
  obs::ScopedSpan span("edge.decode", "core", sample_decode_span(), /*id=*/0,
                       /*tenant=*/0, latents.rank() > 0 ? latents.dim(0) : 0);
  const auto plan = current_plan();
  nn::InferContext ctx;
  Tensor out;
  plan->run(latents, out, ctx);
  return out;
}

void EdgeServer::decode_inference(const Tensor& latents, Tensor& out,
                                  nn::InferContext& ctx) const {
  ORCO_CHECK(!round_open_, "cannot run inference with an open round");
  obs::ScopedSpan span("edge.decode", "core", sample_decode_span(), /*id=*/0,
                       /*tenant=*/0, latents.rank() > 0 ? latents.dim(0) : 0);
  current_plan()->run(latents, out, ctx);
}

std::size_t EdgeServer::train_flops(std::size_t batch) const {
  return 3 * decoder_->forward_flops(batch);
}

}  // namespace orco::core
