#include "core/aggregator.h"

#include <cmath>

#include "common/check.h"
#include "nn/dense.h"

namespace orco::core {

DataAggregator::DataAggregator(std::unique_ptr<nn::Sequential> encoder,
                               const OrcoConfig& config, common::Pcg32 rng)
    : encoder_(std::move(encoder)),
      loss_(config.loss == ReconLoss::kHuber
                ? std::unique_ptr<nn::Loss>(
                      std::make_unique<nn::HuberLoss>(config.huber_delta))
                : std::make_unique<nn::MseLoss>()),
      noise_sigma_(std::sqrt(config.noise_variance)),
      rng_(rng),
      input_dim_(config.input_dim),
      latent_dim_(config.latent_dim) {
  ORCO_CHECK(encoder_ != nullptr, "null encoder");
  ORCO_CHECK(encoder_->output_features(config.input_dim) == config.latent_dim,
             "encoder does not map input_dim to latent_dim");
  optimizer_ = std::make_unique<nn::Sgd>(encoder_->params(),
                                         config.learning_rate,
                                         config.momentum);
}

LatentBatchMsg DataAggregator::encode_batch(const Tensor& batch,
                                            std::uint64_t round,
                                            bool training) {
  ORCO_CHECK(batch.rank() == 2 && batch.dim(1) == input_dim_,
             "aggregator expects (batch, " << input_dim_ << ")");
  Tensor latents = encoder_->forward(batch, training);
  if (training) {
    ORCO_CHECK(!round_open_,
               "round " << pending_round_ << " still open; finish it first");
    pending_batch_ = batch;
    pending_round_ = round;
    round_open_ = true;
    if (noise_sigma_ > 0.0f) {
      for (auto& v : latents.data()) {
        v += static_cast<float>(rng_.normal(0.0, noise_sigma_));
      }
    }
  }
  return LatentBatchMsg{round, std::move(latents)};
}

std::pair<float, ResidualMsg> DataAggregator::evaluate_reconstruction(
    const ReconstructionMsg& msg) {
  ORCO_CHECK(round_open_ && msg.round == pending_round_,
             "reconstruction for round " << msg.round << " does not match "
                                         << pending_round_);
  ORCO_CHECK(msg.reconstructions.shape() == pending_batch_.shape(),
             "reconstruction shape mismatch");
  const float loss = loss_->value(msg.reconstructions, pending_batch_);
  return {loss, ResidualMsg{msg.round, pending_batch_ - msg.reconstructions}};
}

void DataAggregator::apply_latent_gradient(const LatentGradMsg& msg) {
  ORCO_CHECK(round_open_ && msg.round == pending_round_,
             "latent gradient for round " << msg.round << " does not match "
                                          << pending_round_);
  ORCO_CHECK(msg.latent_grad.rank() == 2 &&
                 msg.latent_grad.dim(1) == latent_dim_,
             "latent gradient shape mismatch");
  // Noise is additive, so dL/d(clean latent) == dL/d(noisy latent). The
  // gradient stops at the encoder: its first layer computes no dX.
  (void)optimizer_->backward_step(*encoder_, msg.latent_grad,
                                  /*input_grad=*/false);
  round_open_ = false;
}

EncoderShareMsg DataAggregator::encoder_share(std::size_t device) const {
  ORCO_CHECK(device < input_dim_,
             "device " << device << " out of range " << input_dim_);
  // The first layer of the encoder is the dense map (eq. 1).
  const auto& dense =
      dynamic_cast<const nn::Dense&>(encoder_->layer(0));
  Tensor column({latent_dim_});
  for (std::size_t m = 0; m < latent_dim_; ++m) {
    column[m] = dense.weight().at(m, device);
  }
  return EncoderShareMsg{device, std::move(column), dense.bias()};
}

Tensor DataAggregator::encode_inference(const Tensor& batch) {
  ORCO_CHECK(!round_open_, "cannot run inference with an open round");
  return encoder_->forward(batch, /*training=*/false);
}

std::size_t DataAggregator::train_flops(std::size_t batch) const {
  return 3 * encoder_->forward_flops(batch);
}

}  // namespace orco::core
