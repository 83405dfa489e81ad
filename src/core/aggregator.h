// The data aggregator (cluster head) side of the orchestration.
//
// Owns the shallow encoder (eq. 1), injects latent noise (eq. 2), computes
// the reconstruction error (eq. 4) when reconstructions come back, and
// applies encoder updates when the edge returns the latent gradient. The
// heavy decoder never runs here — that asymmetry is the paper's central
// resource argument.
#pragma once

#include <memory>

#include <memory>

#include "common/rng.h"
#include "core/config.h"
#include "core/messages.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace orco::core {

class DataAggregator {
 public:
  DataAggregator(std::unique_ptr<nn::Sequential> encoder,
                 const OrcoConfig& config, common::Pcg32 rng);

  /// Encodes a (B, N) batch into (B, M) latents. When `training`, Gaussian
  /// noise with variance `config.noise_variance` is added (eq. 2) and the
  /// forward activations are cached for the later encoder update.
  LatentBatchMsg encode_batch(const Tensor& batch, std::uint64_t round,
                              bool training);

  /// Computes the Huber loss and the residual X - Xr for the batch passed
  /// to the immediately preceding encode_batch call.
  std::pair<float, ResidualMsg> evaluate_reconstruction(
      const ReconstructionMsg& msg);

  /// Backpropagates the latent gradient through the encoder and applies one
  /// SGD step, in one walk (nn::Sgd::backward_step) that computes no input
  /// gradient. Must follow encode_batch(training=true) on the same round.
  void apply_latent_gradient(const LatentGradMsg& msg);

  /// Per-device encoder slice for the §III-C broadcast.
  EncoderShareMsg encoder_share(std::size_t device) const;

  /// Noise-free encoding for steady-state aggregation and evaluation.
  Tensor encode_inference(const Tensor& batch);

  nn::Sequential& encoder() noexcept { return *encoder_; }
  const nn::Sequential& encoder() const noexcept { return *encoder_; }
  const nn::Sgd& optimizer() const noexcept { return *optimizer_; }

  /// FLOPs charged to the aggregator for one training round on `batch`
  /// samples: encoder forward + backward (2x forward).
  std::size_t train_flops(std::size_t batch) const;

  float noise_sigma() const noexcept { return noise_sigma_; }

 private:
  std::unique_ptr<nn::Sequential> encoder_;
  std::unique_ptr<nn::Loss> loss_;
  std::unique_ptr<nn::Sgd> optimizer_;
  float noise_sigma_;
  common::Pcg32 rng_;
  Tensor pending_batch_;      // X for the in-flight round
  std::uint64_t pending_round_ = 0;
  bool round_open_ = false;
  std::size_t input_dim_, latent_dim_;
};

}  // namespace orco::core
