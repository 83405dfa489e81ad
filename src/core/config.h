// OrcoDCS configuration (paper §III).
//
// The flexibility the paper claims over DCSNet is exactly that these knobs
// are per-task: latent dimension, decoder depth, noise level and optimiser
// hyperparameters can differ per IoT device group and sensing task.
#pragma once

#include <cstddef>
#include <cstdint>

namespace orco::core {

/// Reconstruction objective. OrcoDCS trains with Huber (eq. 4); classic
/// DCDA frameworks (and the DCSNet baseline) minimise the L2 norm.
enum class ReconLoss { kHuber, kMse };

struct OrcoConfig {
  ReconLoss loss = ReconLoss::kHuber;
  // Model (eqs. 1-3).
  std::size_t input_dim = 784;    // N: dimension of the stacked sensing data
  std::size_t latent_dim = 128;   // M: latent dimension (128 MNIST, 512 GTSRB)
  std::size_t decoder_layers = 1; // 1 per eq. (3); Fig. 8 sweeps {1, 3, 5}
  std::size_t decoder_hidden_dim = 0;  // 0 -> (input_dim + latent_dim) / 2

  // Latent noise (eq. 2). The paper sweeps sigma^2; this is sigma^2.
  float noise_variance = 0.1f;

  // Loss (eq. 4) and optimiser (eq. 5). Losses are mean-reduced over every
  // element of the batch, so per-parameter gradients are small and the
  // effective SGD learning rate is correspondingly large (tuned on the
  // synthetic reconstruction tasks; see EXPERIMENTS.md).
  float huber_delta = 1.0f;
  float learning_rate = 3.0f;
  float momentum = 0.9f;
  std::size_t batch_size = 64;

  // Fine-tuning monitor (§III-D): relaunch training when the monitored
  // reconstruction error exceeds `relaunch_factor` x the post-training
  // baseline error, sustained over a full `monitor_window` of
  // observations. After a trigger, the next `monitor_cooldown`
  // observations are swallowed while the relaunch is in flight so one
  // drift episode cannot fire a second relaunch before the first lands
  // (0 keeps the historical behaviour: no automatic re-arm delay).
  float relaunch_factor = 2.0f;
  std::size_t monitor_window = 8;
  std::size_t monitor_cooldown = 0;

  std::uint64_t seed = 42;

  std::size_t decoder_hidden() const {
    return decoder_hidden_dim != 0 ? decoder_hidden_dim
                                   : (input_dim + latent_dim) / 2;
  }
};

/// Compute-speed model for the simulated time axis (Fig. 4). The aggregator
/// is an IoT-class device; the edge server is orders of magnitude faster —
/// this asymmetry is why the paper puts the deep decoder on the edge.
struct ComputeModel {
  double aggregator_flops_per_s = 5e8;  // Cortex-M/A-class
  double edge_flops_per_s = 5e10;       // small edge GPU / big CPU

  double aggregator_seconds(std::size_t flops) const {
    return static_cast<double>(flops) / aggregator_flops_per_s;
  }
  double edge_seconds(std::size_t flops) const {
    return static_cast<double>(flops) / edge_flops_per_s;
  }
};

}  // namespace orco::core
