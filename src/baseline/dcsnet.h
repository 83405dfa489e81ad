// DCSNet baseline (Zhang et al., "Learning-based sparse data reconstruction
// for compressed data aggregation in IoT networks", IoT-J 2021) as used by
// the paper's evaluation:
//
//   * fixed latent dimension 1024 regardless of task;
//   * fixed decoder structure: 4 convolutional layers;
//   * offline framework — in the paper's comparison it is run through the
//     same online loop but with only a fraction (default 50%) of the
//     training data accessible, and it minimises the L2 norm, not Huber.
//
// DcsNetSystem mirrors OrcoDcsSystem's facade so benches can drive both
// uniformly; internally it reuses the same DataAggregator / EdgeServer /
// Orchestrator machinery with DCSNet's fixed models.
#pragma once

#include <functional>
#include <memory>

#include "core/orcodcs.h"
#include "data/dataset.h"

namespace orco::baseline {

struct DcsNetConfig {
  std::size_t latent_dim = 1024;  // fixed by DCSNet's design
  float data_fraction = 0.5f;     // share of training data available
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  std::size_t batch_size = 64;
  std::uint64_t seed = 43;
};

/// Encoder: one dense layer to the fixed 1024-d latent (sigmoid).
std::unique_ptr<nn::Sequential> build_dcsnet_encoder(
    const data::ImageGeometry& geometry, std::size_t latent_dim,
    common::Pcg32& rng);

/// Decoder: dense projection to a coarse feature map, then 4 convolutional
/// layers (2 transposed upsampling + 2 refining), sigmoid output.
std::unique_ptr<nn::Sequential> build_dcsnet_decoder(
    const data::ImageGeometry& geometry, std::size_t latent_dim,
    common::Pcg32& rng);

class DcsNetSystem {
 public:
  DcsNetSystem(const data::ImageGeometry& geometry, const DcsNetConfig& config,
               const wsn::ChannelConfig& channel, core::ComputeModel compute);

  /// Trains on the first `data_fraction` of `train` (the accessible share).
  core::TrainSummary train_online(
      const data::Dataset& train, std::size_t epochs,
      const std::function<void(const core::RoundRecord&)>& on_round = nullptr);

  tensor::Tensor reconstruct(const tensor::Tensor& images);
  float evaluate_loss(const data::Dataset& dataset);

  /// Ships a batch of latents uplink (steady-state aggregation).
  double aggregate_images(const tensor::Tensor& batch);

  const wsn::TransmissionLedger& ledger() const noexcept { return ledger_; }
  double sim_time() const noexcept { return clock_.now(); }
  const DcsNetConfig& config() const noexcept { return config_; }
  core::Orchestrator& orchestrator() noexcept { return *orchestrator_; }
  core::DataAggregator& aggregator() noexcept { return *aggregator_; }
  core::EdgeServer& edge() noexcept { return *edge_; }

 private:
  DcsNetConfig config_;
  core::OrcoConfig core_config_;
  wsn::TransmissionLedger ledger_;
  wsn::Channel channel_;
  wsn::SimClock clock_;
  std::unique_ptr<core::DataAggregator> aggregator_;
  std::unique_ptr<core::EdgeServer> edge_;
  std::unique_ptr<core::Orchestrator> orchestrator_;
};

}  // namespace orco::baseline
