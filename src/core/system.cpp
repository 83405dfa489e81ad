#include "core/system.h"

#include "common/check.h"
#include "core/distributed_encoding.h"
#include "core/models.h"
#include "data/dataloader.h"
#include "nn/model_io.h"

namespace orco::core {

OrcoDcsSystem::OrcoDcsSystem(const SystemConfig& config)
    : config_(config),
      field_(config.field),
      radio_(config.radio),
      channel_(config.channel),
      monitor_(config.orco) {
  tree_ = std::make_unique<wsn::AggregationTree>(field_, radio_);

  common::Pcg32 rng(config.orco.seed, /*stream=*/0x6f72636fULL);  // "orco"
  common::Pcg32 enc_rng = rng.split();
  common::Pcg32 dec_rng = rng.split();
  common::Pcg32 noise_rng = rng.split();

  aggregator_ = std::make_unique<DataAggregator>(
      build_encoder(config.orco, enc_rng), config.orco, noise_rng);
  edge_ = std::make_unique<EdgeServer>(build_decoder(config.orco, dec_rng),
                                       config.orco);
  orchestrator_ = std::make_unique<Orchestrator>(
      *aggregator_, *edge_, channel_, ledger_, clock_, config.compute);
}

double OrcoDcsSystem::raw_aggregation_round(
    std::size_t bytes_per_device_reading) {
  const auto stats =
      tree_->simulate_raw_round(bytes_per_device_reading, ledger_);
  clock_.advance(stats.airtime_s);
  return stats.airtime_s;
}

TrainSummary OrcoDcsSystem::train_online(
    const data::Dataset& train, std::size_t epochs,
    const std::function<void(const RoundRecord&)>& on_round) {
  ORCO_CHECK(train.geometry().features() == config_.orco.input_dim,
             "dataset features " << train.geometry().features()
                                 << " do not match configured input_dim "
                                 << config_.orco.input_dim);
  // Salt the shuffle with the round counter so that repeated train_online
  // calls (epoch-by-epoch driving, relaunches) see fresh sample orders
  // while staying deterministic end to end.
  common::Pcg32 loader_rng(config_.orco.seed ^
                           (0x10adULL + orchestrator_->rounds_completed()));
  data::DataLoader loader(train, config_.orco.batch_size, /*shuffle=*/true,
                          loader_rng);
  TrainSummary summary;
  summary.rounds = orchestrator_->train(loader, epochs, on_round);
  summary.final_loss =
      summary.rounds.empty() ? 0.0f : summary.rounds.back().loss;
  summary.sim_seconds = clock_.now();
  if (!summary.rounds.empty()) {
    // Baseline for the §III-D monitor: the clean (noise-free, eval-mode)
    // reconstruction error on the data just trained on. The last round's
    // training loss is a poor reference — it carries latent noise and
    // single-batch variance.
    monitor_.inner.set_baseline(evaluate_loss(train));
    monitor_.inner.reset_observations();
  }
  return summary;
}

double OrcoDcsSystem::distribute_encoder() {
  // One broadcast round carries every device's column + the shared bias
  // (§III-C: "a single round of broadcast").
  const std::size_t device_count = field_.device_count();
  const std::size_t m = config_.orco.latent_dim;
  const std::size_t payload =
      (device_count * m + m) * sizeof(float);  // columns + bias
  const auto stats = tree_->simulate_broadcast(payload, ledger_);
  clock_.advance(stats.airtime_s);
  return stats.airtime_s;
}

double OrcoDcsSystem::compressed_aggregation_round() {
  // Intra-cluster hybrid CS gathering of the M-dim latent, then the uplink.
  const std::size_t m = config_.orco.latent_dim;
  const auto stats =
      tree_->simulate_hybrid_cs_round(m, sizeof(float), ledger_);
  double seconds = stats.airtime_s;
  seconds +=
      channel_.send(m * sizeof(float), wsn::Direction::kUp, ledger_);
  clock_.advance(seconds);
  return seconds;
}

double OrcoDcsSystem::aggregate_images(const Tensor& batch) {
  return orchestrator_->aggregate_batch(batch);
}

Tensor OrcoDcsSystem::reconstruct(const Tensor& images) {
  return orchestrator_->reconstruct(images);
}

float OrcoDcsSystem::evaluate_loss(const data::Dataset& dataset) {
  return orchestrator_->evaluate_loss(dataset, config_.orco.batch_size);
}

float OrcoDcsSystem::evaluate_loss(const data::Dataset& dataset,
                                   nn::InferContext& ctx) {
  return orchestrator_->evaluate_loss(dataset, config_.orco.batch_size, ctx);
}

namespace {

/// Rebuilds `build(config)`'s layer chain and copies `source`'s parameters
/// into it via the model_io round-trip (names/shapes validated there).
std::unique_ptr<nn::Sequential> clone_model(
    nn::Sequential& source, const OrcoConfig& config,
    std::unique_ptr<nn::Sequential> (*build)(const OrcoConfig&,
                                             common::Pcg32&)) {
  // The clone's random init is immediately overwritten by load_params; the
  // rng only has to exist.
  common::Pcg32 scratch_rng(config.seed ^ 0x636c6f6eULL);  // "clon"
  auto clone = build(config, scratch_rng);
  nn::load_params(*clone, nn::save_params(source));
  return clone;
}
}

std::unique_ptr<nn::Sequential> OrcoDcsSystem::export_decoder_clone() {
  return clone_model(edge_->decoder(), config_.orco, &build_decoder);
}

std::unique_ptr<nn::Sequential> OrcoDcsSystem::export_encoder_clone() {
  return clone_model(aggregator_->encoder(), config_.orco, &build_encoder);
}

}  // namespace orco::core
