#include "core/orchestrator.h"

#include "common/check.h"
#include "nn/loss.h"

namespace orco::core {

Orchestrator::Orchestrator(DataAggregator& aggregator, EdgeServer& edge,
                           wsn::Channel& channel,
                           wsn::TransmissionLedger& ledger,
                           wsn::SimClock& clock, ComputeModel compute)
    : aggregator_(&aggregator),
      edge_(&edge),
      channel_(&channel),
      ledger_(&ledger),
      clock_(&clock),
      compute_(compute) {}

RoundRecord Orchestrator::train_round(const Tensor& batch) {
  ORCO_CHECK(batch.rank() == 2 && batch.dim(0) > 0, "empty training batch");
  const std::uint64_t round = next_round_++;
  const std::size_t b = batch.dim(0);
  RoundRecord rec;
  rec.round = round;

  auto ship_up = [&](const std::vector<std::byte>& bytes) {
    const double s = channel_->send(bytes.size(), wsn::Direction::kUp, *ledger_);
    rec.round_comms_s += s;
    rec.uplink_payload_bytes += bytes.size();
  };
  auto ship_down = [&](const std::vector<std::byte>& bytes) {
    const double s =
        channel_->send(bytes.size(), wsn::Direction::kDown, *ledger_);
    rec.round_comms_s += s;
    rec.downlink_payload_bytes += bytes.size();
  };

  // (1) Aggregator: encode + noise, ship latents uplink.
  //     Forward pass charged to the IoT-class aggregator.
  rec.round_compute_s +=
      compute_.aggregator_seconds(aggregator_->encoder().forward_flops(b));
  const LatentBatchMsg latent_msg =
      aggregator_->encode_batch(batch, round, /*training=*/true);
  const auto latent_bytes = latent_msg.serialize();
  ship_up(latent_bytes);

  // (2) Edge: reconstruct, ship reconstructions downlink.
  const LatentBatchMsg latent_rx = LatentBatchMsg::deserialize(latent_bytes);
  rec.round_compute_s +=
      compute_.edge_seconds(edge_->decoder().forward_flops(b));
  const ReconstructionMsg rec_msg = edge_->reconstruct(latent_rx, true);
  const auto rec_bytes = rec_msg.serialize();
  ship_down(rec_bytes);

  // (3) Aggregator: Huber loss + residual, ship residual uplink.
  const ReconstructionMsg rec_rx = ReconstructionMsg::deserialize(rec_bytes);
  auto [loss, residual_msg] = aggregator_->evaluate_reconstruction(rec_rx);
  rec.loss = loss;
  const auto residual_bytes = residual_msg.serialize();
  ship_up(residual_bytes);

  // (4) Edge: decoder backward + step, ship latent gradient downlink.
  //     Backward charged at 2x forward.
  const ResidualMsg residual_rx = ResidualMsg::deserialize(residual_bytes);
  rec.round_compute_s +=
      compute_.edge_seconds(2 * edge_->decoder().forward_flops(b));
  const LatentGradMsg grad_msg = edge_->train_step(residual_rx);
  const auto grad_bytes = grad_msg.serialize();
  ship_down(grad_bytes);

  // (5) Aggregator: encoder backward + step.
  const LatentGradMsg grad_rx = LatentGradMsg::deserialize(grad_bytes);
  rec.round_compute_s += compute_.aggregator_seconds(
      2 * aggregator_->encoder().forward_flops(b));
  aggregator_->apply_latent_gradient(grad_rx);

  clock_->advance(rec.round_comms_s + rec.round_compute_s);
  rec.sim_time_s = clock_->now();
  return rec;
}

std::vector<RoundRecord> Orchestrator::train_epoch(data::DataLoader& loader) {
  loader.reshuffle();
  std::vector<RoundRecord> records;
  records.reserve(loader.batch_count());
  for (std::size_t b = 0; b < loader.batch_count(); ++b) {
    records.push_back(train_round(loader.batch(b).images));
  }
  return records;
}

std::vector<RoundRecord> Orchestrator::train(
    data::DataLoader& loader, std::size_t epochs,
    const std::function<void(const RoundRecord&)>& on_round) {
  std::vector<RoundRecord> all;
  for (std::size_t e = 0; e < epochs; ++e) {
    auto records = train_epoch(loader);
    for (const auto& r : records) {
      if (on_round) on_round(r);
      all.push_back(r);
    }
  }
  return all;
}

double Orchestrator::aggregate_batch(const Tensor& batch) {
  const std::size_t b = batch.dim(0);
  double seconds =
      compute_.aggregator_seconds(aggregator_->encoder().forward_flops(b));
  const Tensor latents = aggregator_->encode_inference(batch);
  LatentBatchMsg msg{next_round_, latents};
  seconds += channel_->send(msg.serialize().size(), wsn::Direction::kUp,
                            *ledger_);
  clock_->advance(seconds);
  return seconds;
}

Tensor Orchestrator::reconstruct(const Tensor& batch) {
  nn::InferContext ctx;
  Tensor out;
  reconstruct_into(batch, out, ctx);
  return out;
}

void Orchestrator::reconstruct_into(const Tensor& batch, Tensor& out,
                                    nn::InferContext& ctx) {
  const Tensor latents = aggregator_->encode_inference(batch);
  edge_->decode_inference(latents, out, ctx);
}

float Orchestrator::evaluate_loss(const data::Dataset& dataset,
                                  std::size_t batch_size) {
  nn::InferContext ctx;
  return evaluate_loss(dataset, batch_size, ctx);
}

float Orchestrator::evaluate_loss(const data::Dataset& dataset,
                                  std::size_t batch_size,
                                  nn::InferContext& ctx) {
  nn::HuberLoss loss(1.0f);
  double acc = 0.0;
  std::size_t batches = 0;
  Tensor xr;  // decode target, reused (capacity-preserving) across batches
  for (std::size_t begin = 0; begin < dataset.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, dataset.size());
    const Tensor x = dataset.images().slice_rows(begin, end);
    reconstruct_into(x, xr, ctx);
    acc += loss.value(xr, x);
    ++batches;
  }
  ORCO_ENSURE(batches > 0, "empty evaluation dataset");
  return static_cast<float>(acc / static_cast<double>(batches));
}

}  // namespace orco::core
