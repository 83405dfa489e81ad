// The IoT-Edge orchestrated online training loop (paper §III-B, "Training
// procedure") with honest wire accounting.
//
// Every protocol message is serialised, shipped through the simulated
// channel (charging the ledger and the simulated clock), and deserialised
// on the far side — Fig. 3's byte counts and the communication share of
// Fig. 4's time axis come from this code path, not from a side formula.
// Compute time is charged via the FLOP model in core/config.h.
#pragma once

#include <functional>
#include <vector>

#include "core/aggregator.h"
#include "core/edge_server.h"
#include "data/dataloader.h"
#include "wsn/channel.h"

namespace orco::core {

/// Telemetry for one protocol round (one mini-batch).
struct RoundRecord {
  std::uint64_t round = 0;
  float loss = 0.0f;
  double sim_time_s = 0.0;       // simulated clock after this round
  double round_comms_s = 0.0;    // channel time spent this round
  double round_compute_s = 0.0;  // modelled compute time this round
  std::size_t uplink_payload_bytes = 0;
  std::size_t downlink_payload_bytes = 0;
};

class Orchestrator {
 public:
  /// All referenced objects must outlive the orchestrator.
  Orchestrator(DataAggregator& aggregator, EdgeServer& edge,
               wsn::Channel& channel, wsn::TransmissionLedger& ledger,
               wsn::SimClock& clock, ComputeModel compute);

  /// Runs the 4-message training protocol on one batch.
  RoundRecord train_round(const Tensor& batch);

  /// One pass over the loader (reshuffles first); returns per-round records.
  std::vector<RoundRecord> train_epoch(data::DataLoader& loader);

  /// Trains for `epochs` passes. `on_round` (optional) sees every record.
  std::vector<RoundRecord> train(
      data::DataLoader& loader, std::size_t epochs,
      const std::function<void(const RoundRecord&)>& on_round = nullptr);

  /// Steady-state compressed aggregation (§III-C, stage 3): encodes without
  /// noise and ships only the latents uplink. Returns simulated seconds.
  double aggregate_batch(const Tensor& batch);

  /// Noise-free end-to-end reconstruction (no wire traffic).
  Tensor reconstruct(const Tensor& batch);

  /// reconstruct() decoding into `out` through the caller's context — the
  /// one encode-then-decode pipeline both overloads share.
  void reconstruct_into(const Tensor& batch, Tensor& out,
                        nn::InferContext& ctx);

  /// Mean Huber-equivalent evaluation loss over a dataset (no wire traffic,
  /// no parameter updates).
  float evaluate_loss(const data::Dataset& dataset, std::size_t batch_size);

  /// evaluate_loss with the decode half running through the caller's
  /// long-lived InferContext (the background trainer passes its per-tenant
  /// context so repeated validation sweeps stop hammering the allocator).
  /// The encode half still runs the training-path forward — it caches
  /// activations by design and is not part of the zero-allocation contract.
  float evaluate_loss(const data::Dataset& dataset, std::size_t batch_size,
                      nn::InferContext& ctx);

  std::uint64_t rounds_completed() const noexcept { return next_round_; }
  wsn::SimClock& clock() noexcept { return *clock_; }

 private:
  DataAggregator* aggregator_;
  EdgeServer* edge_;
  wsn::Channel* channel_;
  wsn::TransmissionLedger* ledger_;
  wsn::SimClock* clock_;
  ComputeModel compute_;
  std::uint64_t next_round_ = 0;
};

}  // namespace orco::core
