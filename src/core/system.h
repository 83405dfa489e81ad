// OrcoDcsSystem — the high-level public API tying the whole framework
// together: WSN cluster, data aggregator, edge server, orchestration
// protocol and fine-tuning monitor. Examples and benches drive this facade;
// individual components remain accessible for advanced use.
#pragma once

#include <functional>
#include <memory>

#include "core/config.h"
#include "core/monitor.h"
#include "core/orchestrator.h"
#include "data/dataset.h"
#include "wsn/aggregation_tree.h"
#include "wsn/field.h"

namespace orco::core {

struct SystemConfig {
  OrcoConfig orco;
  wsn::FieldConfig field;
  wsn::ChannelConfig channel;
  wsn::RadioModel radio;
  ComputeModel compute;
};

struct TrainSummary {
  std::vector<RoundRecord> rounds;
  float final_loss = 0.0f;
  double sim_seconds = 0.0;  // simulated clock at end of training
};

class OrcoDcsSystem {
 public:
  explicit OrcoDcsSystem(const SystemConfig& config);

  /// Stage 1 (§III-A): one intra-cluster raw aggregation round moving
  /// `total_payload_bytes` of raw sensing data up the tree. Advances the
  /// clock and charges the ledger. Returns simulated seconds.
  double raw_aggregation_round(std::size_t bytes_per_device_reading);

  /// Stage 2 (§III-B): online orchestrated training.
  TrainSummary train_online(
      const data::Dataset& train, std::size_t epochs,
      const std::function<void(const RoundRecord&)>& on_round = nullptr);

  /// Stage 3 (§III-C): broadcasts the trained encoder columns to devices
  /// and returns simulated seconds; then compressed rounds can run.
  double distribute_encoder();

  /// Steady-state intra-cluster hybrid CS aggregation of one cluster-wide
  /// reading (scalar per device), followed by the uplink of the latent.
  double compressed_aggregation_round();

  /// Aggregates a batch of already-collected images to the edge (encode +
  /// uplink), as in the Fig. 3 transmission experiment.
  double aggregate_images(const Tensor& batch);

  /// Noise-free end-to-end reconstruction.
  Tensor reconstruct(const Tensor& images);

  /// Mean evaluation loss over a dataset.
  float evaluate_loss(const data::Dataset& dataset);

  /// evaluate_loss decoding through a caller-owned InferContext (see
  /// Orchestrator::evaluate_loss): the TrainerRuntime's validation path
  /// reuses one context per tenant across jobs.
  float evaluate_loss(const data::Dataset& dataset, nn::InferContext& ctx);

  /// §III-D: feed a periodic reconstruction-error observation; returns true
  /// when the monitor demands a training relaunch.
  bool monitor_observe(float loss) { return monitor_.should(*this, loss); }

  /// Deep-copies the current decoder / encoder into a freshly built model
  /// with identical weights (bitwise: parameters are copied through the
  /// model_io round-trip, and build_* reconstructs the exact layer chain).
  /// This is the export side of the serve-while-retraining hot swap: the
  /// training runtime clones here, freezes the clone into a
  /// train::ModelSnapshot and publishes it, so serving never shares
  /// mutable weights with training. Callers must not run these
  /// concurrently with training rounds on this system.
  std::unique_ptr<nn::Sequential> export_decoder_clone();
  std::unique_ptr<nn::Sequential> export_encoder_clone();

  /// Current decoder generation (EdgeServer::model_version).
  std::uint64_t model_version() const noexcept {
    return edge_->model_version();
  }

  // -- component access ---------------------------------------------------
  DataAggregator& aggregator() noexcept { return *aggregator_; }
  EdgeServer& edge() noexcept { return *edge_; }
  const EdgeServer& edge() const noexcept { return *edge_; }
  Orchestrator& orchestrator() noexcept { return *orchestrator_; }
  FineTuningMonitor& monitor() noexcept { return monitor_.inner; }
  const wsn::TransmissionLedger& ledger() const noexcept { return ledger_; }
  wsn::TransmissionLedger& ledger() noexcept { return ledger_; }
  const wsn::Field& field() const noexcept { return field_; }
  const wsn::AggregationTree& tree() const noexcept { return *tree_; }
  double sim_time() const noexcept { return clock_.now(); }
  const SystemConfig& config() const noexcept { return config_; }

 private:
  struct MonitorShim {
    explicit MonitorShim(const OrcoConfig& c)
        : inner(c.relaunch_factor, c.monitor_window, c.monitor_cooldown) {}
    bool should(OrcoDcsSystem&, float loss) {
      return inner.has_baseline() ? inner.observe(loss) : false;
    }
    FineTuningMonitor inner;
  };

  SystemConfig config_;
  wsn::Field field_;
  wsn::RadioModel radio_;
  std::unique_ptr<wsn::AggregationTree> tree_;
  wsn::TransmissionLedger ledger_;
  wsn::Channel channel_;
  wsn::SimClock clock_;
  std::unique_ptr<DataAggregator> aggregator_;
  std::unique_ptr<EdgeServer> edge_;
  std::unique_ptr<Orchestrator> orchestrator_;
  MonitorShim monitor_;
};

}  // namespace orco::core
