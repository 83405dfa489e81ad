// Online fine-tuning while serving (the paper's serve-while-retraining
// loop, end to end): a cluster serves live reconstruction traffic through
// the multi-tenant runtime while a background TrainerRuntime watches the
// observed reconstruction error. When the sensing environment drifts, the
// §III-D monitor triggers a fine-tune job over the drifted stream; the job
// runs concurrently with serving (duty-cycle budgeted), and on completion
// the retrained encoder/decoder pair is atomically hot-swapped into the
// serve path via the ModelRegistry — the client sees the model version
// bump in its responses, refreshes its encoder (the §III-C re-broadcast),
// and reconstruction error recovers without the server ever refusing a
// request.
//
// Build & run:  ./build/examples/online_finetune_serving
#include <cmath>
#include <deque>
#include <iostream>
#include <set>

#include "data/drift.h"
#include "data/synthetic_mnist.h"
#include "serve/serve.h"
#include "train/train.h"

namespace {

using namespace orco;
using tensor::Tensor;

constexpr serve::ClusterId kCluster = 1;

/// The same mean Huber objective evaluate_loss reports (eq. 4, delta 1),
/// computed client-side from a served reconstruction — this is the signal
/// the drift monitor consumes.
float huber_mean(const Tensor& x, const Tensor& xr, float delta = 1.0f) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float a = std::fabs(x[i] - xr[i]);
    acc += a <= delta ? 0.5 * static_cast<double>(a) * a
                      : static_cast<double>(delta) * a - 0.5 * delta * delta;
  }
  return static_cast<float>(acc / static_cast<double>(x.numel()));
}

/// The client's view of the deployed model: it encodes with the encoder of
/// the snapshot it last "received" (§III-C broadcast) and refreshes when
/// the registry publishes a newer generation.
struct Client {
  std::shared_ptr<const train::ModelSnapshot> snapshot;
  std::set<std::uint64_t> versions_seen;
  std::size_t swaps = 0;

  void maybe_refresh(train::ModelRegistry& registry) {
    auto current = registry.current(kCluster);
    if (current == nullptr) return;
    if (snapshot == nullptr || current->version != snapshot->version) {
      if (snapshot != nullptr) {
        ++swaps;
        std::cout << "  [client] model swap observed: v" << snapshot->version
                  << " -> v" << current->version << ", encoder refreshed\n";
      }
      snapshot = std::move(current);
    }
  }
};

struct TrafficStats {
  float mean_loss = 0.0f;
  std::size_t served = 0;
};

/// Drives `requests` encode->serve->compare rounds from `dataset`, feeding
/// every observed loss to the drift monitor. Returns the mean loss over
/// the final `tail` requests (steady-state view).
TrafficStats run_traffic(const data::Dataset& dataset, std::size_t requests,
                         std::size_t tail, serve::ServerRuntime& runtime,
                         train::TrainerRuntime& trainer, Client& client,
                         common::Pcg32& rng) {
  std::deque<float> recent;
  TrafficStats stats;
  for (std::size_t i = 0; i < requests; ++i) {
    client.maybe_refresh(*trainer.registry());
    const std::size_t pick = rng.next() % dataset.size();
    const Tensor image = dataset.image(pick);
    const Tensor latent =
        client.snapshot->encoder->infer(image.reshaped({1, image.numel()}));
    serve::DecodeResponse response =
        runtime.submit(kCluster, latent.reshaped({latent.numel()})).get();
    if (response.status != serve::ResponseStatus::kOk) continue;
    ++stats.served;
    client.versions_seen.insert(response.model_version);
    const float loss = huber_mean(image, response.reconstruction);
    (void)trainer.observe_loss(kCluster, loss);
    recent.push_back(loss);
    if (recent.size() > tail) recent.pop_front();
  }
  for (const float loss : recent) stats.mean_loss += loss;
  if (!recent.empty()) {
    stats.mean_loss /= static_cast<float>(recent.size());
  }
  return stats;
}

}  // namespace

int main() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 128;
  cfg.orco.decoder_layers = 2;
  cfg.orco.batch_size = 64;
  cfg.orco.noise_variance = 0.01f;
  cfg.orco.relaunch_factor = 1.5f;  // relaunch when error > 1.5x baseline
  // Per-request losses are single-image samples and vary a lot more than
  // the dataset mean the monitor was baselined on: a wide window keeps an
  // unlucky run of hard images from triggering a relaunch on clean data.
  cfg.orco.monitor_window = 12;
  cfg.orco.monitor_cooldown = 48;   // one relaunch per drift episode
  cfg.field.device_count = 24;
  cfg.field.radio_range_m = 45.0;
  auto system = std::make_shared<core::OrcoDcsSystem>(cfg);

  data::MnistConfig data_cfg;
  data_cfg.count = 800;
  const auto clean = data::make_synthetic_mnist(data_cfg);

  std::cout << "phase 1: initial online training on the clean environment\n";
  (void)system->train_online(clean, 8);
  const float baseline = system->evaluate_loss(clean);
  std::cout << "  baseline error: " << baseline << "\n\n";

  // Background fine-tuning: 1 worker, half-duty so serving keeps its
  // cores, 3 epochs per drift-triggered job.
  train::TrainerConfig tcfg;
  tcfg.worker_threads = 1;
  tcfg.default_budget.duty_cycle = 0.5;
  tcfg.drift_epochs = 3;
  train::TrainerRuntime trainer(tcfg);
  trainer.register_tenant(kCluster, system);
  trainer.set_baseline(kCluster, baseline);
  trainer.update_stream(kCluster, clean);

  serve::ServeConfig scfg;
  scfg.shard_count = 2;
  scfg.queue.max_wait_us = 100;
  scfg.model_registry = trainer.registry();
  serve::ServerRuntime runtime(scfg);
  runtime.register_cluster(kCluster, system);
  runtime.start();
  trainer.start();

  Client client;
  client.maybe_refresh(*trainer.registry());
  std::cout << "phase 2: serving clean traffic (model v"
            << client.snapshot->version << ")\n";
  common::Pcg32 traffic_rng(1234);
  const TrafficStats clean_stats =
      run_traffic(clean, 150, 100, runtime, trainer, client, traffic_rng);
  std::cout << "  served " << clean_stats.served << "/150, mean error "
            << clean_stats.mean_loss << " (no relaunch expected: triggers so "
            << "far = " << trainer.stats().drift_triggers << ")\n\n";

  std::cout << "phase 3: the environment drifts (dimmer light, biased "
               "sensors, more noise)\n";
  common::Pcg32 drift_rng(7);
  const auto drifted =
      data::apply_drift(clean, data::DriftConfig{0.4f, 0.3f, 0.3f}, drift_rng);
  trainer.update_stream(kCluster, drifted);  // the edge's sensed window moves
  const TrafficStats drifted_stats =
      run_traffic(drifted, 60, 40, runtime, trainer, client, traffic_rng);
  std::cout << "  served " << drifted_stats.served << "/60, mean error "
            << drifted_stats.mean_loss << " ("
            << drifted_stats.mean_loss / baseline << "x baseline), drift "
            << "triggers = " << trainer.stats().drift_triggers << "\n\n";
  if (trainer.stats().drift_triggers == 0) {
    std::cout << "  monitor never triggered — tune relaunch_factor\n";
    return 1;
  }

  std::cout << "phase 4: serving continues while the fine-tune job runs in "
               "the background\n";
  // Keep the drifted traffic flowing until the hot swap lands mid-stream
  // (the client re-encodes with the re-broadcast encoder) and the observed
  // error recovers — bounded by a generous wall-clock deadline.
  TrafficStats recovered_stats;
  const std::uint64_t version_before = client.snapshot->version;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    recovered_stats =
        run_traffic(drifted, 60, 40, runtime, trainer, client, traffic_rng);
    if (client.snapshot->version != version_before &&
        recovered_stats.mean_loss < 0.7f * drifted_stats.mean_loss) {
      break;
    }
  }
  std::cout << "  post-swap mean error on drifted data: "
            << recovered_stats.mean_loss << " (was " << drifted_stats.mean_loss
            << " pre-fine-tune; " << recovered_stats.mean_loss / baseline
            << "x original baseline)\n\n";

  runtime.shutdown();
  trainer.shutdown();

  const auto serve_snapshot = runtime.telemetry().snapshot();
  const auto trainer_stats = trainer.stats();
  std::cout << "summary\n";
  std::cout << "  requests completed:   " << serve_snapshot.completed
            << " (shed " << serve_snapshot.shed << ", rejected "
            << serve_snapshot.rejected << ")\n";
  std::cout << "  model versions seen:  " << client.versions_seen.size()
            << " (swaps at the client: " << client.swaps << ")\n";
  std::cout << "  fine-tune jobs:       " << trainer_stats.jobs_completed
            << " (" << trainer_stats.rounds_run << " rounds, "
            << trainer_stats.snapshots_published << " snapshots published)\n";
  runtime.telemetry().tenant_report().print(std::cout);

  const bool recovered =
      client.swaps > 0 && recovered_stats.mean_loss < drifted_stats.mean_loss;
  std::cout << "\n"
            << (recovered ? "drift recovered while serving never stopped"
                          : "recovery FAILED")
            << "\n";
  return recovered ? 0 : 1;
}
