// Observability tour: the drift -> fine-tune -> hot-swap loop from
// online_finetune_serving, re-run with the full src/obs stack armed —
// metrics recording, request-lifecycle tracing at full sampling, and
// kernel/per-layer profiling. Every serve request leaves a span tree
// (queue_wait / assembly / decode / respond under a request span), the
// trainer marks its job / round / eval / publish phases, and the decoder's
// GEMMs report call counts and GFLOP/s. After the run the example prints
// the per-tenant latency and stage-breakdown tables and the kernel/layer
// profiles, and exports:
//
//   obs_tour_metrics.json  - metrics snapshot (counters/gauges/histograms)
//   obs_tour_metrics.prom  - the same in Prometheus exposition format
//   obs_tour_trace.json    - Chrome trace-event JSON covering the whole
//                            run, including the hot-swap window; load it
//                            in Perfetto (ui.perfetto.dev) or
//                            chrome://tracing
//
// Build & run:  ./build/examples/observability_tour
#include <cmath>
#include <iostream>
#include <set>

#include "data/drift.h"
#include "data/synthetic_mnist.h"
#include "obs/config.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/serve.h"
#include "train/train.h"

namespace {

using namespace orco;
using tensor::Tensor;

constexpr serve::ClusterId kCluster = 1;

/// Mean Huber loss (eq. 4, delta 1) of a served reconstruction — the drift
/// signal the trainer's monitor consumes.
float huber_mean(const Tensor& x, const Tensor& xr, float delta = 1.0f) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float a = std::fabs(x[i] - xr[i]);
    acc += a <= delta ? 0.5 * static_cast<double>(a) * a
                      : static_cast<double>(delta) * a - 0.5 * delta * delta;
  }
  return static_cast<float>(acc / static_cast<double>(x.numel()));
}

/// Drives encode->serve->observe rounds; reports how many were served and
/// the versions that answered (the hot swap shows up as a second version).
struct TrafficResult {
  std::size_t served = 0;
  std::set<std::uint64_t> versions;
};

TrafficResult run_traffic(const data::Dataset& dataset, std::size_t requests,
                          serve::ServerRuntime& runtime,
                          train::TrainerRuntime& trainer,
                          common::Pcg32& rng) {
  TrafficResult result;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto snapshot = trainer.registry()->current(kCluster);
    const std::size_t pick = rng.next() % dataset.size();
    const Tensor image = dataset.image(pick);
    const Tensor latent =
        snapshot->encoder->infer(image.reshaped({1, image.numel()}));
    serve::DecodeResponse response =
        runtime.submit(kCluster, latent.reshaped({latent.numel()})).get();
    if (response.status != serve::ResponseStatus::kOk) continue;
    ++result.served;
    result.versions.insert(response.model_version);
    (void)trainer.observe_loss(kCluster,
                               huber_mean(image, response.reconstruction));
  }
  return result;
}

}  // namespace

int main() {
  // Arm everything: metrics, every request traced, kernels profiled. A
  // production deployment would sample (trace_sample_rate = 1/64 keeps the
  // serve path within 2% of uninstrumented throughput — see
  // bench/serve_throughput); full sampling here makes the exported trace
  // easy to explore.
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs_cfg.trace_sample_rate = 1.0;
  obs_cfg.kernel_profiling = true;
  obs::configure(obs_cfg);
  obs::TraceCollector::instance().clear();
  obs::kernel_reset();

  core::SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 128;
  cfg.orco.decoder_layers = 2;
  cfg.orco.batch_size = 64;
  cfg.orco.noise_variance = 0.01f;
  cfg.orco.relaunch_factor = 1.5f;
  cfg.orco.monitor_window = 12;
  cfg.orco.monitor_cooldown = 48;
  cfg.field.device_count = 24;
  cfg.field.radio_range_m = 45.0;
  auto system = std::make_shared<core::OrcoDcsSystem>(cfg);

  data::MnistConfig data_cfg;
  data_cfg.count = 600;
  const auto clean = data::make_synthetic_mnist(data_cfg);

  std::cout << "phase 1: initial training on the clean environment\n";
  (void)system->train_online(clean, 6);
  const float baseline = system->evaluate_loss(clean);
  std::cout << "  baseline error: " << baseline << "\n\n";

  train::TrainerConfig tcfg;
  tcfg.worker_threads = 1;
  tcfg.default_budget.duty_cycle = 0.5;
  tcfg.drift_epochs = 2;
  train::TrainerRuntime trainer(tcfg);
  trainer.register_tenant(kCluster, system);
  trainer.set_baseline(kCluster, baseline);
  trainer.update_stream(kCluster, clean);

  serve::ServeConfig scfg;
  scfg.shard_count = 2;
  scfg.queue.max_wait_us = 100;
  scfg.model_registry = trainer.registry();
  // The runtime writes these files once, at shutdown, when the counters
  // are final and every trace ring is retired.
  scfg.obs_export.metrics_json_path = "obs_tour_metrics.json";
  scfg.obs_export.prometheus_path = "obs_tour_metrics.prom";
  scfg.obs_export.trace_path = "obs_tour_trace.json";
  serve::ServerRuntime runtime(scfg);
  runtime.register_cluster(kCluster, system);
  runtime.start();
  trainer.start();

  std::cout << "phase 2: serving clean traffic, every request traced\n";
  common::Pcg32 traffic_rng(1234);
  const TrafficResult clean_traffic =
      run_traffic(clean, 120, runtime, trainer, traffic_rng);
  std::cout << "  served " << clean_traffic.served << "/120\n\n";

  std::cout << "phase 3: the environment drifts; the monitor triggers a "
               "background fine-tune\n";
  common::Pcg32 drift_rng(7);
  const auto drifted =
      data::apply_drift(clean, data::DriftConfig{0.4f, 0.3f, 0.3f}, drift_rng);
  trainer.update_stream(kCluster, drifted);
  TrafficResult drift_traffic =
      run_traffic(drifted, 60, runtime, trainer, traffic_rng);
  std::cout << "  drift triggers = " << trainer.stats().drift_triggers
            << "\n\n";

  std::cout << "phase 4: serving through the fine-tune and hot swap (the "
               "trace shows train.job/round/eval/publish spans overlapping "
               "serve spans)\n";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline &&
         drift_traffic.versions.size() < 2) {
    const TrafficResult more =
        run_traffic(drifted, 60, runtime, trainer, traffic_rng);
    drift_traffic.served += more.served;
    drift_traffic.versions.insert(more.versions.begin(),
                                  more.versions.end());
  }
  std::cout << "  model versions that answered drifted traffic: "
            << drift_traffic.versions.size()
            << (drift_traffic.versions.size() > 1 ? " (hot swap captured)"
                                                  : " (no swap landed)")
            << "\n\n";

  runtime.shutdown();  // final export happens here
  trainer.shutdown();

  common::print_section(std::cout, "Serving telemetry (per tenant)");
  runtime.telemetry().tenant_report().print(std::cout);

  common::print_section(std::cout,
                        "Per-stage latency breakdown (batch-amortized)");
  runtime.telemetry().stage_report().print(std::cout);

  common::print_section(std::cout, "Kernel profile (per backend op)");
  obs::kernel_report().print(std::cout);

  // The snapshot's plan is the one the shards actually executed (the edge's
  // own lazily-compiled plan only covers registry-free decodes and gets
  // recompiled whenever training bumps the weight version).
  common::print_section(std::cout, "Decoder inference-plan op profile");
  trainer.registry()->current(kCluster)->plan->op_profile_table().print(
      std::cout);

  std::cout << "\ntrace events recorded: "
            << obs::TraceCollector::instance().event_count()
            << "\nwrote obs_tour_metrics.json, obs_tour_metrics.prom, "
               "obs_tour_trace.json (load the trace in ui.perfetto.dev)\n";

  obs::configure(obs::ObsConfig{});
  return drift_traffic.versions.size() > 1 ? 0 : 1;
}
