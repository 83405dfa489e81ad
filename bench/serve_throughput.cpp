// Serving-runtime throughput bench: batched multi-shard serving vs. the
// naive one-request-at-a-time decode loop, and open-loop (Poisson-arrival)
// tail-latency runs — with and without online fine-tuning in the
// background.
//
// Eight heterogeneous tenants (MNIST-like latent-128 decoders) receive a
// fixed closed-loop request volume from concurrent clients. The baseline
// decodes each latent individually on one thread — exactly what the
// single-cluster facade offered before src/serve existed. The runtime is
// then measured at 1/2/4/8 shards.
//
// The closed loop understates tail latency (clients stop arriving while
// they wait), so open-loop runs schedule Poisson arrivals at a fixed
// offered rate regardless of server progress and report the resulting
// p50/p99. The online-fine-tuning scenario repeats the open-loop run while
// a TrainerRuntime fine-tunes tenants in the background and hot-swaps
// their models mid-traffic: the serve p99 must stay within ~10% of the
// no-training open-loop baseline (the serve-while-retraining claim, under
// load). Emits BENCH_serve.json next to the binary's working directory so
// later PRs have a perf trajectory to beat.
//
//   requests scale with ORCO_BENCH_SCALE (bench_common.h conventions).
//   ORCO_BACKEND picks the kernel backend (default here: simd).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "bench_common.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "serve/serve.h"
#include "tensor/backend.h"
#include "train/train.h"

namespace {

using namespace orco;

constexpr std::size_t kTenants = 8;
constexpr std::size_t kClientThreads = 8;

/// The kernel backend under test, set process-wide in main(): ORCO_BACKEND
/// if set, else the simd kernel (the serving fast path).
std::string bench_backend() {
  const char* env = std::getenv("ORCO_BACKEND");
  return (env != nullptr && *env != '\0') ? env : "simd";
}

struct RunResult {
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
};

std::vector<std::shared_ptr<core::OrcoDcsSystem>> make_tenants() {
  std::vector<std::shared_ptr<core::OrcoDcsSystem>> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    core::SystemConfig cfg = bench::orco_mnist_config();
    cfg.orco.seed = 1000 + t;  // distinct decoder weights per tenant
    tenants.push_back(std::make_shared<core::OrcoDcsSystem>(cfg));
  }
  return tenants;
}

std::vector<tensor::Tensor> make_latents(std::size_t count,
                                         std::size_t latent_dim) {
  common::Pcg32 rng(77);
  std::vector<tensor::Tensor> latents;
  latents.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    latents.push_back(tensor::Tensor::randn({latent_dim}, rng));
  }
  return latents;
}

/// The pre-serve world: decode each request by itself, one after another.
double naive_rps(const std::vector<std::shared_ptr<core::OrcoDcsSystem>>& tenants,
                 const std::vector<tensor::Tensor>& latents,
                 std::size_t requests) {
  const std::size_t latent_dim = latents.front().numel();
  common::Stopwatch sw;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto& tenant = *tenants[i % tenants.size()];
    const tensor::Tensor rec = tenant.edge().decode_inference(
        latents[i % latents.size()].reshaped({1, latent_dim}));
    (void)rec;
  }
  return static_cast<double>(requests) / sw.seconds();
}

RunResult runtime_rps(
    const std::vector<std::shared_ptr<core::OrcoDcsSystem>>& tenants,
    const std::vector<tensor::Tensor>& latents, std::size_t requests,
    std::size_t shards) {
  serve::ServeConfig cfg;
  cfg.shard_count = shards;
  cfg.queue.capacity = 4096;
  cfg.queue.max_batch = 32;
  cfg.queue.max_wait_us = 200;
  serve::ServerRuntime runtime(cfg);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    runtime.register_cluster(t, tenants[t]);
  }
  runtime.start();

  common::Stopwatch sw;
  std::vector<std::thread> clients;
  const std::size_t per_client = requests / kClientThreads;
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      // Closed loop with a small pipeline window per client: keeps the
      // shards busy without modelling an open-loop arrival process.
      constexpr std::size_t kWindow = 8;
      std::vector<std::future<serve::DecodeResponse>> window;
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t g = c * per_client + i;
        window.push_back(runtime.submit(g % kTenants,
                                        latents[g % latents.size()]));
        if (window.size() >= kWindow) {
          for (auto& f : window) (void)f.get();
          window.clear();
        }
      }
      for (auto& f : window) (void)f.get();
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = sw.seconds();
  runtime.shutdown();

  const auto snapshot = runtime.telemetry().snapshot();
  RunResult r;
  r.rps = snapshot.throughput_rps(elapsed);
  r.p50_us = snapshot.p50_us;
  r.p99_us = snapshot.p99_us;
  r.mean_batch = snapshot.mean_batch_occupancy;
  return r;
}

struct OpenLoopResult {
  double offered_rps = 0.0;
  double rps = 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  std::uint64_t completed = 0, shed = 0;
  std::uint64_t train_rounds = 0, snapshots_published = 0;
};

/// Open-loop load: kClientThreads independent Poisson processes at a fixed
/// combined `rate_rps`, submitting for `duration_s` regardless of server
/// progress (the tail-honest regime the closed loop cannot measure). When
/// `with_training`, the tenants serve through a TrainerRuntime's registry
/// while background fine-tune jobs run and hot-swap models mid-traffic.
OpenLoopResult open_loop_rps(
    const std::vector<std::shared_ptr<core::OrcoDcsSystem>>& tenants,
    const std::vector<tensor::Tensor>& latents, double rate_rps,
    double duration_s, bool with_training) {
  serve::ServeConfig cfg;
  cfg.shard_count = 8;
  cfg.queue.capacity = 4096;
  cfg.queue.max_batch = 32;
  cfg.queue.max_wait_us = 200;

  std::unique_ptr<train::TrainerRuntime> trainer;
  if (with_training) {
    train::TrainerConfig tcfg;
    tcfg.worker_threads = 1;
    // Quarter duty on top of the SCHED_IDLE class: on a box with spare
    // cores the class alone isolates serving; on a saturated single core
    // the duty cycle also spaces the rounds out, bounding how often a
    // decode batch runs against a cache freshly polluted by training.
    tcfg.default_budget.duty_cycle = 0.25;
    trainer = std::make_unique<train::TrainerRuntime>(tcfg);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      trainer->register_tenant(t, tenants[t]);
    }
    cfg.model_registry = trainer->registry();
  }

  serve::ServerRuntime runtime(cfg);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    runtime.register_cluster(t, tenants[t]);
  }
  runtime.start();
  if (trainer != nullptr) {
    trainer->start();
    // One short (single-round) job per tenant: short jobs finish inside
    // the measurement window, so the run exercises the full loop —
    // background rounds AND mid-traffic hot swaps — rather than one
    // endless job that never publishes. (SCHED_IDLE trainers only get
    // leftover cycles, so rounds are scarce under load by design.)
    const data::Dataset ft_data = bench::mnist_train(bench::scaled(64));
    for (std::size_t t = 0; t < kTenants; ++t) {
      (void)trainer->submit_job(t, ft_data, /*epochs=*/1);
    }
  }

  std::atomic<std::uint64_t> shed{0};
  common::Stopwatch sw;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      common::Pcg32 rng(9000 + c);
      std::exponential_distribution<double> interarrival(
          rate_rps / static_cast<double>(kClientThreads));
      auto next = std::chrono::steady_clock::now();
      const auto end =
          next + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(duration_s));
      std::vector<std::future<serve::DecodeResponse>> futures;
      std::uint64_t g = c;
      for (;;) {
        next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(interarrival(rng)));
        if (next >= end) break;
        // Arrivals never wait for responses: sleep to the scheduled
        // instant (a lagging server makes this a no-op and the backlog
        // shows up as queueing latency, exactly as it should).
        std::this_thread::sleep_until(next);
        futures.push_back(
            runtime.submit(g % kTenants, latents[g % latents.size()]));
        g += kClientThreads;
      }
      for (auto& f : futures) {
        if (f.get().status == serve::ResponseStatus::kShed) shed.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = sw.seconds();
  runtime.shutdown();

  OpenLoopResult r;
  r.offered_rps = rate_rps;
  const auto snapshot = runtime.telemetry().snapshot();
  r.rps = snapshot.throughput_rps(elapsed);
  r.p50_us = snapshot.p50_us;
  r.p99_us = snapshot.p99_us;
  r.completed = snapshot.completed;
  r.shed = shed.load();
  if (trainer != nullptr) {
    // Stats before shutdown: shutdown drains the queue but the fine-tuning
    // that overlapped the window is what we want on record. Registration
    // snapshots are subtracted so the count reflects mid-traffic swaps.
    const auto tstats = trainer->stats();
    r.train_rounds = tstats.rounds_run;
    r.snapshots_published = tstats.snapshots_published - kTenants;
    trainer->shutdown();
  }
  return r;
}

constexpr double kObsTraceSampleRate = 1.0 / 64.0;

/// Closed-loop run that measures throughput without consulting Telemetry
/// (whose counters are off when observability is disabled): requests /
/// wall-clock, same 8-shard setup as the shard sweep. Used for the
/// observability-overhead comparison, where both sides must be measured
/// identically.
double closed_loop_rps_counted(
    const std::vector<std::shared_ptr<core::OrcoDcsSystem>>& tenants,
    const std::vector<tensor::Tensor>& latents, std::size_t requests,
    const obs::ExportConfig* export_cfg) {
  serve::ServeConfig cfg;
  cfg.shard_count = 8;
  cfg.queue.capacity = 4096;
  cfg.queue.max_batch = 32;
  cfg.queue.max_wait_us = 200;
  if (export_cfg != nullptr) cfg.obs_export = *export_cfg;
  serve::ServerRuntime runtime(cfg);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    runtime.register_cluster(t, tenants[t]);
  }
  runtime.start();

  common::Stopwatch sw;
  std::vector<std::thread> clients;
  const std::size_t per_client = requests / kClientThreads;
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      constexpr std::size_t kWindow = 8;
      std::vector<std::future<serve::DecodeResponse>> window;
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t g = c * per_client + i;
        window.push_back(runtime.submit(g % kTenants,
                                        latents[g % latents.size()]));
        if (window.size() >= kWindow) {
          for (auto& f : window) (void)f.get();
          window.clear();
        }
      }
      for (auto& f : window) (void)f.get();
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = sw.seconds();
  runtime.shutdown();
  return static_cast<double>(per_client * kClientThreads) / elapsed;
}

struct ObsOverheadResult {
  double rps_off = 0.0;
  double rps_on = 0.0;
  double ratio() const { return rps_off > 0.0 ? rps_on / rps_off : 0.0; }
};

/// The overhead contract: the full serving path with metrics recording on
/// and request tracing at 1/64 sampling must stay within 2% of the same
/// binary with observability disabled. CI-class boxes time-share one core
/// across all 16 client+shard threads, so individual windows wobble far
/// more than the effect being measured: the comparison interleaves
/// `repeats` pairs, alternates which side runs first (shedding
/// first-run/turbo order bias), and keeps the best of each side — the
/// max is each configuration's least-preempted window. The obs-on side of
/// the last pair also exports metrics.json / metrics.prom / trace.json so
/// the bench doubles as an exporter smoke test.
ObsOverheadResult observability_overhead(
    const std::vector<std::shared_ptr<core::OrcoDcsSystem>>& tenants,
    const std::vector<tensor::Tensor>& latents, std::size_t requests,
    std::size_t repeats = 5) {
  obs::ObsConfig off;
  off.metrics = false;
  off.trace_sample_rate = 0.0;
  obs::ObsConfig on;
  on.metrics = true;
  on.trace_sample_rate = kObsTraceSampleRate;

  obs::ExportConfig export_cfg;
  export_cfg.metrics_json_path = "metrics.json";
  export_cfg.prometheus_path = "metrics.prom";
  export_cfg.trace_path = "trace.json";

  const auto run_off = [&] {
    obs::configure(off);
    return closed_loop_rps_counted(tenants, latents, requests, nullptr);
  };
  const auto run_on = [&](bool exporting) {
    obs::configure(on);
    return closed_loop_rps_counted(tenants, latents, requests,
                                   exporting ? &export_cfg : nullptr);
  };

  ObsOverheadResult best;
  for (std::size_t i = 0; i < repeats; ++i) {
    const bool last = i + 1 == repeats;
    double rps_off = 0.0, rps_on = 0.0;
    if (i % 2 == 0) {
      rps_off = run_off();
      rps_on = run_on(last);
    } else {
      rps_on = run_on(last);
      rps_off = run_off();
    }
    best.rps_off = std::max(best.rps_off, rps_off);
    best.rps_on = std::max(best.rps_on, rps_on);
  }
  obs::configure(obs::ObsConfig{});
  return best;
}

/// Shared 1-core CI-class boxes are timing-noisy; each open-loop scenario
/// keeps the best (lowest-p99) of `repeats` back-to-back runs, which
/// measures the runtime rather than the host's co-tenants.
OpenLoopResult open_loop_best(
    const std::vector<std::shared_ptr<core::OrcoDcsSystem>>& tenants,
    const std::vector<tensor::Tensor>& latents, double rate_rps,
    double duration_s, bool with_training, std::size_t repeats = 3) {
  OpenLoopResult best;
  for (std::size_t i = 0; i < repeats; ++i) {
    const OpenLoopResult r =
        open_loop_rps(tenants, latents, rate_rps, duration_s, with_training);
    if (i == 0 || r.p99_us < best.p99_us) best = r;
  }
  return best;
}

}  // namespace

int main() {
  using common::Table;

  tensor::set_backend(bench_backend());
  const std::size_t requests = bench::scaled(4000);
  const auto tenants = make_tenants();
  const auto latents =
      make_latents(256, tenants.front()->config().orco.latent_dim);

  common::print_section(std::cout, "Serving throughput, " +
                                       std::to_string(kTenants) + " tenants, " +
                                       std::to_string(requests) + " requests, " +
                                       bench_backend() + " backend");

  // Warm-up (page in weights) then measure the naive loop.
  (void)naive_rps(tenants, latents, 64);
  const double baseline = naive_rps(tenants, latents, requests / 4);
  std::cout << "naive one-at-a-time loop: " << Table::num(baseline, 1)
            << " req/s\n\n";

  Table table({"shards", "req/s", "p50 us", "p99 us", "mean batch", "speedup"});
  std::ofstream json("BENCH_serve.json");
  json << "{\n  \"tenants\": " << kTenants
       << ",\n  \"requests\": " << requests
       << ",\n  \"backend\": \"" << bench_backend() << "\""
       << ",\n  \"baseline_rps\": " << baseline << ",\n  \"runs\": [\n";
  double speedup_at_8 = 0.0;
  double rps_at_8 = 0.0;
  const std::size_t shard_counts[] = {1, 2, 4, 8};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t shards = shard_counts[i];
    const RunResult r = runtime_rps(tenants, latents, requests, shards);
    const double speedup = r.rps / baseline;
    if (shards == 8) {
      speedup_at_8 = speedup;
      rps_at_8 = r.rps;
    }
    table.add_row({std::to_string(shards), Table::num(r.rps, 1),
                   Table::num(r.p50_us, 1), Table::num(r.p99_us, 1),
                   Table::num(r.mean_batch, 2), Table::num(speedup, 2)});
    json << "    {\"shards\": " << shards << ", \"rps\": " << r.rps
         << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
         << ", \"mean_batch\": " << r.mean_batch
         << ", \"speedup\": " << speedup << "}" << (i + 1 < 4 ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"speedup_at_8_shards\": " << speedup_at_8 << ",\n";
  table.print(std::cout);
  // The naive loop decodes with prepacked weights too (PR 3), so this ratio
  // isolates what sharding+batching add on top of the prepacked kernel; the
  // absolute req/s row is what later PRs must beat.
  std::cout << "\nspeedup at 8 shards vs naive loop: "
            << Table::num(speedup_at_8, 2) << "x\n";

  // -- open loop: Poisson arrivals at a fraction of closed-loop capacity --
  const double open_loop_s = 3.0;
  common::print_section(std::cout, "Open-loop (Poisson) tail latency, 8 "
                                   "shards, " +
                                       Table::num(open_loop_s, 0) +
                                       " s per run");
  Table otable({"scenario", "offered req/s", "req/s", "p50 us", "p99 us",
                "shed"});
  const double open_rates[] = {0.4 * rps_at_8, 0.7 * rps_at_8};
  json << "  \"open_loop\": [\n";
  for (std::size_t i = 0; i < 2; ++i) {
    const OpenLoopResult r = open_loop_best(tenants, latents, open_rates[i],
                                            open_loop_s,
                                            /*with_training=*/false);
    otable.add_row({"open " + Table::num(open_rates[i] / rps_at_8, 1) +
                        "x capacity",
                    Table::num(r.offered_rps, 1), Table::num(r.rps, 1),
                    Table::num(r.p50_us, 1), Table::num(r.p99_us, 1),
                    std::to_string(r.shed)});
    json << "    {\"offered_rps\": " << r.offered_rps << ", \"rps\": " << r.rps
         << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
         << ", \"completed\": " << r.completed << ", \"shed\": " << r.shed
         << "}" << (i + 1 < 2 ? "," : "") << "\n";
  }
  json << "  ],\n";

  // -- online fine-tuning: the same open-loop load while a TrainerRuntime
  // retrains tenants in the background and hot-swaps their models.
  // Host timing noise between windows swamps a single comparison on a
  // shared box (p99 wobbles by milliseconds run to run), so the scenario
  // measures PAIRED back-to-back (no-training, training) windows and
  // reports the median pair's p99 ratio — adjacent windows share the
  // host's weather, the median sheds the outliers.
  struct FinetunePair {
    OpenLoopResult base, finetune;
    double ratio = 0.0;
  };
  std::vector<FinetunePair> pairs(3);
  for (auto& pair : pairs) {
    pair.base = open_loop_rps(tenants, latents, open_rates[0], open_loop_s,
                              /*with_training=*/false);
    pair.finetune = open_loop_rps(tenants, latents, open_rates[0], open_loop_s,
                                  /*with_training=*/true);
    pair.ratio = pair.base.p99_us > 0.0
                     ? pair.finetune.p99_us / pair.base.p99_us
                     : 0.0;
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const FinetunePair& a, const FinetunePair& b) {
              return a.ratio < b.ratio;
            });
  const FinetunePair& median = pairs[pairs.size() / 2];
  const double p99_ratio = median.ratio;
  otable.add_row({"open 0.4x + fine-tuning",
                  Table::num(median.finetune.offered_rps, 1),
                  Table::num(median.finetune.rps, 1),
                  Table::num(median.finetune.p50_us, 1),
                  Table::num(median.finetune.p99_us, 1),
                  std::to_string(median.finetune.shed)});
  otable.print(std::cout);
  std::cout << "\nonline fine-tuning ran " << median.finetune.train_rounds
            << " protocol rounds and published "
            << median.finetune.snapshots_published
            << " hot swaps during the median window; serve p99 "
            << Table::num(median.finetune.p99_us, 1) << " us vs "
            << Table::num(median.base.p99_us, 1)
            << " us in the paired no-training window ("
            << Table::num(p99_ratio, 2) << "x median of " << pairs.size()
            << " pairs"
            << (p99_ratio <= 1.10 ? ", within the 10% budget"
                                  : " — OVER the 10% budget")
            << ")\n";
  json << "  \"online_finetune\": {\"offered_rps\": "
       << median.finetune.offered_rps << ", \"rps\": " << median.finetune.rps
       << ", \"p50_us\": " << median.finetune.p50_us
       << ", \"p99_us\": " << median.finetune.p99_us
       << ", \"baseline_p99_us\": " << median.base.p99_us
       << ", \"p99_ratio_median_of_pairs\": " << p99_ratio
       << ", \"pairs\": " << pairs.size()
       << ", \"shed\": " << median.finetune.shed
       << ", \"train_rounds\": " << median.finetune.train_rounds
       << ", \"snapshots_published\": " << median.finetune.snapshots_published
       << "},\n";

  // -- observability overhead: metrics + 1/64 tracing vs everything off --
  common::print_section(
      std::cout, "Observability overhead, 8-shard closed loop, metrics on + "
                 "1/64 trace sampling vs disabled");
  // Double-length windows: the ~2% effect needs more signal per window
  // than the shard sweep's runs.
  const ObsOverheadResult obs_overhead =
      observability_overhead(tenants, latents, requests * 2);
  Table obstable({"observability", "req/s"});
  obstable.add_row({"disabled", Table::num(obs_overhead.rps_off, 1)});
  obstable.add_row({"metrics + trace 1/64", Table::num(obs_overhead.rps_on, 1)});
  obstable.print(std::cout);
  std::cout << "\nthroughput ratio (on/off): "
            << Table::num(obs_overhead.ratio(), 3)
            << (obs_overhead.ratio() >= 0.98 ? " (within the 2% budget)"
                                             : " — OVER the 2% budget")
            << "\nexported metrics.json, metrics.prom, trace.json from the "
               "instrumented run\n";
  json << "  \"observability\": {\"rps_obs_off\": " << obs_overhead.rps_off
       << ", \"rps_obs_on\": " << obs_overhead.rps_on
       << ", \"ratio\": " << obs_overhead.ratio()
       << ", \"trace_sample\": " << kObsTraceSampleRate << "}\n}\n";
  return 0;
}
