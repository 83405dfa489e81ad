// serve_closed_gtsrb: the ServerRuntime workload. It keeps 4 clients x 8
// requests in flight against 8 GTSRB-shaped tenants (512->1792->1792->3072,
// ~38 MB of weights each, so the working set dwarfs the last-level cache):
// decode is ~19 MFLOP per request, so nn + tensor do most of the work and
// batch occupancy decides throughput.
#include <array>
#include <deque>
#include <future>
#include <thread>

#include "data/synthetic_gtsrb.h"
#include "harness.h"
#include "serve/serve.h"

namespace orcobench {

namespace {

using namespace std::chrono_literals;
using orco::serve::DecodeResponse;
using orco::serve::ResponseStatus;
using orco::tensor::Tensor;

constexpr std::size_t kSamplesPerThread = 16;  // oracle reservoir size

orco::core::SystemConfig tenant_config(std::size_t input_dim,
                                       std::size_t latent_dim,
                                       std::uint64_t seed) {
  orco::core::SystemConfig cfg;
  cfg.orco.input_dim = input_dim;
  cfg.orco.latent_dim = latent_dim;
  cfg.orco.decoder_layers = 3;
  cfg.orco.noise_variance = 0.01f;
  cfg.orco.seed = seed;
  cfg.field.device_count = 24;
  cfg.field.radio_range_m = 45.0;
  return cfg;
}

/// Per-thread answer accounting. Every future the bench submits is resolved
/// through account() exactly once.
struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0, shed = 0, rejected = 0, error = 0, shutdown = 0;
  std::uint64_t ok_in_window = 0;
  std::vector<double> latency_us, done_s, server_us, submit_us, gap_us, batch;
  std::vector<DecodeSample> samples;
  Reservoir reservoir{kSamplesPerThread, 0x5eed};

  /// Stores `sample` where the reservoir put it (`slot` from reservoir).
  void keep(long slot, DecodeSample&& sample) {
    if (slot == static_cast<long>(samples.size())) {
      samples.push_back(std::move(sample));
    } else {
      samples[static_cast<std::size_t>(slot)] = std::move(sample);
    }
  }

  /// Accounts one answer. A request's latency runs from when it was due
  /// (its submit call): the submit call `submit`, then the server's own
  /// enqueue-to-ready time. `observed` is due-to-seen on the waiting bench
  /// thread; the difference is the response handoff gap. `done` (seconds
  /// from the window start) counts toward throughput when below `window`.
  void account(const DecodeResponse& r, double submit, double observed,
               double done, double window) {
    const double latency = submit + r.latency_us;
    switch (r.status) {
      case ResponseStatus::kOk: ++ok; break;
      case ResponseStatus::kShed: ++shed; break;
      case ResponseStatus::kShutdown: ++shutdown; break;
      case ResponseStatus::kInternalError: ++error; break;
      case ResponseStatus::kUnknownCluster:
      case ResponseStatus::kBadRequest: ++rejected; break;
    }
    if (r.status != ResponseStatus::kOk) return;
    if (done < window) ++ok_in_window;
    latency_us.push_back(latency);
    done_s.push_back(done);
    server_us.push_back(r.latency_us);
    submit_us.push_back(submit);
    gap_us.push_back(observed - latency);
    batch.push_back(static_cast<double>(r.batch_size));
  }

  std::uint64_t answered() const { return ok + shed + rejected + error + shutdown; }
  std::uint64_t failed() const { return answered() - ok; }

  void merge(Tally&& o) {
    submitted += o.submitted;
    ok += o.ok; shed += o.shed; rejected += o.rejected; error += o.error;
    shutdown += o.shutdown; ok_in_window += o.ok_in_window;
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_us, o.latency_us); append(done_s, o.done_s);
    append(server_us, o.server_us);
    append(submit_us, o.submit_us); append(gap_us, o.gap_us);
    append(batch, o.batch);
    for (auto& s : o.samples) samples.push_back(std::move(s));
  }
};

/// Sums of the runtime's per-tenant stage accounting (Telemetry::
/// stage_snapshot) over tenants [0, n).
struct StageTotals {
  std::array<double, 4> us{};
  std::array<double, 4> requests{};
};

StageTotals stage_totals(const orco::serve::Telemetry& telemetry,
                         std::size_t tenants) {
  StageTotals totals;
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto stages = telemetry.stage_snapshot(t);
    for (std::size_t s = 0; s < 4; ++s) {
      totals.us[s] += static_cast<double>(stages[s].us);
      totals.requests[s] += static_cast<double>(stages[s].requests);
    }
  }
  return totals;
}

/// serve.stage.* means and the shares of server-side time the stages give:
/// decode is the nn + tensor work, the other stages are serve's own.
void report_stages(Result& result, const StageTotals& before,
                   const StageTotals& after) {
  static const char* kNames[4] = {"queue_wait", "assembly", "decode", "respond"};
  std::array<double, 4> mean_us{};
  double busy_us = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    const double us = after.us[s] - before.us[s];
    const double req = after.requests[s] - before.requests[s];
    mean_us[s] = req > 0.0 ? us / req : 0.0;
    if (s != 0) busy_us += us;
    result.info(std::string("serve.stage.") + kNames[s] + "_us", mean_us[s], "us");
  }
  const double latency_sum = mean_us[0] + mean_us[1] + mean_us[2] + mean_us[3];
  if (latency_sum > 0.0) {
    result.info("share.server_latency.nn_tensor", mean_us[2] / latency_sum,
                "fraction");
    result.info("share.server_latency.serve",
                (latency_sum - mean_us[2]) / latency_sum, "fraction");
  }
  const double decode_us = after.us[2] - before.us[2];
  if (busy_us > 0.0) {
    result.info("share.shard_busy.nn_tensor", decode_us / busy_us, "fraction");
  }
}

/// Gates and serve.* rows of the serving workload.
void report_tally(Result& result, const Tally& t,
                  const orco::serve::TelemetrySnapshot& before,
                  const orco::serve::TelemetrySnapshot& after) {
  result.attempted = t.submitted;
  result.failed = t.failed();
  result.check("every_future_resolved_once", t.answered() == t.submitted);
  result.check("telemetry_agrees",
               after.submitted - before.submitted == t.submitted &&
                   after.completed - before.completed == t.ok);
  const std::size_t mismatches = verify_samples(t.samples);
  result.check("reference_decode_matches", mismatches == 0 && !t.samples.empty());
  result.info("oracle.samples", static_cast<double>(t.samples.size()), "count");
  result.info("oracle.mismatches", static_cast<double>(mismatches), "count");
  result.info("failed_frac",
              t.submitted > 0 ? static_cast<double>(t.failed()) /
                                    static_cast<double>(t.submitted)
                              : 0.0,
              "fraction");
  result.info("serve.submit_us.p50", quantile(t.submit_us, 0.5), "us");
  result.info("serve.submit_us.p99", quantile(t.submit_us, 0.99), "us");
  result.info("serve.server_latency_us.p50", quantile(t.server_us, 0.5), "us");
  result.info("serve.server_latency_us.p99", quantile(t.server_us, 0.99), "us");
  result.info("serve.respond_gap_us", median(t.gap_us), "us");
  result.info("serve.batch_size.mean", mean(t.batch), "requests");
  result.info("serve.shed", static_cast<double>(t.shed), "count");
  result.info("serve.rejected",
              static_cast<double>(t.rejected + t.error + t.shutdown), "count");
}

// ---- serve_closed_gtsrb ------------------------------------------------------

constexpr std::size_t kGtsrbTenants = 8;
constexpr std::size_t kClosedClients = 4;
constexpr std::size_t kClosedWindow = 8;

struct ClosedState {
  std::vector<std::shared_ptr<orco::core::OrcoDcsSystem>> tenants;
  std::unique_ptr<orco::serve::ServerRuntime> runtime;

  std::shared_ptr<const orco::nn::Sequential> decoder(std::size_t t) const {
    return {tenants[t], &tenants[t]->edge().decoder()};
  }
};

std::unique_ptr<ClosedState> build_closed(std::uint64_t seed,
                                          const std::vector<Tensor>& latents) {
  auto st = std::make_unique<ClosedState>();
  for (std::size_t t = 0; t < kGtsrbTenants; ++t) {
    st->tenants.push_back(std::make_shared<orco::core::OrcoDcsSystem>(
        tenant_config(3072, 512, mix_seed(seed, 1000 + t))));
  }
  st->runtime = std::make_unique<orco::serve::ServerRuntime>(
      orco::serve::ServeConfig{});
  for (std::size_t t = 0; t < kGtsrbTenants; ++t) {
    st->runtime->register_cluster(t, st->tenants[t]);
  }
  st->runtime->start();
  // Warm-up: every tenant compiles its plan and sees a full batch.
  std::vector<std::future<DecodeResponse>> warm;
  for (std::size_t i = 0; i < kGtsrbTenants * 32; ++i) {
    warm.push_back(st->runtime->submit(i % kGtsrbTenants,
                                       latents[i % latents.size()]));
  }
  for (auto& f : warm) (void)f.get();
  return st;
}

Tally closed_window(ClosedState& st, const std::vector<Tensor>& latents,
                    std::uint64_t seed, double seconds, double* elapsed) {
  const std::size_t latent_dim = latents.front().numel();
  std::vector<Tally> tallies(kClosedClients);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&, c] {
      Tally& tally = tallies[c];
      orco::common::Pcg32 rng(mix_seed(seed, 100 + c));
      struct InFlight {
        std::future<DecodeResponse> future;
        Clock::time_point due;
        double submit_us = 0.0;
        std::size_t tenant = 0, index = 0;
      };
      std::deque<InFlight> window;
      auto harvest = [&](InFlight& f) {
        const auto ready = Clock::now();
        DecodeResponse r = f.future.get();
        tally.account(r, f.submit_us, us_between(f.due, ready),
                      seconds_between(start, ready), seconds);
        if (r.status != ResponseStatus::kOk) return;
        const long slot = tally.reservoir.slot(tally.samples.size());
        if (slot >= 0) {
          tally.keep(slot, {latents[f.index].reshaped({1, latent_dim}),
                            std::move(r.reconstruction), st.decoder(f.tenant)});
        }
      };
      while (Clock::now() < end) {
        while (window.size() < kClosedWindow) {
          InFlight f;
          f.tenant = rng.next() % kGtsrbTenants;
          f.index = rng.next() % latents.size();
          f.due = Clock::now();
          {
            ScopedSpan span("serve.submit", "serve");
            f.future = st.runtime->submit(f.tenant, latents[f.index]);
          }
          f.submit_us = us_between(f.due, Clock::now());
          ++tally.submitted;
          window.push_back(std::move(f));
        }
        window.front().future.wait();
        for (auto it = window.begin(); it != window.end();) {
          if (it->future.wait_for(0s) == std::future_status::ready) {
            harvest(*it);
            it = window.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (auto& f : window) harvest(f);
    });
  }
  for (auto& c : clients) c.join();
  *elapsed = seconds_between(start, end);
  Tally total;
  for (auto& t : tallies) total.merge(std::move(t));
  return total;
}

}  // namespace

void run_serve_closed_gtsrb(const Options& options, Result& result) {
  const auto first_setup = Clock::now();
  std::vector<double> reps;
  std::vector<Tensor> latents;
  orco::data::Dataset probe_set;
  std::unique_ptr<ClosedState> st;
  for (int rep = 0; rep < 3; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    // Inputs: a pool of f32 latents in (0, 1), the encoder's sigmoid range.
    orco::common::Pcg32 rng(mix_seed(options.seed, 1));
    latents.clear();
    for (std::size_t i = 0; i < 256; ++i) latents.push_back(Tensor::uniform({512}, rng));
    orco::data::GtsrbConfig probe_images;
    probe_images.count = 128;
    probe_images.seed = mix_seed(options.seed, 2);
    probe_set = orco::data::make_synthetic_gtsrb(probe_images);
    st = build_closed(options.seed, latents);
    reps.push_back(seconds_between(t0, Clock::now()));
  }
  result.e2e("setup_s", setup_seconds(first_setup, reps), "s");

  auto& telemetry = st->runtime->telemetry();
  double untraced_rps = 0.0;
  if (options.trace) {
    double elapsed = 0.0;
    const Tally t = closed_window(*st, latents, options.seed, options.seconds / 2, &elapsed);
    untraced_rps = static_cast<double>(t.ok_in_window) / elapsed;
    Tracer::instance().set_enabled(true);
  }
  const auto tel_before = telemetry.snapshot();
  const auto stages_before = stage_totals(telemetry, kGtsrbTenants);
  double elapsed = 0.0;
  const Tally t = closed_window(*st, latents, mix_seed(options.seed, 7),
                                options.trace ? options.seconds / 2 : options.seconds,
                                &elapsed);
  Tracer::instance().set_enabled(false);
  const auto tel_after = telemetry.snapshot();
  const double rps = static_cast<double>(t.ok_in_window) / elapsed;

  report_tally(result, t, tel_before, tel_after);
  report_stages(result, stages_before, stage_totals(telemetry, kGtsrbTenants));
  if (options.trace) {
    result.layer("obs.trace_overhead", untraced_rps / rps, "ratio");
    probe_layers(st->tenants.front()->config(), probe_set, options.seed, result);
  } else {
    report_request_metrics(result, t.done_s, t.latency_us, elapsed);
  }
}

}  // namespace orcobench
