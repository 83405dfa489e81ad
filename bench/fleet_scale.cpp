// Fleet scale-out bench: ~100k registered tenants on one box.
//
// Drives an EdgeFleet (fixed-hash routing, warm/cold tiering, delta
// replication) and measures the tiering contract in three phases:
//
//   1. registration — 100k tenants register without materializing anything;
//   2. churn — a Zipf-skewed closed-loop stream over the full tenant
//      population; the resident set must stay bounded by warm_capacity
//      (the JSON commits the *sampled maximum*, not a post-drain count)
//      while the long tail cycles through the cold tier;
//   3. hot serving under churn — the "no p99 cliff" measurement: hot-rank
//      traffic measured while a background thread keeps forcing cold
//      wakes at a fixed rate. Hot p99 must stay within 15% of a
//      single-cell always-warm baseline running the same serving stack
//      with zero tiering activity.
//
// Plus a determinism check: a cold wake must reconstruct bitwise-
// identically to a never-demoted fleet.
//
// Emits BENCH_fleet.json. Workload scales with ORCO_BENCH_SCALE
// (bench_common.h conventions); the committed output is scale 1.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "serve/serve.h"
#include "tensor/backend.h"

namespace {

using namespace orco;
using fleet::EdgeFleet;
using fleet::FleetConfig;
using serve::DecodeResponse;
using serve::ResponseStatus;
using tensor::Tensor;

constexpr std::size_t kInputDim = 64;
constexpr std::size_t kLatentDim = 16;
constexpr std::size_t kHotRanks = 32;  // "hot tenant" = rank < kHotRanks
constexpr double kZipfS = 1.05;
constexpr double kHotP99Bar = 1.15;
// Background cold-wake rate during the hot phase. Each churn submit forces
// a wake (the tenant is far outside the warm head) plus the LRU demotion
// that admits it.
constexpr auto kChurnGap = std::chrono::milliseconds(40);

/// The kernel backend under test, set process-wide in main(): ORCO_BACKEND
/// if set, else simd.
std::string bench_backend() {
  const char* env = std::getenv("ORCO_BACKEND");
  return (env != nullptr && *env != '\0') ? env : "simd";
}

core::SystemConfig tenant_template() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = kInputDim;
  cfg.orco.latent_dim = kLatentDim;
  cfg.orco.decoder_layers = 1;
  cfg.orco.batch_size = 16;
  cfg.orco.seed = 4242;
  cfg.field.device_count = 4;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

FleetConfig fleet_config(std::size_t cells, std::size_t warm_capacity,
                         const std::string& cold_dir) {
  FleetConfig cfg;
  cfg.replicas = cells;
  cfg.warm_capacity = warm_capacity;
  cfg.cold_dir = cold_dir;
  cfg.system = tenant_template();
  cfg.serve.shard_count = 2;
  cfg.serve.queue.capacity = 4096;
  // 100k tenants x ~8KB of telemetry rows is the one per-tenant cost the
  // fleet cannot lazily materialize — turn it off.
  cfg.serve.per_tenant_telemetry = false;
  return cfg;
}

/// Zipf(s) sampler over ranks [0, n): cumulative table + binary search.
/// Tenant id == rank, so rank 0 is the hottest tenant.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s) : cumulative_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cumulative_[r] = total;
    }
    for (double& c : cumulative_) c /= total;
  }

  std::size_t sample(common::Pcg32& rng) const {
    const double u = rng.uniform();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return it == cumulative_.end() ? cumulative_.size() - 1
                                   : static_cast<std::size_t>(
                                         it - cumulative_.begin());
  }

  /// Probability mass of ranks [0, k).
  double head_mass(std::size_t k) const {
    return k == 0 ? 0.0 : cumulative_[std::min(k, cumulative_.size()) - 1];
  }

 private:
  std::vector<double> cumulative_;
};

double percentile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double idx = q * static_cast<double>(sorted_in_place.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted_in_place.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted_in_place[lo] * (1.0 - frac) + sorted_in_place[hi] * frac;
}

std::vector<Tensor> make_latents(std::size_t count) {
  common::Pcg32 rng(909);
  std::vector<Tensor> latents;
  latents.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    latents.push_back(Tensor::randn({1, kLatentDim}, rng));
  }
  return latents;
}

struct TrafficResult {
  double seconds = 0.0;
  double rps = 0.0;
  double hot_p50_us = 0.0;
  double hot_p99_us = 0.0;
  double all_p50_us = 0.0;
  double all_p99_us = 0.0;
  std::size_t hot_requests = 0;
  std::size_t ok = 0;
  std::size_t not_ok = 0;
  std::size_t resident_max = 0;
};

/// Closed-loop Zipf traffic against a fleet; per-request latency is the
/// server-side enqueue->response time, bucketed hot/all by tenant rank.
TrafficResult drive(EdgeFleet& fleet, const ZipfTable& zipf,
                    std::size_t requests, std::size_t tenant_count,
                    std::size_t threads) {
  const std::vector<Tensor> latents = make_latents(256);
  std::vector<std::vector<double>> hot_lat(threads);
  std::vector<std::vector<double>> all_lat(threads);
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> not_ok{0};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> resident_max{0};

  // Residency sampler: the bound the JSON commits to is the *observed
  // maximum* during traffic, not a post-drain steady state.
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t now = fleet.resident_count();
      std::size_t seen = resident_max.load(std::memory_order_relaxed);
      while (now > seen && !resident_max.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  common::Stopwatch sw;
  std::vector<std::thread> clients;
  const std::size_t per_client = requests / threads;
  for (std::size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      common::Pcg32 rng(1000 + c);
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t rank = zipf.sample(rng);
        const fleet::ClusterId id =
            static_cast<fleet::ClusterId>(rank % tenant_count);
        const DecodeResponse response =
            fleet.submit(id, latents[(c * per_client + i) % latents.size()])
                .get();
        if (response.status == ResponseStatus::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
          all_lat[c].push_back(response.latency_us);
          if (rank < kHotRanks) hot_lat[c].push_back(response.latency_us);
        } else {
          not_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  TrafficResult result;
  result.seconds = sw.seconds();
  done.store(true, std::memory_order_release);
  sampler.join();

  std::vector<double> hot;
  std::vector<double> all;
  for (std::size_t c = 0; c < threads; ++c) {
    hot.insert(hot.end(), hot_lat[c].begin(), hot_lat[c].end());
    all.insert(all.end(), all_lat[c].begin(), all_lat[c].end());
  }
  result.hot_requests = hot.size();
  result.ok = ok.load();
  result.not_ok = not_ok.load();
  result.rps = static_cast<double>(result.ok) / result.seconds;
  result.hot_p50_us = percentile(hot, 0.50);
  result.hot_p99_us = percentile(hot, 0.99);
  result.all_p50_us = percentile(all, 0.50);
  result.all_p99_us = percentile(all, 0.99);
  result.resident_max = resident_max.load();
  return result;
}

/// Bitwise contract: warm response == post-demotion cold-wake response ==
/// a never-demoted fleet's response, for the same latent.
bool cold_wake_bitwise_equal(const std::string& dir_a,
                             const std::string& dir_b) {
  common::Pcg32 rng(31);
  const Tensor latent = Tensor::randn({1, kLatentDim}, rng);
  const fleet::ClusterId id = 42;

  EdgeFleet churned(fleet_config(2, 8, dir_a));
  churned.register_tenant(id);
  churned.start();
  const DecodeResponse warm = churned.submit(id, latent).get();
  if (warm.status != ResponseStatus::kOk) return false;
  if (!churned.demote(id)) return false;
  const DecodeResponse woken = churned.submit(id, latent).get();
  if (woken.status != ResponseStatus::kOk) return false;

  EdgeFleet pristine(fleet_config(2, 8, dir_b));
  pristine.register_tenant(id);
  pristine.start();
  const DecodeResponse reference = pristine.submit(id, latent).get();
  if (reference.status != ResponseStatus::kOk) return false;

  return woken.reconstruction.allclose(warm.reconstruction, 0.0f) &&
         woken.reconstruction.allclose(reference.reconstruction, 0.0f);
}

std::string temp_dir(const char* name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = (base != nullptr && *base != '\0') ? base : "/tmp";
  dir += std::string("/orco_bench_fleet_") + name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

int main() {
  tensor::set_backend(bench_backend());
  const std::size_t tenants =
      std::max<std::size_t>(kHotRanks * 2, bench::scaled(100000));
  const std::size_t warm_capacity =
      std::clamp<std::size_t>(tenants / 200, 64, 512);
  const std::size_t churn_requests =
      std::max<std::size_t>(200, bench::scaled(16000));
  const std::size_t hot_requests =
      std::max<std::size_t>(100, bench::scaled(8000));
  const ZipfTable zipf(tenants, kZipfS);

  std::cout << "fleet_scale: " << tenants << " tenants, " << churn_requests
            << " churn + " << hot_requests << " hot requests, warm capacity "
            << warm_capacity << ", backend " << bench_backend() << "\n";
  std::cout << "zipf(s=" << kZipfS << ") head mass of top-" << kHotRanks
            << " ranks: " << zipf.head_mass(kHotRanks) << "\n\n";

  // ---- phase 1: registration ------------------------------------------------
  FleetConfig cfg = fleet_config(/*cells=*/4, warm_capacity, temp_dir("main"));
  EdgeFleet fleet(cfg);
  common::Stopwatch reg_sw;
  for (std::size_t id = 0; id < tenants; ++id) {
    fleet.register_tenant(static_cast<fleet::ClusterId>(id));
  }
  const double reg_seconds = reg_sw.seconds();
  std::cout << "registered " << fleet.registered_count() << " tenants in "
            << reg_seconds << " s ("
            << static_cast<double>(tenants) / reg_seconds
            << " tenants/s), resident " << fleet.resident_count() << "\n";

  // ---- phase 2: full-population churn ---------------------------------------
  fleet.start();
  const TrafficResult churn =
      drive(fleet, zipf, churn_requests, tenants, /*threads=*/4);

  // ---- phase 3: hot serving while cold wakes keep landing -------------------
  // A background thread forces a steady trickle of cold wakes (each one a
  // wake + an LRU demotion) while closed-loop clients hammer the hot head.
  // This is the p99-cliff probe: if a cold wake ever blocked warm tenants
  // (a fleet-wide lock, a stalled shard worker), hot p99 would jump by the
  // multi-ms wake latency, not percents.
  for (std::size_t id = 0; id < kHotRanks; ++id) {
    fleet.warm(static_cast<fleet::ClusterId>(id));
  }
  std::atomic<bool> churn_done{false};
  std::atomic<std::size_t> churn_wakes{0};
  std::thread churner([&] {
    const std::vector<Tensor> latents = make_latents(8);
    // Walk the deep tail so every submit is a genuine cold wake.
    std::size_t i = 0;
    const std::size_t tail_base = warm_capacity * 8;
    while (!churn_done.load(std::memory_order_acquire)) {
      const fleet::ClusterId id = static_cast<fleet::ClusterId>(
          tail_base + (i * 7919) % (tenants - tail_base));
      ++i;
      if (fleet.submit(id, latents[i % latents.size()]).get().status ==
          ResponseStatus::kOk) {
        churn_wakes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(kChurnGap);
    }
  });
  const ZipfTable hot_zipf(kHotRanks, kZipfS);  // conditioned on the head
  const TrafficResult hot =
      drive(fleet, hot_zipf, hot_requests, kHotRanks, /*threads=*/2);
  churn_done.store(true, std::memory_order_release);
  churner.join();

  const fleet::FleetStats stats = fleet.stats();
  const auto wake_hist = fleet.cold_wake_histogram();
  fleet.shutdown();

  common::Table table({"metric", "value"});
  table.add_row({"churn rps", common::Table::num(churn.rps, 1)});
  table.add_row({"churn all p99 (us)", common::Table::num(churn.all_p99_us, 1)});
  table.add_row({"resident max", std::to_string(churn.resident_max)});
  table.add_row({"cold builds", std::to_string(stats.cold_builds)});
  table.add_row({"cold wakes", std::to_string(stats.cold_wakes)});
  table.add_row({"demotions", std::to_string(stats.demotions)});
  table.add_row(
      {"wake p50 (us)", common::Table::num(wake_hist.quantile(0.50), 1)});
  table.add_row(
      {"wake p99 (us)", common::Table::num(wake_hist.quantile(0.99), 1)});
  table.add_row({"hot-phase wakes", std::to_string(churn_wakes.load())});
  table.add_row({"hot p50 (us)", common::Table::num(hot.hot_p50_us, 1)});
  table.add_row({"hot p99 (us)", common::Table::num(hot.hot_p99_us, 1)});
  table.print(std::cout);

  // ---- baseline: single always-warm cell, hot ranks only --------------------
  // Same serving stack (cell runtime + registry snapshots), zero tiering
  // activity: every hot tenant stays resident for the whole run. The hot
  // phase above must stay within kHotP99Bar of this.
  FleetConfig base_cfg =
      fleet_config(/*cells=*/1, kHotRanks * 2, temp_dir("baseline"));
  base_cfg.replicate = false;
  EdgeFleet baseline(base_cfg);
  for (std::size_t id = 0; id < kHotRanks; ++id) {
    baseline.register_tenant(static_cast<fleet::ClusterId>(id));
  }
  baseline.start();
  for (std::size_t id = 0; id < kHotRanks; ++id) {
    baseline.warm(static_cast<fleet::ClusterId>(id));
  }
  const TrafficResult base =
      drive(baseline, hot_zipf, hot_requests, kHotRanks, /*threads=*/2);
  baseline.shutdown();

  const double hot_p99_ratio =
      base.hot_p99_us > 0.0 ? hot.hot_p99_us / base.hot_p99_us : 0.0;
  std::cout << "baseline hot p99 " << base.hot_p99_us << " us, under-churn hot "
            << "p99 " << hot.hot_p99_us << " us, ratio " << hot_p99_ratio
            << " (bar " << kHotP99Bar << ")\n";

  // ---- contracts ------------------------------------------------------------
  const bool resident_bounded =
      churn.resident_max <= warm_capacity && hot.resident_max <= warm_capacity;
  const bool bitwise_equal =
      cold_wake_bitwise_equal(temp_dir("bw_a"), temp_dir("bw_b"));
  const bool hot_p99_pass = hot_p99_ratio <= kHotP99Bar;
  const bool no_errors = churn.not_ok == 0 && hot.not_ok == 0;
  std::cout << "resident bounded: " << (resident_bounded ? "yes" : "NO")
            << ", cold wake bitwise-equal: " << (bitwise_equal ? "yes" : "NO")
            << ", hot p99 pass: " << (hot_p99_pass ? "yes" : "NO") << "\n";

  std::ofstream json("BENCH_fleet.json");
  json << "{\n";
  json << "  \"config\": {\"tenants\": " << tenants
       << ", \"cells\": " << cfg.replicas
       << ", \"warm_capacity\": " << warm_capacity
       << ", \"churn_requests\": " << churn_requests
       << ", \"hot_requests\": " << hot_requests
       << ", \"hot_ranks\": " << kHotRanks << ", \"zipf_s\": " << kZipfS
       << ", \"backend\": \"" << bench_backend() << "\"},\n";
  json << "  \"registration\": {\"seconds\": " << reg_seconds
       << ", \"tenants_per_sec\": "
       << static_cast<double>(tenants) / reg_seconds << "},\n";
  json << "  \"churn\": {\"seconds\": " << churn.seconds
       << ", \"rps\": " << churn.rps << ", \"ok\": " << churn.ok
       << ", \"errors\": " << churn.not_ok
       << ", \"all_p50_us\": " << churn.all_p50_us
       << ", \"all_p99_us\": " << churn.all_p99_us
       << ", \"resident_max\": " << churn.resident_max << "},\n";
  json << "  \"hot_under_churn\": {\"seconds\": " << hot.seconds
       << ", \"rps\": " << hot.rps << ", \"ok\": " << hot.ok
       << ", \"errors\": " << hot.not_ok
       << ", \"background_wakes\": " << churn_wakes.load()
       << ", \"hot_p50_us\": " << hot.hot_p50_us
       << ", \"hot_p99_us\": " << hot.hot_p99_us
       << ", \"resident_max\": " << hot.resident_max << "},\n";
  json << "  \"baseline\": {\"rps\": " << base.rps
       << ", \"hot_p50_us\": " << base.hot_p50_us
       << ", \"hot_p99_us\": " << base.hot_p99_us << "},\n";
  json << "  \"cold_wake_us\": {\"count\": " << wake_hist.count
       << ", \"p50\": " << wake_hist.quantile(0.50)
       << ", \"p99\": " << wake_hist.quantile(0.99)
       << ", \"max\": " << wake_hist.max_us << "},\n";
  json << "  \"fleet\": {\"resident_max\": " << churn.resident_max
       << ", \"cold_builds\": " << stats.cold_builds
       << ", \"cold_wakes\": " << stats.cold_wakes
       << ", \"demotions\": " << stats.demotions
       << ", \"demotion_aborts\": " << stats.demotion_aborts
       << ", \"capacity_overrides\": " << stats.capacity_overrides
       << ", \"wake_coalesced\": " << stats.wake_coalesced
       << ", \"deltas_shipped\": " << stats.deltas_shipped
       << ", \"full_ships\": " << stats.full_ships
       << ", \"delta_bytes\": " << stats.delta_bytes << "},\n";
  json << "  \"contract\": {\"hot_p99_ratio\": " << hot_p99_ratio
       << ", \"hot_p99_bar\": " << kHotP99Bar
       << ", \"hot_p99_pass\": " << (hot_p99_pass ? "true" : "false")
       << ", \"resident_bounded\": " << (resident_bounded ? "true" : "false")
       << ", \"cold_wake_bitwise_equal\": "
       << (bitwise_equal ? "true" : "false")
       << ", \"no_errors\": " << (no_errors ? "true" : "false")
       << ", \"pass\": "
       << ((resident_bounded && bitwise_equal && no_errors && hot_p99_pass)
               ? "true"
               : "false")
       << "}\n";
  json << "}\n";
  std::cout << "\nwrote BENCH_fleet.json\n";
  return 0;
}
