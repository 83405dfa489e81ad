// Tests for the multi-edge fleet (src/fleet): fixed-hash routing (the
// owner formula, balance, determinism), the crash-safe cold tier
// (ColdStore write atomicity, truncated-file rejection), warm/cold tiering
// (bounded residency, write-back demotion, bitwise-equal cold wake,
// single-flight thundering-herd collapse, a failed cold write that leaves
// the tenant serving), published snapshots that nothing mutates, and the
// runtime/trainer unregister paths the fleet's demotion relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "fleet/fleet.h"
#include "nn/model_io.h"
#include "serve/serve.h"
#include "train/train.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ORCO_SANITIZED_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ORCO_SANITIZED_BUILD 1
#endif

namespace orco::fleet {
namespace {

using serve::DecodeResponse;
using serve::ResponseStatus;
using tensor::Tensor;

#ifdef ORCO_SANITIZED_BUILD
constexpr int kDeadlineStretch = 10;
#else
constexpr int kDeadlineStretch = 1;
#endif

constexpr std::size_t kInputDim = 64;
constexpr std::size_t kLatentDim = 16;

core::SystemConfig tiny_system() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = kInputDim;
  cfg.orco.latent_dim = kLatentDim;
  cfg.orco.decoder_layers = 1;
  cfg.orco.batch_size = 16;
  cfg.orco.seed = 42;
  cfg.field.device_count = 4;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

FleetConfig tiny_fleet(const std::string& cold_dir) {
  FleetConfig cfg;
  cfg.replicas = 2;
  cfg.warm_capacity = 8;
  cfg.cold_dir = cold_dir;
  cfg.system = tiny_system();
  cfg.serve.shard_count = 2;
  return cfg;
}

/// Fresh (pre-cleaned) per-test cold-tier directory: stale records from a
/// previous run must not leak into residency/counter expectations.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/orco_fleet_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

data::Dataset tiny_dataset(std::size_t count, std::uint64_t seed) {
  common::Pcg32 rng(seed);
  Tensor images = Tensor::uniform({count, kInputDim}, rng);
  return data::Dataset("tiny", data::ImageGeometry{1, 8, 8},
                       /*num_classes=*/1, std::move(images),
                       std::vector<std::size_t>(count, 0));
}

/// Runs one fine-tune job on warm tenant `id` of a trainer fleet and returns
/// the version it published.
std::uint64_t fine_tune(EdgeFleet& fleet, ClusterId id, std::uint64_t seed) {
  train::TrainerRuntime* trainer = fleet.cell_trainer(fleet.owner_of(id));
  if (trainer == nullptr) {
    ADD_FAILURE() << "fine_tune needs a fleet with trainer_threads > 0";
    return 0;
  }
  const train::TrainResult result =
      trainer->submit_job(id, tiny_dataset(32, seed), /*epochs=*/1).get();
  EXPECT_EQ(result.outcome, train::JobOutcome::kCompleted);
  return result.published_version;
}

/// demote() yields while a trainer worker still holds the tenant (the worker
/// clears its active-job mark just after resolving the job's future), so
/// retry until the demotion goes through or the deadline passes.
bool demote_eventually(EdgeFleet& fleet, ClusterId id) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5 * kDeadlineStretch);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fleet.demote(id)) return true;
    std::this_thread::yield();
  }
  return false;
}

/// Eight threads submit to cold tenant `id` at once; returns their answers.
std::vector<DecodeResponse> herd_submit(EdgeFleet& fleet, ClusterId id,
                                        const Tensor& latent) {
  constexpr int kWakers = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<DecodeResponse> responses(kWakers);
  for (int w = 0; w < kWakers; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      responses[w] = fleet.submit(id, latent).get();
    });
  }
  while (ready.load() < kWakers) std::this_thread::yield();
  go.store(true);
  for (auto& thread : threads) thread.join();
  return responses;
}

// ---- routing ----------------------------------------------------------------

TEST(FleetRoutingTest, OwnerIsSplitMixModuloCellsAndBalancesLoad) {
  constexpr std::size_t kCells = 4;
  constexpr std::size_t kKeys = 20000;
  FleetConfig cfg = tiny_fleet(fresh_dir("routing"));
  cfg.replicas = kCells;
  const EdgeFleet fleet(cfg);
  const EdgeFleet twin(cfg);
  ASSERT_EQ(fleet.cell_count(), kCells);
  std::vector<std::size_t> counts(kCells, 0);
  for (std::size_t k = 0; k < kKeys; ++k) {
    const ClusterId id = k * 2654435761ULL + 7;
    const std::uint32_t owner = fleet.owner_of(id);
    ASSERT_EQ(owner, common::SplitMix64(id).next() % kCells) << "id " << id;
    // Routing depends on the id and the cell count alone.
    ASSERT_EQ(twin.owner_of(id), owner) << "id " << id;
    ++counts[owner];
  }
  const double expected = static_cast<double>(kKeys) / kCells;
  double chi2 = 0.0;
  for (std::size_t c = 0; c < kCells; ++c) {
    const double dev = static_cast<double>(counts[c]) - expected;
    chi2 += dev * dev / expected;
    // Under a uniform hash one standard deviation of a cell's count is
    // sqrt(n p (1 - p)) ~ 61 keys, 1.2% of fair, so this is a ~4 sigma
    // bound; one cell owning half the keys deviates by 100%.
    EXPECT_NEAR(static_cast<double>(counts[c]), expected, 0.05 * expected)
        << "cell " << c;
  }
  EXPECT_LT(chi2, 30.0);
}

// ---- cold store -------------------------------------------------------------

/// Writes `bytes` over `path` in place: the torn or foreign file that
/// ColdStore's atomic rename never leaves behind (no fsync, so planting
/// one costs a test nothing).
void plant_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

TEST(ColdStoreTest, RoundTripsRecordAtomically) {
  ColdStore store(fresh_dir("cold_roundtrip"));
  core::OrcoDcsSystem system(tiny_system());
  ColdRecord record;
  record.model_version = 17;
  record.encoder_params = nn::save_params(system.aggregator().encoder());
  record.decoder_params = nn::save_params(system.edge().decoder());
  store.save(77, record);

  EXPECT_TRUE(store.contains(77));
  EXPECT_FALSE(store.contains(78));
  EXPECT_FALSE(std::filesystem::exists(store.path_for(77) + ".tmp"))
      << "atomic write must not leave its temp file behind";

  const ColdRecord loaded = store.load(77);
  EXPECT_EQ(loaded.model_version, 17u);
  EXPECT_TRUE(loaded.encoder_params == record.encoder_params);
  EXPECT_TRUE(loaded.decoder_params == record.decoder_params);
  EXPECT_EQ(store.saves(), 1u);
  EXPECT_EQ(store.loads(), 1u);

  EXPECT_TRUE(store.remove(77));
  EXPECT_FALSE(store.remove(77));
  EXPECT_FALSE(store.contains(77));
}

TEST(ColdStoreTest, TruncatedRecordIsRejected) {
  ColdStore store(fresh_dir("cold_truncated"));
  core::OrcoDcsSystem system(tiny_system());
  ColdRecord record;
  record.encoder_params = nn::save_params(system.aggregator().encoder());
  record.decoder_params = nn::save_params(system.edge().decoder());
  store.save(5, record);

  // Simulate the torn write the atomic rename prevents.
  const auto full = common::read_file(store.path_for(5));
  plant_file(store.path_for(5),
             std::span<const std::byte>(full).first(full.size() / 2));
  EXPECT_THROW((void)store.load(5), std::exception);

  // Wrong-tenant file is rejected too.
  plant_file(store.path_for(6), full);
  EXPECT_THROW((void)store.load(6), std::exception);

  // So is a format-1 record (the layout that still carried a QoS policy):
  // the format word follows the 4-byte magic.
  std::vector<std::byte> format1 = full;
  const std::uint32_t old_format = 1;
  std::memcpy(format1.data() + 4, &old_format, sizeof old_format);
  plant_file(store.path_for(5), format1);
  EXPECT_THROW((void)store.load(5), std::exception);

  // An encoder blob whose length prefix claims 2^40 bytes is refused as
  // malformed input before anything is sized from it. The prefix follows
  // the magic, format, tenant id and model version (4 + 4 + 8 + 8 bytes).
  std::vector<std::byte> huge_blob = full;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(huge_blob.data() + 24, &huge, sizeof huge);
  plant_file(store.path_for(5), huge_blob);
  EXPECT_THROW((void)store.load(5), std::invalid_argument);
}

// ---- residency --------------------------------------------------------------

TEST(ResidencyTest, VictimsAreLeastRecentlyStamped) {
  ResidencyManager residency(2);
  std::map<ClusterId, std::uint64_t> stamps;
  residency.add_warm(1);
  stamps[1] = residency.tick();
  residency.add_warm(2);
  stamps[2] = residency.tick();
  residency.add_warm(3);
  stamps[3] = residency.tick();
  EXPECT_TRUE(residency.over_capacity());
  stamps[1] = residency.tick();  // 1 becomes most recent; 2 is now oldest

  const auto victims =
      residency.victims(2, [&](ClusterId id) { return stamps[id]; });
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 2u);
  EXPECT_EQ(victims[1], 3u);

  residency.remove_warm(2);
  EXPECT_FALSE(residency.over_capacity());
  EXPECT_EQ(residency.warm_count(), 2u);
}

// ---- fleet lifecycle --------------------------------------------------------

TEST(FleetTest, ServesRegisteredTenantsAndBoundsResidency) {
  FleetConfig cfg = tiny_fleet(fresh_dir("residency_bound"));
  cfg.warm_capacity = 3;
  EdgeFleet fleet(cfg);
  for (ClusterId id = 1; id <= 8; ++id) fleet.register_tenant(id);
  EXPECT_EQ(fleet.registered_count(), 8u);
  EXPECT_EQ(fleet.resident_count(), 0u);  // registration is lazy
  fleet.start();

  common::Pcg32 rng(7);
  for (ClusterId id = 1; id <= 8; ++id) {
    const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
    const DecodeResponse response = fleet.submit(id, latent).get();
    EXPECT_EQ(response.status, ResponseStatus::kOk) << "tenant " << id;
    EXPECT_GE(response.model_version, 1u);
    EXPECT_LE(fleet.resident_count(), cfg.warm_capacity);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cold_builds, 8u);  // every tenant built once
  EXPECT_GE(stats.demotions, 5u);    // 8 tenants through 3 warm slots
  EXPECT_LE(stats.resident, cfg.warm_capacity);

  // Unknown tenants are refused without growing any state.
  EXPECT_EQ(fleet.submit(999, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kUnknownCluster);
  fleet.shutdown();
  EXPECT_EQ(fleet.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kShutdown);
}

TEST(FleetTest, ColdWakeReconstructsBitwiseEqual) {
  FleetConfig cfg = tiny_fleet(fresh_dir("cold_bitwise_a"));
  EdgeFleet fleet(cfg);
  fleet.register_tenant(11);
  fleet.start();
  common::Pcg32 rng(21);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);

  const DecodeResponse warm_response = fleet.submit(11, latent).get();
  ASSERT_EQ(warm_response.status, ResponseStatus::kOk);

  ASSERT_TRUE(fleet.demote(11));
  EXPECT_FALSE(fleet.resident(11));
  // Unchanged since activation: its template state is its durable copy.
  EXPECT_FALSE(fleet.cold_store().contains(11));

  const DecodeResponse woken_response = fleet.submit(11, latent).get();
  ASSERT_EQ(woken_response.status, ResponseStatus::kOk);
  EXPECT_TRUE(fleet.resident(11));
  EXPECT_TRUE(woken_response.reconstruction.allclose(
      warm_response.reconstruction, 0.0f))
      << "cold wake must reconstruct bitwise-identically to the warm run";
  EXPECT_EQ(woken_response.model_version, warm_response.model_version);

  // And identically to a fleet that never demoted (fresh cold dir).
  FleetConfig always_warm_cfg = tiny_fleet(fresh_dir("cold_bitwise_b"));
  EdgeFleet always_warm(always_warm_cfg);
  always_warm.register_tenant(11);
  always_warm.start();
  const DecodeResponse reference = always_warm.submit(11, latent).get();
  ASSERT_EQ(reference.status, ResponseStatus::kOk);
  EXPECT_TRUE(
      woken_response.reconstruction.allclose(reference.reconstruction, 0.0f));
}

TEST(FleetTest, ThunderingHerdColdWakeLoadsOnce) {
  FleetConfig cfg = tiny_fleet(fresh_dir("single_flight"));
  cfg.trainer_threads = 1;
  EdgeFleet fleet(cfg);
  fleet.register_tenant(3);
  fleet.start();
  fleet.warm(3);
  // Fine-tuned, so its demotion writes the record the herd must read.
  const std::uint64_t tuned = fine_tune(fleet, 3, 17);
  common::Pcg32 rng(5);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
  const DecodeResponse warm_response = fleet.submit(3, latent).get();
  ASSERT_EQ(warm_response.status, ResponseStatus::kOk);
  EXPECT_EQ(warm_response.model_version, tuned);
  ASSERT_TRUE(demote_eventually(fleet, 3));
  ASSERT_EQ(fleet.cold_store().saves(), 1u);
  ASSERT_EQ(fleet.cold_store().loads(), 0u);

  const auto responses = herd_submit(fleet, 3, latent);
  for (std::size_t w = 0; w < responses.size(); ++w) {
    EXPECT_EQ(responses[w].status, ResponseStatus::kOk) << "waker " << w;
    EXPECT_TRUE(responses[w].reconstruction.allclose(
        warm_response.reconstruction, 0.0f));
  }
  // The herd collapsed onto exactly one cold-tier read.
  EXPECT_EQ(fleet.cold_store().loads(), 1u);
  EXPECT_EQ(fleet.stats().cold_wakes, 1u);
}

TEST(FleetTest, ThunderingHerdRewakeOfUnchangedTenantActivatesOnce) {
  FleetConfig cfg = tiny_fleet(fresh_dir("single_flight_unchanged"));
  EdgeFleet fleet(cfg);
  fleet.register_tenant(3);
  fleet.start();
  common::Pcg32 rng(5);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
  const DecodeResponse warm_response = fleet.submit(3, latent).get();
  ASSERT_EQ(warm_response.status, ResponseStatus::kOk);
  ASSERT_TRUE(fleet.demote(3));

  const auto responses = herd_submit(fleet, 3, latent);
  for (std::size_t w = 0; w < responses.size(); ++w) {
    EXPECT_EQ(responses[w].status, ResponseStatus::kOk) << "waker " << w;
    EXPECT_TRUE(responses[w].reconstruction.allclose(
        warm_response.reconstruction, 0.0f));
  }
  // No record to read, and the herd still collapsed onto one activation.
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cold_builds, 1u);
  EXPECT_EQ(stats.cold_wakes, 1u);
  EXPECT_EQ(fleet.cold_store().loads(), 0u);
  EXPECT_EQ(fleet.cold_store().saves(), 0u);
}

TEST(FleetTest, UnchangedTenantDemotesWithoutWritingAndCountsRewakes) {
  FleetConfig cfg = tiny_fleet(fresh_dir("write_back_unchanged"));
  EdgeFleet fleet(cfg);
  fleet.register_tenant(12);
  fleet.start();
  common::Pcg32 rng(8);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
  const DecodeResponse first = fleet.submit(12, latent).get();
  ASSERT_EQ(first.status, ResponseStatus::kOk);

  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(fleet.demote(12)) << "cycle " << cycle;
    EXPECT_EQ(fleet.cold_store().saves(), 0u) << "cycle " << cycle;
    const DecodeResponse woken = fleet.submit(12, latent).get();
    ASSERT_EQ(woken.status, ResponseStatus::kOk);
    EXPECT_EQ(woken.model_version, first.model_version);
    EXPECT_TRUE(woken.reconstruction.allclose(first.reconstruction, 0.0f))
        << "cycle " << cycle;
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cold_builds, 1u);
  EXPECT_EQ(stats.cold_wakes, 2u);  // rewakes count without a record read
  EXPECT_EQ(stats.demotions, 2u);
  EXPECT_EQ(fleet.cold_store().loads(), 0u);
}

TEST(FleetTest, FineTunedTenantWritesOneRecordAndWakesFromIt) {
  FleetConfig cfg = tiny_fleet(fresh_dir("write_back_tuned"));
  cfg.trainer_threads = 1;
  EdgeFleet fleet(cfg);
  const ClusterId id = 14;
  fleet.register_tenant(id);
  fleet.start();
  fleet.warm(id);
  const std::uint64_t tuned = fine_tune(fleet, id, 23);
  ASSERT_GT(tuned, 1u);
  common::Pcg32 rng(9);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
  const DecodeResponse trained = fleet.submit(id, latent).get();
  ASSERT_EQ(trained.status, ResponseStatus::kOk);
  ASSERT_EQ(trained.model_version, tuned);

  // Changed since activation: exactly one record.
  ASSERT_TRUE(demote_eventually(fleet, id));
  EXPECT_EQ(fleet.cold_store().saves(), 1u);
  EXPECT_TRUE(fleet.cold_store().contains(id));

  // The wake loads it and decodes bitwise as before demotion, at the same
  // version; woken and unchanged, the next demotion writes nothing.
  for (int cycle = 0; cycle < 2; ++cycle) {
    const DecodeResponse woken = fleet.submit(id, latent).get();
    ASSERT_EQ(woken.status, ResponseStatus::kOk);
    EXPECT_EQ(fleet.cold_store().loads(), 1u + cycle);
    EXPECT_EQ(woken.model_version, tuned);
    EXPECT_TRUE(woken.reconstruction.allclose(trained.reconstruction, 0.0f))
        << "cycle " << cycle;
    ASSERT_TRUE(demote_eventually(fleet, id));
    EXPECT_EQ(fleet.cold_store().saves(), 1u) << "cycle " << cycle;
  }

  // The version sequence continues from the record.
  fleet.warm(id);
  EXPECT_GT(fine_tune(fleet, id, 24), tuned);
  ASSERT_TRUE(demote_eventually(fleet, id));
  EXPECT_EQ(fleet.cold_store().saves(), 2u);
}

TEST(FleetTest, FailedColdWriteAbortsDemotionAndKeepsServing) {
  const std::string dir = fresh_dir("failed_write");
  FleetConfig cfg = tiny_fleet(dir);
  cfg.trainer_threads = 1;
  EdgeFleet fleet(cfg);
  const ClusterId id = 21;
  ClusterId mate = id + 1;  // a tenant on the same cell's trainer
  while (fleet.owner_of(mate) != fleet.owner_of(id)) ++mate;
  fleet.register_tenant(id);
  fleet.register_tenant(mate);
  fleet.start();
  fleet.warm(id);
  fleet.warm(mate);
  // Changed, so the demotion really writes. The cell's one trainer worker
  // finishes this job's bookkeeping before it picks the mate's job, so once
  // that returns nothing holds `id` busy.
  const std::uint64_t tuned = fine_tune(fleet, id, 31);
  fine_tune(fleet, mate, 32);
  common::Pcg32 rng(10);
  const Tensor latent = Tensor::uniform({1, kLatentDim}, rng);
  const DecodeResponse before = fleet.submit(id, latent).get();
  ASSERT_EQ(before.model_version, tuned);

  // Break the cold tier: its directory becomes a regular file.
  std::filesystem::remove_all(dir);
  std::ofstream(dir) << "not a directory";
  const std::uint64_t aborts = fleet.stats().demotion_aborts;
  ASSERT_FALSE(fleet.demote(id));
  EXPECT_EQ(fleet.stats().demotion_aborts, aborts + 1);
  EXPECT_EQ(fleet.cold_store().saves(), 0u);
  EXPECT_TRUE(fleet.resident(id));

  // Not wedged: a submit answers in time and the trainer still takes jobs.
  auto answer = std::async(std::launch::async,
                           [&] { return fleet.submit(id, latent).get(); });
  ASSERT_EQ(answer.wait_for(std::chrono::seconds(5 * kDeadlineStretch)),
            std::future_status::ready)
      << "submit to the tenant of a failed demotion never returned";
  const DecodeResponse after = answer.get();
  ASSERT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_EQ(after.model_version, tuned);
  EXPECT_TRUE(after.reconstruction.allclose(before.reconstruction, 0.0f));
  const std::uint64_t retuned = fine_tune(fleet, id, 33);
  EXPECT_GT(retuned, tuned);
  const DecodeResponse trained = fleet.submit(id, latent).get();
  ASSERT_EQ(trained.model_version, retuned);

  // Restored cold tier: the demotion goes through, the rewake is bitwise.
  std::filesystem::remove(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(demote_eventually(fleet, id));
  EXPECT_EQ(fleet.cold_store().saves(), 1u);
  const DecodeResponse woken = fleet.submit(id, latent).get();
  ASSERT_EQ(woken.status, ResponseStatus::kOk);
  EXPECT_EQ(woken.model_version, retuned);
  EXPECT_TRUE(woken.reconstruction.allclose(trained.reconstruction, 0.0f));
}

TEST(FleetTest, TrainedFleetServesOneCoherentVersionPerRequest) {
  FleetConfig cfg = tiny_fleet(fresh_dir("trained"));
  cfg.trainer_threads = 1;
  cfg.trainer.queue_capacity = 4;
  EdgeFleet fleet(cfg);
  const ClusterId id = 9;
  fleet.register_tenant(id);
  fleet.start();
  fleet.warm(id);

  train::TrainerRuntime* trainer = fleet.cell_trainer(fleet.owner_of(id));
  ASSERT_NE(trainer, nullptr);
  auto job = trainer->submit_job(id, tiny_dataset(32, 3), /*epochs=*/1);

  common::Pcg32 rng(13);
  std::vector<std::future<DecodeResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(fleet.submit(id, Tensor::uniform({1, kLatentDim}, rng)));
  }
  std::uint64_t max_version = 0;
  for (auto& future : futures) {
    const DecodeResponse response = future.get();
    ASSERT_TRUE(response.status == ResponseStatus::kOk ||
                response.status == ResponseStatus::kShed)
        << to_string(response.status);
    if (response.status == ResponseStatus::kOk) {
      EXPECT_GE(response.model_version, 1u);
      max_version = std::max(max_version, response.model_version);
    }
  }
  const train::TrainResult result = job.get();
  EXPECT_EQ(result.outcome, train::JobOutcome::kCompleted);
  EXPECT_GT(result.published_version, 1u);

  // Post-training traffic serves the published generation (monotonic).
  const DecodeResponse after = fleet.submit(id, Tensor({1, kLatentDim})).get();
  ASSERT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_GE(after.model_version, max_version);
  EXPECT_GE(after.model_version, result.published_version);

  // Demotion persists the trained generation; reactivation resumes it.
  ASSERT_TRUE(fleet.demote(id));
  const DecodeResponse woken = fleet.submit(id, Tensor({1, kLatentDim})).get();
  ASSERT_EQ(woken.status, ResponseStatus::kOk);
  EXPECT_GE(woken.model_version, result.published_version);
}

TEST(FleetTest, PublishedSnapshotsStayUnmutated) {
  // A published snapshot is immutable: whatever reaches a cell registry,
  // its plan's packed panels still match the decoder they were packed
  // from. Checked after every kind of publish, with one tenant per cell.
  for (const std::size_t trainer_threads : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE(trainer_threads == 0 ? "trainer-less cells"
                                      : "trainer-backed cells");
    FleetConfig cfg = tiny_fleet(
        fresh_dir("unmutated_" + std::to_string(trainer_threads)));
    cfg.trainer_threads = trainer_threads;
    EdgeFleet fleet(cfg);
    ASSERT_GE(fleet.cell_count(), 2u);
    std::vector<ClusterId> ids(fleet.cell_count(), 0);
    for (ClusterId id = 1, found = 0; found < ids.size(); ++id) {
      ClusterId& slot = ids[fleet.owner_of(id)];
      if (slot == 0) {
        slot = id;
        ++found;
      }
    }
    const auto expect_fresh_plan = [&](ClusterId id, const char* publish) {
      const auto snapshot =
          fleet.cell_registry(fleet.owner_of(id))->current(id);
      ASSERT_NE(snapshot, nullptr) << publish << ", tenant " << id;
      ASSERT_NE(snapshot->plan, nullptr) << publish << ", tenant " << id;
      EXPECT_FALSE(snapshot->plan->weights_stale())
          << publish << " mutated the published decoder of tenant " << id;
    };
    for (const ClusterId id : ids) fleet.register_tenant(id);
    fleet.start();
    for (const ClusterId id : ids) {
      fleet.warm(id);
      expect_fresh_plan(id, trainer_threads == 0 ? "activation"
                                                 : "trainer registration");
      if (trainer_threads > 0) {
        ASSERT_GT(fine_tune(fleet, id, 40 + id), 1u);
        expect_fresh_plan(id, "fine-tune publish");
      }
      // Trainer-less, the rewake builds from the template; trainer-backed,
      // it loads the fine-tuned record and registers with the trainer.
      ASSERT_TRUE(demote_eventually(fleet, id));
      fleet.warm(id);
      expect_fresh_plan(id, "rewake");
    }
    EXPECT_EQ(fleet.cold_store().loads(), trainer_threads * ids.size());
  }
}

// ---- unregister paths the fleet's demotion depends on -----------------------

TEST(ServerRuntimeTest, UnregisterClusterReclaimsTenant) {
  serve::ServeConfig cfg;
  cfg.shard_count = 2;
  serve::ServerRuntime runtime(cfg);
  auto system = std::make_shared<core::OrcoDcsSystem>(tiny_system());
  runtime.register_cluster(1, system);
  runtime.start();
  EXPECT_EQ(runtime.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kOk);
  EXPECT_TRUE(runtime.unregister_cluster(1));
  EXPECT_EQ(runtime.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kUnknownCluster);
  EXPECT_FALSE(runtime.unregister_cluster(1));
  // Re-registration after unregister works (the fleet's rewake path).
  runtime.register_cluster(1, system);
  EXPECT_EQ(runtime.submit(1, Tensor({1, kLatentDim})).get().status,
            ResponseStatus::kOk);
  runtime.shutdown();
}

TEST(TrainerRuntimeTest, UnregisterRefusedWhileTenantBusy) {
  train::TrainerConfig cfg;
  cfg.worker_threads = 1;
  train::TrainerRuntime trainer(cfg);
  auto system = std::make_shared<core::OrcoDcsSystem>(tiny_system());
  trainer.register_tenant(1, system);

  // Queued (runtime not started): the tenant is not quiescent.
  auto job = trainer.submit_job(1, tiny_dataset(32, 11), /*epochs=*/1);
  EXPECT_FALSE(trainer.unregister_tenant(1));

  trainer.start();
  EXPECT_EQ(job.get().outcome, train::JobOutcome::kCompleted);
  // The worker decrements its active-job mark just after resolving the
  // future; spin briefly until the tenant reads as quiescent.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5 * kDeadlineStretch);
  bool removed = false;
  while (!removed && std::chrono::steady_clock::now() < deadline) {
    removed = trainer.unregister_tenant(1);
    if (!removed) std::this_thread::yield();
  }
  EXPECT_TRUE(removed);
  EXPECT_FALSE(trainer.unregister_tenant(1));  // already gone
  EXPECT_EQ(trainer.submit_job(1, tiny_dataset(32, 12)).get().outcome,
            train::JobOutcome::kRejected);
  trainer.shutdown();
}

}  // namespace
}  // namespace orco::fleet
