// Tests for the online background fine-tuning runtime (src/train) and its
// serving-side integration: versioned ModelRegistry publish/hot-swap,
// TrainerRuntime job lifecycle (budgets, rejection, FIFO job order, drift
// triggering), and a swap-while-serving stress test asserting every request
// is answered by exactly one coherent model generation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/models.h"
#include "serve/serve.h"
#include "tensor/backend.h"
#include "train/train.h"

#include "bf16_oracle.h"

// Instrumented builds run the background fine-tune an order of magnitude
// slower; wall-clock deadlines that wait on it must stretch accordingly.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ORCO_SANITIZED_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ORCO_SANITIZED_BUILD 1
#endif

namespace orco::train {
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

core::SystemConfig small_config(std::uint64_t seed = 42) {
  core::SystemConfig cfg;
  cfg.orco.input_dim = kInputDim;
  cfg.orco.latent_dim = kLatentDim;
  cfg.orco.decoder_layers = 2;
  cfg.orco.batch_size = 32;
  cfg.orco.seed = seed;
  cfg.field.device_count = 8;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

std::shared_ptr<core::OrcoDcsSystem> make_tenant(std::uint64_t seed = 42) {
  return std::make_shared<core::OrcoDcsSystem>(small_config(seed));
}

data::Dataset small_dataset(std::size_t count, std::uint64_t seed) {
  common::Pcg32 rng(seed);
  Tensor images = Tensor::uniform({count, kInputDim}, rng);
  return data::Dataset("tiny", data::ImageGeometry{1, 8, 8},
                       /*num_classes=*/1, std::move(images),
                       std::vector<std::size_t>(count, 0));
}

/// Freezes `system`'s current weights into a snapshot at an explicit
/// version (tests drive versions by hand; TrainerRuntime stamps the
/// EdgeServer's real model_version).
std::shared_ptr<ModelSnapshot> snapshot_of(core::OrcoDcsSystem& system,
                                           std::uint64_t version) {
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = version;
  // publish() compiles the snapshot's plan, so the stress test decodes
  // through packed panels.
  snapshot->decoder =
      std::shared_ptr<const nn::Sequential>(system.export_decoder_clone());
  snapshot->encoder =
      std::shared_ptr<const nn::Sequential>(system.export_encoder_clone());
  snapshot->latent_dim = kLatentDim;
  snapshot->output_dim = kInputDim;
  return snapshot;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

TEST(ModelRegistryTest, PublishIsVersionedAndMonotonic) {
  auto system = make_tenant();
  ModelRegistry registry;
  EXPECT_EQ(registry.current(1), nullptr);
  EXPECT_EQ(registry.find(1), nullptr);

  EXPECT_EQ(registry.publish(1, snapshot_of(*system, 5)), 5u);
  const auto current = registry.current(1);
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 5u);
  EXPECT_EQ(current->latent_dim, kLatentDim);
  ASSERT_NE(current->decoder, nullptr);

  // Same and older versions are refused; the current snapshot survives.
  EXPECT_THROW((void)registry.publish(1, snapshot_of(*system, 5)),
               std::invalid_argument);
  EXPECT_THROW((void)registry.publish(1, snapshot_of(*system, 4)),
               std::invalid_argument);
  EXPECT_EQ(registry.current(1)->version, 5u);

  EXPECT_EQ(registry.publish(1, snapshot_of(*system, 6)), 6u);
  EXPECT_EQ(registry.current(1)->version, 6u);
  EXPECT_EQ(registry.entry(1)->swap_count(), 2u);
  EXPECT_EQ(registry.total_published(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistryTest, EntryIsStableAcrossPublishes) {
  auto system = make_tenant();
  ModelRegistry registry;
  // A shard grabs the entry once at registration; publishes must swap the
  // snapshot inside that same entry, never replace the entry.
  const auto slot = registry.entry(7);
  EXPECT_EQ(slot->load(), nullptr);
  (void)registry.publish(7, snapshot_of(*system, 1));
  EXPECT_EQ(registry.entry(7), slot);
  ASSERT_NE(slot->load(), nullptr);
  EXPECT_EQ(slot->load()->version, 1u);
}

TEST(TrainerTest, FineTunesPublishesAndServingHotSwaps) {
  auto system = make_tenant();
  const auto dataset = small_dataset(96, 7);

  TrainerRuntime trainer;
  trainer.register_tenant(1, system);
  // Registration published the untrained weights at the edge's initial
  // model version, so serving starts on the lock-free snapshot path.
  const auto initial = trainer.registry()->current(1);
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->version, system->model_version());

  serve::ServeConfig scfg;
  scfg.shard_count = 1;
  scfg.queue.max_wait_us = 100;
  scfg.model_registry = trainer.registry();
  serve::ServerRuntime runtime(scfg);
  runtime.register_cluster(1, system);
  runtime.start();
  trainer.start();

  common::Pcg32 rng(3);
  const Tensor latent = Tensor::randn({kLatentDim}, rng);
  const DecodeResponse before = runtime.submit(1, latent).get();
  ASSERT_EQ(before.status, ResponseStatus::kOk);
  EXPECT_EQ(before.model_version, initial->version);

  // Fine-tune in the background while the server keeps running.
  const TrainResult result = trainer.submit_job(1, dataset, 2).get();
  EXPECT_EQ(result.outcome, JobOutcome::kCompleted);
  // 96 samples at batch 32 over 2 epochs.
  EXPECT_EQ(result.rounds_run, 6u);
  EXPECT_GT(result.eval_loss, 0.0f);
  // Every train_round bumped the edge's generation; the published version
  // is the post-job generation, shared verbatim with the registry.
  EXPECT_EQ(result.published_version, initial->version + result.rounds_run);
  EXPECT_EQ(result.published_version, system->model_version());
  ASSERT_NE(trainer.registry()->current(1), nullptr);
  EXPECT_EQ(trainer.registry()->current(1)->version, result.published_version);

  // The very next request decodes on the swapped-in snapshot, bitwise
  // identical to the live (now idle) decoder that produced it.
  const DecodeResponse after = runtime.submit(1, latent).get();
  ASSERT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_EQ(after.model_version, result.published_version);
  const Tensor expected =
      system->edge().decode_inference(latent.reshaped({1, kLatentDim}));
  EXPECT_TRUE(bitwise_equal(after.reconstruction,
                            expected.reshaped({kInputDim})));
  // Fine-tuning actually changed the model the server answers with.
  EXPECT_FALSE(bitwise_equal(before.reconstruction, after.reconstruction));

  // The shard observed the swap and stamped the telemetry row.
  const auto row = runtime.telemetry().tenant_snapshot(1);
  EXPECT_EQ(row.model_version, result.published_version);
  EXPECT_EQ(row.model_swaps, 1u);

  const auto stats = trainer.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.rounds_run, 6u);
  EXPECT_EQ(stats.snapshots_published, 2u);  // register + job

  runtime.shutdown();
  trainer.shutdown();
}

/// Restores the process-default kernel backend on scope exit.
class DefaultBackendGuard {
 public:
  DefaultBackendGuard() : previous_(tensor::current_backend().name()) {}
  ~DefaultBackendGuard() { tensor::set_backend(previous_); }

 private:
  std::string previous_;
};

// The kernel backend is one process-wide choice: after set_backend() the
// trainer compiles its publishes for it, and shard workers decode on it
// through the registry and through the registry-free route, each bitwise
// equal to the bf16-rounded decoder's forward on that backend.
TEST(TrainerTest, ProcessBackendReachesTrainerPublishesAndShardWorkers) {
  const DefaultBackendGuard restore;
  for (const char* name : {"reference", "simd"}) {
    SCOPED_TRACE(name);
    tensor::set_backend(name);
    const tensor::Backend* backend = tensor::find_backend(name);
    auto published = make_tenant(42);
    auto unpublished = make_tenant(43);  // decodes on its live EdgeServer

    TrainerRuntime trainer;
    trainer.register_tenant(1, published);
    ASSERT_NE(trainer.registry()->current(1), nullptr);
    EXPECT_EQ(&trainer.registry()->current(1)->plan->backend(), backend);

    serve::ServeConfig scfg;
    scfg.shard_count = 2;
    scfg.model_registry = trainer.registry();
    serve::ServerRuntime runtime(scfg);
    runtime.register_cluster(1, published);
    runtime.register_cluster(2, unpublished);
    runtime.start();
    trainer.start();

    // The job's publish runs on a trainer worker thread.
    const TrainResult result =
        trainer.submit_job(1, small_dataset(64, 5), 1).get();
    ASSERT_EQ(result.outcome, JobOutcome::kCompleted);
    const auto snapshot = trainer.registry()->current(1);
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->version, result.published_version);
    EXPECT_EQ(&snapshot->plan->backend(), backend);

    common::Pcg32 rng(11);
    const Tensor latent = Tensor::randn({kLatentDim}, rng);
    const std::pair<serve::ClusterId, core::OrcoDcsSystem*> tenants[] = {
        {1, published.get()}, {2, unpublished.get()}};
    for (const auto& [cluster, system] : tenants) {
      const DecodeResponse response = runtime.submit(cluster, latent).get();
      ASSERT_EQ(response.status, ResponseStatus::kOk) << "cluster " << cluster;
      const auto rounded = testutil::bf16_copy(system->edge().decoder(), [&] {
        common::Pcg32 any(0);
        return core::build_decoder(system->config().orco, any);
      });
      const Tensor want =
          rounded->forward(latent.reshaped({1, kLatentDim}), false);
      EXPECT_TRUE(bitwise_equal(response.reconstruction,
                                want.reshaped({kInputDim})))
          << "cluster " << cluster;
    }
    runtime.shutdown();
    trainer.shutdown();
  }
}

TEST(TrainerTest, RoundsBudgetCapsJobAndDutyCycleThrottles) {
  auto system = make_tenant();
  TrainerConfig tcfg;
  tcfg.default_budget.max_rounds_per_job = 2;
  tcfg.default_budget.duty_cycle = 0.5;
  TrainerRuntime trainer(tcfg);
  trainer.register_tenant(1, system);
  trainer.start();

  const TrainResult result =
      trainer.submit_job(1, small_dataset(96, 9), /*epochs=*/10).get();
  EXPECT_EQ(result.outcome, JobOutcome::kBudgetExhausted);
  EXPECT_EQ(result.rounds_run, 2u);
  // duty 0.5: one round's worth of sleep per round, except after the round
  // that hit the cap.
  EXPECT_GT(result.throttle_seconds, 0.0);
  // A capped job still publishes what it learned.
  EXPECT_EQ(result.published_version, system->model_version());
  trainer.shutdown();

  // A duty cycle outside (0, 1] is refused when the runtime is built.
  TrainerConfig bad = tcfg;
  bad.default_budget.duty_cycle = 0.0;
  EXPECT_THROW(TrainerRuntime{bad}, std::invalid_argument);
}

TEST(TrainerTest, RejectsInvalidJobsAndResolvesQueuedJobsOnShutdown) {
  auto system = make_tenant();
  TrainerConfig tcfg;
  tcfg.queue_capacity = 1;
  TrainerRuntime trainer(tcfg);
  trainer.register_tenant(1, system);

  // Unknown tenant and mismatched dataset resolve kRejected immediately.
  EXPECT_EQ(trainer.submit_job(99, small_dataset(8, 1)).get().outcome,
            JobOutcome::kRejected);
  common::Pcg32 rng(5);
  data::Dataset wrong("wrong", data::ImageGeometry{1, 4, 4}, 1,
                      Tensor::uniform({8, 16}, rng),
                      std::vector<std::size_t>(8, 0));
  EXPECT_EQ(trainer.submit_job(1, wrong).get().outcome, JobOutcome::kRejected);

  // Workers never started: the first job camps in the queue, the second
  // overflows the capacity-1 queue, and shutdown resolves the first.
  auto queued = trainer.submit_job(1, small_dataset(32, 2));
  EXPECT_EQ(trainer.submit_job(1, small_dataset(32, 3)).get().outcome,
            JobOutcome::kRejected);
  EXPECT_EQ(trainer.queued_jobs(), 1u);
  trainer.shutdown();
  EXPECT_EQ(queued.get().outcome, JobOutcome::kShutdown);
  EXPECT_EQ(trainer.submit_job(1, small_dataset(32, 4)).get().outcome,
            JobOutcome::kShutdown);
  EXPECT_EQ(trainer.stats().jobs_rejected, 3u);
}

TEST(TrainerTest, JobsRunAndPublishInSubmitOrder) {
  TrainerConfig tcfg;
  tcfg.worker_threads = 1;
  TrainerRuntime trainer(tcfg);
  trainer.register_tenant(1, make_tenant(1));
  trainer.register_tenant(2, make_tenant(2));
  using Publish = std::pair<ClusterId, std::uint64_t>;  // tenant, version
  std::mutex mu;
  std::vector<Publish> published;
  trainer.registry()->set_publish_hook(
      [&](ClusterId cluster,
          const std::shared_ptr<const ModelSnapshot>& snapshot) {
        std::lock_guard<std::mutex> lock(mu);
        published.emplace_back(cluster, snapshot->version);
      });

  // Queued before start(), so the one worker finds all three waiting.
  const std::vector<ClusterId> submitted = {2, 1, 2};
  std::vector<std::future<TrainResult>> jobs;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    jobs.push_back(trainer.submit_job(submitted[i], small_dataset(32, 20 + i)));
  }
  trainer.start();
  // Versions tell tenant 2's two jobs apart: each job's publish must land
  // in submit order.
  std::vector<Publish> expected;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    const TrainResult result = jobs[i].get();
    EXPECT_GT(result.published_version, 0u);
    expected.emplace_back(submitted[i], result.published_version);
  }
  trainer.shutdown();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(published, expected);
}

TEST(TrainerTest, DriftTriggerEnqueuesOneJobAndRecoversBaseline) {
  core::SystemConfig cfg = small_config();
  cfg.orco.monitor_window = 2;
  cfg.orco.relaunch_factor = 1.5f;
  cfg.orco.monitor_cooldown = 8;
  auto system = std::make_shared<core::OrcoDcsSystem>(cfg);

  TrainerRuntime trainer;
  trainer.register_tenant(1, system);
  trainer.start();
  const std::uint64_t version_before =
      trainer.registry()->current(1)->version;

  // No baseline yet: observations are ignored, nothing triggers.
  EXPECT_FALSE(trainer.observe_loss(1, 10.0f));
  trainer.set_baseline(1, 0.1f);
  trainer.update_stream(1, small_dataset(64, 11));

  EXPECT_FALSE(trainer.observe_loss(1, 1.0f));  // window not yet full
  EXPECT_TRUE(trainer.observe_loss(1, 1.0f));   // sustained drift -> trigger
  // Cooldown: the same episode must not fire a second relaunch while the
  // first job is still in flight.
  EXPECT_FALSE(trainer.observe_loss(1, 1.0f));
  EXPECT_EQ(trainer.stats().drift_triggers, 1u);

  // The auto-enqueued job runs in the background and publishes.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30 * kDeadlineStretch);
  while (trainer.registry()->current(1)->version == version_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(trainer.registry()->current(1)->version, version_before);
  EXPECT_EQ(trainer.stats().jobs_submitted, 1u);
  trainer.shutdown();
  // The completed job re-baselined the monitor on the fine-tuned data.
  EXPECT_EQ(trainer.stats().jobs_completed, 1u);
}

TEST(SwapStressTest, EveryRequestAnsweredByExactlyOneCoherentVersion) {
  // Two weight sets A and B; a swapper thread hot-publishes alternating
  // generations while client threads hammer one latent. Every kOk response
  // must bitwise-match exactly one generation's reference decode AND carry
  // that generation's version — no torn weights, no stale prepacked panel.
  // Each published snapshot carries a plan with packed panels, so a stale
  // packed panel would show up as a mismatch.
  auto sys_a = make_tenant(101);
  auto sys_b = make_tenant(202);

  common::Pcg32 rng(99);
  const Tensor latent = Tensor::randn({kLatentDim}, rng);
  const Tensor expected_a =
      sys_a->edge()
          .decode_inference(latent.reshaped({1, kLatentDim}))
          .reshaped({kInputDim});
  const Tensor expected_b =
      sys_b->edge()
          .decode_inference(latent.reshaped({1, kLatentDim}))
          .reshaped({kInputDim});
  ASSERT_FALSE(bitwise_equal(expected_a, expected_b));

  auto registry = std::make_shared<ModelRegistry>();
  // Odd versions carry A's weights, even versions B's.
  (void)registry->publish(1, snapshot_of(*sys_a, 1));

  serve::ServeConfig scfg;
  scfg.shard_count = 1;
  scfg.queue.capacity = 4096;
  scfg.queue.max_wait_us = 50;
  scfg.model_registry = registry;
  serve::ServerRuntime runtime(scfg);
  runtime.register_cluster(1, sys_a);
  runtime.start();

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    std::uint64_t version = 2;
    while (!stop.load()) {
      auto& source = (version % 2 == 1) ? *sys_a : *sys_b;
      (void)registry->publish(1, snapshot_of(source, version));
      ++version;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 200;
  std::atomic<std::size_t> ok_count{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        DecodeResponse response = runtime.submit(1, latent).get();
        if (response.status != ResponseStatus::kOk) continue;
        ok_count.fetch_add(1);
        const bool is_a = bitwise_equal(response.reconstruction, expected_a);
        const bool is_b = bitwise_equal(response.reconstruction, expected_b);
        // Exactly one generation produced it, and the stamped version
        // agrees with which one.
        const bool version_says_a = response.model_version % 2 == 1;
        if (!(is_a != is_b) || (is_a && !version_says_a) ||
            (is_b && version_says_a)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  swapper.join();
  runtime.shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  // The shard must actually have observed swaps for this to mean anything.
  EXPECT_GT(runtime.telemetry().tenant_snapshot(1).model_swaps, 0u);
}

}  // namespace
}  // namespace orco::train
