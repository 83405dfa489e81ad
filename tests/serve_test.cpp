// Tests for the multi-cluster serving runtime (src/serve): shard placement,
// batch coalescing (windows bounded by each lane's measured decode),
// batched-vs-sequential decode equality, backpressure,
// per-tenant QoS (quota admission, priority eviction, weighted-aging
// scheduling), MPMC wakeup delivery, exception-safe batch fan-out, and
// graceful shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "serve/serve.h"

namespace orco::serve {
namespace {

core::SystemConfig small_config(std::size_t input_dim = 64,
                                std::size_t latent_dim = 16,
                                std::uint64_t seed = 42) {
  core::SystemConfig cfg;
  cfg.orco.input_dim = input_dim;
  cfg.orco.latent_dim = latent_dim;
  cfg.orco.decoder_layers = 2;
  cfg.orco.seed = seed;
  cfg.field.device_count = 8;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

std::shared_ptr<core::OrcoDcsSystem> make_tenant(
    std::size_t input_dim = 64, std::size_t latent_dim = 16,
    std::uint64_t seed = 42) {
  return std::make_shared<core::OrcoDcsSystem>(
      small_config(input_dim, latent_dim, seed));
}

Tensor random_latent(std::size_t latent_dim, common::Pcg32& rng) {
  return Tensor::randn({latent_dim}, rng);
}

TEST(ShardPlacementTest, EightTenantsFillFourShardsTwoEach) {
  ServeConfig cfg;
  cfg.shard_count = 4;
  ServerRuntime runtime(cfg);
  for (ClusterId id = 0; id < 8; ++id) {
    runtime.register_cluster(id, make_tenant(64, 16, id + 1));
  }
  for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
    EXPECT_EQ(runtime.shard(i).cluster_count(), 2u) << "shard " << i;
  }
  // Lowest index first on a tie: ids 0..3 take shards 0..3, ids 4..7 again.
  for (ClusterId id = 0; id < 8; ++id) {
    EXPECT_EQ(runtime.shard_of(id), std::optional<std::size_t>(id % 4));
  }
}

TEST(ShardPlacementTest, FreedShardTakesTheNextRegistrations) {
  ServeConfig cfg;
  cfg.shard_count = 4;
  ServerRuntime runtime(cfg);
  for (ClusterId id = 0; id < 8; ++id) {
    runtime.register_cluster(id, make_tenant(64, 16, id + 1));
  }
  // Empty shard 2, then fill it back up; nothing else moves.
  const std::size_t freed = *runtime.shard_of(2);
  ASSERT_EQ(runtime.shard_of(6), std::optional<std::size_t>(freed));
  ASSERT_TRUE(runtime.unregister_cluster(2));
  ASSERT_TRUE(runtime.unregister_cluster(6));
  EXPECT_EQ(runtime.shard(freed).cluster_count(), 0u);
  runtime.register_cluster(20, make_tenant());
  EXPECT_EQ(runtime.shard_of(20), std::optional<std::size_t>(freed));
  runtime.register_cluster(21, make_tenant());
  EXPECT_EQ(runtime.shard_of(21), std::optional<std::size_t>(freed));
  for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
    EXPECT_EQ(runtime.shard(i).cluster_count(), 2u) << "shard " << i;
  }
}

TEST(ShardPlacementTest, ShardOfIsEmptyUntilRegisteredAndStableWhileRegistered) {
  ServeConfig cfg;
  cfg.shard_count = 3;
  ServerRuntime runtime(cfg);
  EXPECT_FALSE(runtime.shard_of(7).has_value());
  runtime.register_cluster(7, make_tenant());
  const std::optional<std::size_t> home = runtime.shard_of(7);
  ASSERT_TRUE(home.has_value());
  // Other tenants coming and going never move a registered one.
  for (ClusterId id = 100; id < 106; ++id) {
    runtime.register_cluster(id, make_tenant());
    EXPECT_EQ(runtime.shard_of(7), home);
  }
  for (ClusterId id = 100; id < 106; ++id) {
    ASSERT_TRUE(runtime.unregister_cluster(id));
    EXPECT_EQ(runtime.shard_of(7), home);
  }
  EXPECT_FALSE(runtime.shard_of(100).has_value());
  ASSERT_TRUE(runtime.unregister_cluster(7));
  EXPECT_FALSE(runtime.shard_of(7).has_value());
}

TEST(ShardPlacementTest, DuplicateRegistrationThrowsAndKeepsTheFirst) {
  ServeConfig cfg;
  cfg.shard_count = 2;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, make_tenant());
  const std::optional<std::size_t> home = runtime.shard_of(1);
  // The other shard is emptier, so placement alone would accept the
  // duplicate there.
  EXPECT_THROW(runtime.register_cluster(1, make_tenant()),
               std::invalid_argument);
  EXPECT_EQ(runtime.shard_of(1), home);
  EXPECT_EQ(runtime.shard(0).cluster_count() + runtime.shard(1).cluster_count(),
            1u);
  runtime.start();
  common::Pcg32 rng(3);
  EXPECT_EQ(runtime.submit(1, random_latent(16, rng)).get().status,
            ResponseStatus::kOk);
  runtime.shutdown();
}

TEST(ShardPlacementTest, UndrainedLaneGoesOnceItsRequestsAreAnswered) {
  // A tenant unregistered with work still queued can be placed on another
  // shard next; its old shard drops the lane once it has answered that work.
  ServeConfig cfg;
  cfg.shard_count = 2;
  ServerRuntime runtime(cfg);
  TenantPolicy high;
  high.priority = Priority::kHigh;
  const auto system = make_tenant();
  runtime.register_cluster(7, system, high);
  const std::size_t first = *runtime.shard_of(7);
  common::Pcg32 rng(4);
  // Not started yet: the request stays queued through the unregister.
  auto queued = runtime.submit(7, random_latent(16, rng));
  ASSERT_TRUE(runtime.unregister_cluster(7));
  runtime.register_cluster(8, make_tenant());
  runtime.register_cluster(7, system, high);
  const std::optional<std::size_t> second = runtime.shard_of(7);
  ASSERT_TRUE(second.has_value());
  ASSERT_NE(*second, first);
  runtime.start();
  EXPECT_EQ(queued.get().status, ResponseStatus::kUnknownCluster);
  runtime.shutdown();  // joins the worker that answered it
  // No lane is left on the old shard (its policy reads the default again);
  // the new shard's lane keeps the tenant's policy.
  EXPECT_EQ(runtime.shard(first).queue().policy(7).priority,
            Priority::kNormal);
  EXPECT_EQ(runtime.shard(*second).queue().policy(7).priority,
            Priority::kHigh);
}

TEST(ShardPlacementTest, ChurnedRegistrationsAnswerEveryRequestExactlyOnce) {
  // Ids 0..3 stay registered; ids 4..7 are registered and unregistered in a
  // loop while four clients submit to all eight.
  ServeConfig cfg;
  cfg.shard_count = 4;
  cfg.queue.max_wait_us = 50;
  ServerRuntime runtime(cfg);
  constexpr ClusterId kStable = 4, kAll = 8;
  std::vector<std::shared_ptr<core::OrcoDcsSystem>> systems;
  for (ClusterId id = 0; id < kAll; ++id) {
    systems.push_back(make_tenant(64, 16, id + 1));
  }
  for (ClusterId id = 0; id < kStable; ++id) {
    runtime.register_cluster(id, systems[id]);
  }
  runtime.start();

  std::atomic<bool> clients_done{false};
  std::size_t churn_rounds = 0;
  std::thread churn([&] {
    while (!clients_done.load()) {
      for (ClusterId id = kStable; id < kAll; ++id) {
        runtime.register_cluster(id, systems[id]);
      }
      for (ClusterId id = kStable; id < kAll; ++id) {
        EXPECT_TRUE(runtime.unregister_cluster(id));
      }
      ++churn_rounds;
    }
  });
  constexpr int kClients = 4, kRounds = 50;
  std::atomic<std::size_t> answers{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      common::Pcg32 rng(300 + t);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<DecodeResponse>> inflight;
        for (ClusterId id = 0; id < kAll; ++id) {
          inflight.push_back(runtime.submit(id, random_latent(16, rng)));
        }
        for (ClusterId id = 0; id < kAll; ++id) {
          const ResponseStatus status = inflight[id].get().status;
          answers.fetch_add(1);
          if (id < kStable) {
            EXPECT_EQ(status, ResponseStatus::kOk) << "cluster " << id;
          } else {
            EXPECT_TRUE(status == ResponseStatus::kOk ||
                        status == ResponseStatus::kUnknownCluster)
                << "cluster " << id << ": " << to_string(status);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  clients_done.store(true);
  churn.join();
  runtime.shutdown();

  EXPECT_GT(churn_rounds, 0u);
  EXPECT_EQ(answers.load(), std::size_t{kClients} * kRounds * kAll);
  const auto snapshot = runtime.telemetry().snapshot();
  EXPECT_EQ(snapshot.submitted, answers.load());
  EXPECT_EQ(snapshot.submitted,
            snapshot.completed + snapshot.shed + snapshot.rejected);
}

TEST(BatchQueueTest, CoalescesOnlyOneClusterPerBatchInFifoOrder) {
  BatchQueueConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 0;  // no lingering: deterministic pops
  BatchQueue queue(cfg);

  auto push = [&](ClusterId cluster, RequestId id) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    ASSERT_EQ(queue.push(std::move(p)), PushResult::kAccepted);
  };
  // Interleave clusters A=1 and B=2.
  push(1, 10);
  push(2, 20);
  push(1, 11);
  push(2, 21);
  push(1, 12);

  auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].request.cluster, 1u);
    EXPECT_EQ(batch[i].request.id, 10u + i);
  }
  batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.cluster, 2u);
  EXPECT_EQ(batch[0].request.id, 20u);
  EXPECT_EQ(batch[1].request.id, 21u);
}

TEST(BatchQueueTest, RespectsMaxBatch) {
  BatchQueueConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 0;
  BatchQueue queue(cfg);
  for (RequestId id = 0; id < 10; ++id) {
    PendingRequest p;
    p.request.cluster = 7;
    p.request.id = id;
    ASSERT_EQ(queue.push(std::move(p)), PushResult::kAccepted);
  }
  EXPECT_EQ(queue.pop_batch().size(), 4u);
  EXPECT_EQ(queue.pop_batch().size(), 4u);
  EXPECT_EQ(queue.pop_batch().size(), 2u);
}

TEST(BatchQueueTest, ShedsAtCapacityAndClosedAfterClose) {
  BatchQueueConfig cfg;
  cfg.capacity = 2;
  BatchQueue queue(cfg);
  PendingRequest a, b, c, d;
  EXPECT_EQ(queue.push(std::move(a)), PushResult::kAccepted);
  EXPECT_EQ(queue.push(std::move(b)), PushResult::kAccepted);
  EXPECT_EQ(queue.push(std::move(c)), PushResult::kShed);
  queue.close();
  EXPECT_EQ(queue.push(std::move(d)), PushResult::kClosed);
  // Close drains: queued entries still pop, then empty signals done.
  EXPECT_EQ(queue.pop_batch().size(), 2u);
  EXPECT_TRUE(queue.pop_batch().empty());
}

TEST(BatchQueueTest, WeightedPriorityPicksHighFirstAndAgingUnblocksLow) {
  BatchQueueConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 0;
  cfg.aging_us = 1000;  // 1 ms of head wait doubles a lane's score
  BatchQueue queue(cfg);
  TenantPolicy high;
  high.priority = Priority::kHigh;
  TenantPolicy low;
  low.priority = Priority::kLow;
  queue.set_policy(1, high);
  queue.set_policy(2, low);

  auto push = [&](ClusterId cluster, RequestId id) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    ASSERT_EQ(queue.push(std::move(p)), PushResult::kAccepted);
  };
  // Low arrives first, high a hair later: priority outweighs a small age
  // gap, so the high-priority lane is served first.
  push(2, 20);
  push(1, 10);
  auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.cluster, 1u);

  // The low request keeps aging. After ~25 ms its score (1 x ~26) beats a
  // freshly-pushed high request (4 x ~1): aging prevents starvation.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  push(1, 11);
  batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.cluster, 2u);
  batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.cluster, 1u);
}

TEST(BatchQueueTest, PerTenantQuotaShedsBeforeGlobalCapacity) {
  BatchQueueConfig cfg;
  cfg.capacity = 100;
  BatchQueue queue(cfg);
  TenantPolicy capped;
  capped.queue_quota = 2;
  queue.set_policy(1, capped);

  auto push = [&](ClusterId cluster, RequestId id) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    return queue.push(std::move(p));
  };
  EXPECT_EQ(push(1, 10), PushResult::kAccepted);
  EXPECT_EQ(push(1, 11), PushResult::kAccepted);
  EXPECT_EQ(push(1, 12), PushResult::kShed);  // over its own quota
  EXPECT_EQ(push(2, 20), PushResult::kAccepted);  // other tenants unaffected
  EXPECT_EQ(queue.size(1), 2u);
  EXPECT_EQ(queue.size(2), 1u);
}

TEST(BatchQueueTest, HighPriorityPushEvictsNewestLowPriorityAtCapacity) {
  BatchQueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_wait_us = 0;
  BatchQueue queue(cfg);
  TenantPolicy high;
  high.priority = Priority::kHigh;
  TenantPolicy low;
  low.priority = Priority::kLow;
  queue.set_policy(1, high);
  queue.set_policy(2, low);

  auto push = [&](ClusterId cluster, RequestId id,
                  std::vector<PendingRequest>* evicted) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    return queue.push(std::move(p), evicted);
  };
  std::vector<PendingRequest> evicted;
  EXPECT_EQ(push(2, 20, &evicted), PushResult::kAccepted);
  EXPECT_EQ(push(2, 21, &evicted), PushResult::kAccepted);
  // At capacity: the high-priority arrival bumps the NEWEST low-priority
  // pending request (oldest work keeps its position).
  EXPECT_EQ(push(1, 10, &evicted), PushResult::kAccepted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].request.id, 21u);
  EXPECT_EQ(push(1, 11, &evicted), PushResult::kAccepted);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1].request.id, 20u);
  // Only same-priority work left: the next high push is shed itself.
  EXPECT_EQ(push(1, 12, &evicted), PushResult::kShed);
  EXPECT_EQ(evicted.size(), 2u);

  auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.id, 10u);
  EXPECT_EQ(batch[1].request.id, 11u);
}

TEST(BatchQueueTest, CloseDuringCoalescingWindowDrainsPartialBatches) {
  BatchQueueConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 500000;  // 500 ms window
  BatchQueue queue(cfg);
  auto push = [&](ClusterId cluster, RequestId id) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    ASSERT_EQ(queue.push(std::move(p)), PushResult::kAccepted);
  };
  push(1, 10);
  push(2, 20);
  // Long measured decodes open both lanes' windows at the 500 ms cap.
  queue.record_decode(1, std::chrono::seconds(10));
  queue.record_decode(2, std::chrono::seconds(10));

  std::vector<std::size_t> batch_sizes;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread consumer([&] {
    for (;;) {
      auto batch = queue.pop_batch();
      if (batch.empty()) return;
      batch_sizes.push_back(batch.size());
    }
  });
  // The consumer is lingering in the coalescing window of its first batch;
  // close() must cut the window short and drain the partial batches.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  queue.close();
  consumer.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], 1u);
  EXPECT_EQ(batch_sizes[1], 1u);
  // Both single-request batches must drain well before the 500 ms window
  // (one window alone would run past it, two sequential windows past 1 s).
  EXPECT_LT(elapsed_ms, 400.0);
}

TEST(BatchQueueTest, PushWakesSecondConsumerDuringCoalescingWindow) {
  // MPMC lost-wakeup regression: consumer 1 lingers in the coalescing
  // window for cluster 1; consumer 2 starts waiting afterwards (so a FIFO
  // single wakeup would land on consumer 1, which cannot extract cluster
  // 2's work). A push for cluster 2 must still reach consumer 2 promptly
  // instead of stalling until consumer 1's window expires.
  BatchQueueConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 400000;  // 400 ms window
  BatchQueue queue(cfg);
  auto push = [&](ClusterId cluster, RequestId id) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    ASSERT_EQ(queue.push(std::move(p)), PushResult::kAccepted);
  };

  auto consume = [&] {
    for (;;) {
      if (queue.pop_batch().empty()) return;
    }
  };

  push(1, 10);
  // Long measured decodes open both lanes' windows at the 400 ms cap;
  // cluster 2's lane is created up front, as shard registration does.
  queue.set_policy(2, cfg.default_policy);
  queue.record_decode(1, std::chrono::seconds(10));
  queue.record_decode(2, std::chrono::seconds(10));
  std::thread c1(consume);  // grabs cluster 1, lingers in the window
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread c2(consume);  // arrives at the top-level wait second
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  const auto push_b_at = std::chrono::steady_clock::now();
  push(2, 20);
  // Poll until cluster 2's request leaves the queue: post-fix, consumer 2
  // extracts it within milliseconds of the push; pre-fix, the single
  // notification is absorbed by lingering consumer 1 and the request sits
  // queued until consumer 1's ~400 ms window expires.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  double extracted_after_ms = -1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (queue.size() == 0) {
      extracted_after_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - push_b_at)
                               .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  queue.close();
  c1.join();
  c2.join();
  ASSERT_GE(extracted_after_ms, 0.0)
      << "cluster 2's request was never extracted";
  EXPECT_LT(extracted_after_ms, 150.0);
}

TEST(BatchQueueTest, CoalescingWindowIsBoundedByTheLanesMeasuredDecode) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  BatchQueueConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 2000000;  // 2 s cap
  BatchQueue queue(cfg);
  auto push = [&](ClusterId cluster, RequestId id) {
    PendingRequest p;
    p.request.cluster = cluster;
    p.request.id = id;
    ASSERT_EQ(queue.push(std::move(p)), PushResult::kAccepted);
  };

  // A lane with no measured decode pops without waiting.
  push(1, 10);
  auto t0 = Clock::now();
  EXPECT_EQ(queue.pop_batch().size(), 1u);
  EXPECT_LT(ms_since(t0), 500.0) << "an unmeasured lane must not linger";

  // A measured decode D below the cap: the pop lingers about D and takes a
  // request pushed within that time.
  queue.record_decode(1, std::chrono::milliseconds(300));
  push(1, 11);
  std::vector<PendingRequest> batch;
  t0 = Clock::now();
  std::thread consumer([&] { batch = queue.pop_batch(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  push(1, 12);
  consumer.join();
  const double lingered_ms = ms_since(t0);
  ASSERT_EQ(batch.size(), 2u) << "the straggler must join the batch";
  EXPECT_EQ(batch[0].request.id, 11u);
  EXPECT_EQ(batch[1].request.id, 12u);
  EXPECT_GE(lingered_ms, 290.0);
  EXPECT_LT(lingered_ms, 1500.0) << "window must follow D, not the cap";

  // The cap still holds when the measured decode exceeds it.
  BatchQueueConfig capped_cfg = cfg;
  capped_cfg.max_wait_us = 100000;  // 100 ms cap
  BatchQueue capped(capped_cfg);
  PendingRequest p;
  p.request.cluster = 3;
  ASSERT_EQ(capped.push(std::move(p)), PushResult::kAccepted);
  capped.record_decode(3, std::chrono::seconds(10));
  t0 = Clock::now();
  EXPECT_EQ(capped.pop_batch().size(), 1u);
  const double capped_ms = ms_since(t0);
  EXPECT_GE(capped_ms, 95.0);
  EXPECT_LT(capped_ms, 1500.0) << "max_wait_us must cap the window";
}

TEST(ServeTest, BatchedDecodeBitwiseEqualsSequentialDecode) {
  const std::size_t latent_dim = 16;
  auto tenant = make_tenant(64, latent_dim);

  ServeConfig cfg;
  cfg.shard_count = 1;
  cfg.queue.max_batch = 16;
  cfg.queue.max_wait_us = 2000;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, tenant);

  // Submit everything before start() so the worker is forced to coalesce.
  common::Pcg32 rng(123);
  const std::size_t n = 32;
  std::vector<Tensor> latents;
  std::vector<std::future<DecodeResponse>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    latents.push_back(random_latent(latent_dim, rng));
    futures.push_back(runtime.submit(1, latents.back()));
  }
  runtime.start();
  runtime.shutdown();

  std::set<std::size_t> occupancies;
  for (std::size_t i = 0; i < n; ++i) {
    DecodeResponse response = futures[i].get();
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    occupancies.insert(response.batch_size);

    // The reference: a one-request inference straight on the tenant edge.
    const Tensor expected = tenant->edge().decode_inference(
        latents[i].reshaped({1, latent_dim}));
    ASSERT_EQ(response.reconstruction.numel(), expected.numel());
    for (std::size_t j = 0; j < expected.numel(); ++j) {
      // Bitwise: batching must not change a single ULP.
      EXPECT_EQ(response.reconstruction[j], expected[j])
          << "request " << i << " element " << j;
    }
  }
  // Proof that batching actually happened (not 32 singleton batches).
  EXPECT_GT(*occupancies.rbegin(), 1u);
  const auto snapshot = runtime.telemetry().snapshot();
  EXPECT_EQ(snapshot.completed, n);
  EXPECT_LT(snapshot.batches, n);
}

TEST(ServeTest, HeterogeneousTenantsDecodeToTheirOwnDims) {
  ServeConfig cfg;
  cfg.shard_count = 4;
  cfg.queue.max_wait_us = 100;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, make_tenant(64, 16, 1));    // telemetry-ish
  runtime.register_cluster(2, make_tenant(128, 32, 2));   // image-ish
  runtime.start();

  common::Pcg32 rng(7);
  std::vector<std::future<DecodeResponse>> small, large;
  for (int i = 0; i < 6; ++i) {
    small.push_back(runtime.submit(1, random_latent(16, rng)));
    large.push_back(runtime.submit(2, random_latent(32, rng)));
  }
  for (auto& f : small) {
    auto r = f.get();
    ASSERT_EQ(r.status, ResponseStatus::kOk);
    EXPECT_EQ(r.reconstruction.numel(), 64u);
  }
  for (auto& f : large) {
    auto r = f.get();
    ASSERT_EQ(r.status, ResponseStatus::kOk);
    EXPECT_EQ(r.reconstruction.numel(), 128u);
  }
  runtime.shutdown();
}

TEST(ServeTest, UnknownClusterAndBadLatentAreRejected) {
  ServeConfig cfg;
  cfg.shard_count = 2;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(5, make_tenant(64, 16));
  runtime.start();

  common::Pcg32 rng(9);
  auto unknown = runtime.submit(999, random_latent(16, rng));
  auto misshapen = runtime.submit(5, random_latent(17, rng));
  EXPECT_EQ(unknown.get().status, ResponseStatus::kUnknownCluster);
  EXPECT_EQ(misshapen.get().status, ResponseStatus::kBadRequest);

  const auto snapshot = runtime.telemetry().snapshot();
  EXPECT_EQ(snapshot.rejected, 2u);
  // Bogus ids must not leave state behind: no per-tenant telemetry row, no
  // queue lane (both would otherwise live for the runtime's lifetime).
  EXPECT_EQ(runtime.telemetry().tenant_snapshots().count(999), 0u);
  EXPECT_FALSE(runtime.shard_of(999).has_value());
  for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
    EXPECT_EQ(runtime.shard(i).queue().size(999), 0u) << "shard " << i;
  }
  runtime.shutdown();
}

TEST(ServeTest, ServeBatchAnswersRemainingRequestsWhenFanOutThrows) {
  // Broken-promise regression: when serve_batch throws mid-flight, every
  // request in the moved-in batch whose promise is still unanswered must be
  // answered kInternalError — pre-fix, the promises were destroyed and
  // callers' future.get() threw std::future_error instead of returning.
  ServeConfig cfg;
  cfg.shard_count = 1;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, make_tenant(64, 16));

  common::Pcg32 rng(21);
  std::vector<PendingRequest> batch;
  PendingRequest first;
  first.request.cluster = 1;
  first.request.id = 1;
  first.request.latent = random_latent(16, rng);
  std::future<DecodeResponse> first_future = first.promise.get_future();

  // A poisoned promise: set_value during the success fan-out throws
  // std::future_error, unwinding serve_batch between answered requests.
  PendingRequest poisoned;
  poisoned.request.cluster = 1;
  poisoned.request.id = 2;
  poisoned.request.latent = random_latent(16, rng);
  poisoned.promise.set_value(DecodeResponse{});

  PendingRequest last;
  last.request.cluster = 1;
  last.request.id = 3;
  last.request.latent = random_latent(16, rng);
  std::future<DecodeResponse> last_future = last.promise.get_future();

  batch.push_back(std::move(first));
  batch.push_back(std::move(poisoned));
  batch.push_back(std::move(last));
  EXPECT_THROW(runtime.shard(0).serve_batch(std::move(batch)),
               std::future_error);

  EXPECT_EQ(first_future.get().status, ResponseStatus::kOk);
  DecodeResponse last_response = last_future.get();  // must not throw
  EXPECT_EQ(last_response.status, ResponseStatus::kInternalError);
}

TEST(ServeTest, TenantPolicyEvictsLowPriorityAndTracksPerTenantTelemetry) {
  ServeConfig cfg;
  cfg.shard_count = 1;
  cfg.queue.capacity = 2;
  cfg.queue.max_wait_us = 0;
  ServerRuntime runtime(cfg);
  TenantPolicy high;
  high.priority = Priority::kHigh;
  TenantPolicy low;
  low.priority = Priority::kLow;
  runtime.register_cluster(1, make_tenant(64, 16, 1), high);
  runtime.register_cluster(2, make_tenant(64, 16, 2), low);

  // Workers not started: fill the queue with low-priority work, then let a
  // high-priority submit bump the newest low request.
  common::Pcg32 rng(13);
  auto low_a = runtime.submit(2, random_latent(16, rng));
  auto low_b = runtime.submit(2, random_latent(16, rng));
  auto high_a = runtime.submit(1, random_latent(16, rng));
  // The bumped request's future resolves kShed immediately.
  ASSERT_EQ(low_b.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_EQ(low_b.get().status, ResponseStatus::kShed);

  runtime.shutdown();  // drains the surviving two requests inline
  EXPECT_EQ(high_a.get().status, ResponseStatus::kOk);
  EXPECT_EQ(low_a.get().status, ResponseStatus::kOk);

  const auto high_snapshot = runtime.telemetry().tenant_snapshot(1);
  EXPECT_EQ(high_snapshot.submitted, 1u);
  EXPECT_EQ(high_snapshot.completed, 1u);
  EXPECT_EQ(high_snapshot.shed, 0u);
  const auto low_snapshot = runtime.telemetry().tenant_snapshot(2);
  EXPECT_EQ(low_snapshot.submitted, 2u);
  EXPECT_EQ(low_snapshot.completed, 1u);
  EXPECT_EQ(low_snapshot.shed, 1u);
  // Per-tenant rows roll up into the runtime-wide counters.
  const auto totals = runtime.telemetry().snapshot();
  EXPECT_EQ(totals.submitted, 3u);
  EXPECT_EQ(totals.completed, 2u);
  EXPECT_EQ(totals.shed, 1u);
  EXPECT_EQ(runtime.telemetry().tenant_report().rows(), 2u);
}

TEST(ServeTest, DefaultPolicyFromConfigAppliesQuota) {
  ServeConfig cfg;
  cfg.shard_count = 1;
  cfg.queue.default_policy.queue_quota = 1;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, make_tenant());

  common::Pcg32 rng(17);
  auto kept = runtime.submit(1, random_latent(16, rng));
  auto over_quota = runtime.submit(1, random_latent(16, rng));
  runtime.shutdown();
  EXPECT_EQ(kept.get().status, ResponseStatus::kOk);
  EXPECT_EQ(over_quota.get().status, ResponseStatus::kShed);
}

TEST(ServeTest, BackpressureShedsBeyondQueueCapacity) {
  ServeConfig cfg;
  cfg.shard_count = 1;
  cfg.queue.capacity = 4;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, make_tenant());

  // Workers not started: the 5th..10th submissions must shed immediately.
  common::Pcg32 rng(11);
  std::vector<std::future<DecodeResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(runtime.submit(1, random_latent(16, rng)));
  }
  std::size_t ok = 0, shed = 0;
  runtime.shutdown();  // drains the 4 accepted requests inline
  for (auto& f : futures) {
    const auto status = f.get().status;
    if (status == ResponseStatus::kOk) ++ok;
    if (status == ResponseStatus::kShed) ++shed;
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(shed, 6u);
  EXPECT_EQ(runtime.telemetry().snapshot().shed, 6u);
}

TEST(ServeTest, GracefulShutdownResolvesEveryInFlightFuture) {
  ServeConfig cfg;
  cfg.shard_count = 4;
  cfg.queue.max_wait_us = 50;
  ServerRuntime runtime(cfg);
  for (ClusterId id = 1; id <= 8; ++id) {
    runtime.register_cluster(id, make_tenant(64, 16, id));
  }
  runtime.start();

  // Hammer from several producer threads while shutting down concurrently.
  std::vector<std::future<DecodeResponse>> futures[4];
  std::vector<std::thread> producers;
  std::atomic<bool> go{false};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      common::Pcg32 rng(100 + t);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 50; ++i) {
        const ClusterId id = 1 + ((t * 50 + i) % 8);
        futures[t].push_back(runtime.submit(id, random_latent(16, rng)));
      }
    });
  }
  go.store(true);
  for (auto& p : producers) p.join();
  runtime.shutdown();

  std::size_t resolved = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const auto r = f.get();  // must not hang or throw broken_promise
      EXPECT_TRUE(r.status == ResponseStatus::kOk ||
                  r.status == ResponseStatus::kShed ||
                  r.status == ResponseStatus::kShutdown)
          << to_string(r.status);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, 200u);
  // Everything submitted was answered one way or another.
  const auto snapshot = runtime.telemetry().snapshot();
  EXPECT_EQ(snapshot.submitted,
            snapshot.completed + snapshot.shed + snapshot.rejected);
}

TEST(ServeTest, SubmitAfterShutdownAnswersShutdownStatus) {
  ServeConfig cfg;
  cfg.shard_count = 1;
  ServerRuntime runtime(cfg);
  runtime.register_cluster(1, make_tenant());
  runtime.start();
  runtime.shutdown();
  common::Pcg32 rng(5);
  EXPECT_EQ(runtime.submit(1, random_latent(16, rng)).get().status,
            ResponseStatus::kShutdown);
}

TEST(ServeTest, ShutdownIsIdempotentAndDestructorSafe) {
  ServeConfig cfg;
  cfg.shard_count = 2;
  auto runtime = std::make_unique<ServerRuntime>(cfg);
  runtime->register_cluster(1, make_tenant());
  runtime->start();
  runtime->shutdown();
  runtime->shutdown();
  runtime.reset();  // destructor after explicit shutdown: no deadlock
}

TEST(TelemetryTest, QuantilesBracketRecordedLatencies) {
  Telemetry telemetry;
  for (int i = 1; i <= 1000; ++i) {
    telemetry.record_completed(static_cast<double>(i));  // 1..1000 us
  }
  const auto s = telemetry.snapshot();
  EXPECT_EQ(s.completed, 1000u);
  // Log-bucketed estimates: generous but meaningful brackets.
  EXPECT_GT(s.p50_us, 250.0);
  EXPECT_LT(s.p50_us, 800.0);
  EXPECT_GT(s.p99_us, 800.0);
  EXPECT_LE(s.p99_us, 1000.0);
  EXPECT_NEAR(s.mean_latency_us, 500.5, 1.0);
  EXPECT_EQ(s.max_latency_us, 1000.0);
}

TEST(TelemetryTest, QuantileEdgeCases) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);
  EXPECT_THROW((void)empty.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)empty.quantile(1.1), std::invalid_argument);

  LatencyHistogram single;
  single.record(100.0);
  // Every quantile of one sample lands inside its bucket, capped at the
  // recorded maximum.
  EXPECT_GT(single.quantile(0.0), 0.0);
  EXPECT_LE(single.quantile(0.0), 100.0);
  EXPECT_EQ(single.quantile(1.0), 100.0);
  EXPECT_LE(single.quantile(0.5), 100.0);

  LatencyHistogram one_bucket;
  for (int i = 0; i < 1000; ++i) one_bucket.record(64.0);  // exact 2^6 edge
  // All mass in one bucket: interpolation stays within [64, next edge) and
  // the max cap pins every quantile to the recorded value.
  EXPECT_EQ(one_bucket.quantile(0.0), 64.0);
  EXPECT_EQ(one_bucket.quantile(0.5), 64.0);
  EXPECT_EQ(one_bucket.quantile(1.0), 64.0);

  LatencyHistogram zeros;
  zeros.record(0.0);
  zeros.record(0.0);
  EXPECT_EQ(zeros.quantile(1.0), 0.0);
  EXPECT_EQ(zeros.max_us(), 0.0);
}

TEST(TelemetryTest, ReportIncludesThroughput) {
  Telemetry telemetry;
  telemetry.record_submitted();
  telemetry.record_batch(1);
  telemetry.record_completed(100.0);
  const auto table = telemetry.report(2.0);
  EXPECT_GT(table.rows(), 5u);
  const auto csv = table.to_csv();
  EXPECT_NE(csv.find("throughput"), std::string::npos);
  EXPECT_NE(csv.find("0.5"), std::string::npos);  // 1 completed / 2 s
}

}  // namespace
}  // namespace orco::serve
