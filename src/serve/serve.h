// Umbrella header for the multi-cluster serving runtime.
//
// Quickstart:
//
//   #include "serve/serve.h"
//
//   orco::serve::ServeConfig cfg;
//   cfg.shard_count = 4;
//   orco::serve::ServerRuntime runtime(cfg);
//   runtime.register_cluster(/*cluster=*/1, mnist_system);
//   runtime.start();
//   auto future = runtime.submit(1, latent);       // (latent_dim) tensor
//   auto response = future.get();                  // kOk -> reconstruction
//   runtime.shutdown();                            // drains in-flight work
//
// Layering: tensor -> nn -> wsn -> core -> serve. The runtime multiplexes
// many independent core::OrcoDcsSystem tenants behind one batched,
// sharded, bounded-queue front door. train/model_registry.h sits below
// serve (nn-level: immutable snapshot handoff); train/trainer_runtime.h
// sits above it (background fine-tuning that publishes into the registry).
#pragma once

#include "serve/batch_queue.h"            // IWYU pragma: export
#include "serve/cluster_shard.h"          // IWYU pragma: export
#include "serve/request.h"                // IWYU pragma: export
#include "serve/server_runtime.h"         // IWYU pragma: export
#include "serve/telemetry.h"              // IWYU pragma: export
#include "train/model_registry.h"         // IWYU pragma: export
