// Umbrella header for the OrcoDCS core library.
//
// Quickstart:
//
//   #include "core/orcodcs.h"
//
//   orco::core::SystemConfig cfg;
//   cfg.orco.input_dim = 784;      // MNIST-like sensing data
//   cfg.orco.latent_dim = 128;     // paper's MNIST latent dimension
//   orco::core::OrcoDcsSystem sys(cfg);
//
//   sys.raw_aggregation_round(784 * sizeof(float));
//   auto summary = sys.train_online(train_set, /*epochs=*/5);
//   sys.distribute_encoder();
//   auto xr = sys.reconstruct(test_set.images());
#pragma once

#include "core/aggregator.h"       // IWYU pragma: export
#include "core/cluster_pipeline.h" // IWYU pragma: export
#include "core/config.h"           // IWYU pragma: export
#include "core/distributed_encoding.h"  // IWYU pragma: export
#include "core/edge_server.h"      // IWYU pragma: export
#include "core/messages.h"         // IWYU pragma: export
#include "core/models.h"           // IWYU pragma: export
#include "core/monitor.h"          // IWYU pragma: export
#include "core/orchestrator.h"     // IWYU pragma: export
#include "core/system.h"           // IWYU pragma: export
