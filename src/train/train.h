// Umbrella header for the online background fine-tuning runtime.
//
// Quickstart (serve and fine-tune concurrently):
//
//   #include "serve/serve.h"
//   #include "train/train.h"
//
//   orco::train::TrainerRuntime trainer;           // background workers
//   trainer.register_tenant(1, system);            // publishes snapshot v1
//
//   orco::serve::ServeConfig cfg;
//   cfg.model_registry = trainer.registry();       // shards hot-swap from it
//   orco::serve::ServerRuntime runtime(cfg);
//   runtime.register_cluster(1, system);
//   runtime.start();
//   trainer.start();
//
//   trainer.submit_job(1, drifted_dataset, 2);     // fine-tune off-path...
//   auto f = runtime.submit(1, latent);            // ...while serving runs;
//   f.get().model_version;                         // bumps after the swap
//
// Layering: model_registry depends on nn/ only (so serve/ can read it);
// trainer_runtime depends on core/ and publishes into that registry.
#pragma once

#include "train/model_registry.h"   // IWYU pragma: export
#include "train/train_job.h"        // IWYU pragma: export
#include "train/trainer_runtime.h"  // IWYU pragma: export
