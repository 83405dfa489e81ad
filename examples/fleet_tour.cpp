// Tour of src/fleet: one process serving far more tenants than fit in RAM.
//
// An EdgeFleet fronts two edge cells. Tenants are routed to cells by a
// fixed hash of their id, and only a bounded warm set of tenants stays
// materialized — the rest live in the cold tier and reactivate
// transparently (and bitwise-identically) on their next request.
//
// The tour walks: registration (free), a fine-tune of one tenant,
// first-touch activation, LRU demotion under a tiny warm capacity (only
// the changed tenant writes a cold record; the rest are rebuilt from
// their seeds), a cold wake that restores the trained weights from that
// record, and the fleet's lifecycle counters.
//
// Build & run:  ./build/examples/fleet_tour
// Exits 1 when the cold wake does not restore the tenant bit for bit.
#include <cstring>
#include <filesystem>
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "data/dataset.h"
#include "fleet/fleet.h"
#include "serve/serve.h"
#include "train/train.h"

int main() {
  using namespace orco;
  using fleet::ClusterId;

  const std::string cold_dir = "/tmp/orco_fleet_tour";
  std::filesystem::remove_all(cold_dir);  // fresh cold tier for the tour

  fleet::FleetConfig cfg;
  cfg.replicas = 2;        // two in-process edge cells
  cfg.warm_capacity = 3;   // only 3 tenants materialized at once
  cfg.cold_dir = cold_dir;
  cfg.trainer_threads = 1;  // each cell gets a trainer runtime
  cfg.system.orco.input_dim = 64;
  cfg.system.orco.latent_dim = 16;
  cfg.system.orco.decoder_layers = 1;
  cfg.system.field.device_count = 4;
  fleet::EdgeFleet fl(cfg);

  std::cout << "phase 1: register six tenants (nothing materializes yet)\n";
  for (ClusterId id = 1; id <= 6; ++id) {
    fl.register_tenant(id);
    std::cout << "  tenant " << id << " -> cell " << fl.owner_of(id)
              << " (hash)\n";
  }
  std::cout << "  registered " << fl.registered_count() << ", resident "
            << fl.resident_count() << "\n\n";

  fl.start();
  common::Pcg32 rng(11);

  std::cout << "phase 2: fine-tune tenant 1 on its cell's trainer (a changed "
            << "tenant is the only kind whose demotion writes a cold record)\n";
  const ClusterId probe = 1;
  fl.warm(probe);
  const data::Dataset window("tour", data::ImageGeometry{1, 8, 8},
                             /*num_classes=*/1,
                             tensor::Tensor::uniform({32, 64}, rng),
                             std::vector<std::size_t>(32, 0));
  const train::TrainResult tuned =
      fl.cell_trainer(fl.owner_of(probe))->submit_job(probe, window).get();
  const tensor::Tensor latent = tensor::Tensor::randn({1, 16}, rng);
  const auto trained = fl.submit(probe, latent).get();
  std::cout << "  tenant " << probe << " published v"
            << tuned.published_version << ", now serving v"
            << trained.model_version << "\n\n";

  std::cout << "phase 3: first requests wake tenants on demand; the warm set "
            << "stays <= " << cfg.warm_capacity << "\n";
  for (ClusterId id = 1; id <= 6; ++id) {
    const auto response =
        fl.submit(id, tensor::Tensor::randn({1, 16}, rng)).get();
    std::cout << "  tenant " << id << ": status "
              << serve::to_string(response.status) << ", model v"
              << response.model_version << ", resident now "
              << fl.resident_count() << "\n";
  }
  const fleet::FleetStats after_sweep = fl.stats();
  std::cout << "  cold builds " << after_sweep.cold_builds << ", demotions "
            << after_sweep.demotions << ", cold records written "
            << fl.cold_store().saves() << " (to " << cold_dir << ")\n\n";

  std::cout << "phase 4: the demoted, trained tenant wakes from its "
            << "cold record, bitwise-identical\n";
  const auto woken = fl.submit(probe, latent).get();
  std::cout << "  tenant " << probe << " resident again: status "
            << serve::to_string(woken.status) << ", model v"
            << woken.model_version << ", cold records read "
            << fl.cold_store().loads() << "\n";
  const tensor::Tensor& before = trained.reconstruction;
  const tensor::Tensor& after = woken.reconstruction;
  const bool identical =
      trained.status == serve::ResponseStatus::kOk &&
      woken.status == serve::ResponseStatus::kOk &&
      after.shape() == before.shape() &&
      std::memcmp(after.data().data(), before.data().data(),
                  before.numel() * sizeof(float)) == 0;
  std::cout << "  same latent as before demotion: reconstructions identical: "
            << (identical ? "yes" : "no") << "\n\n";

  std::cout << "phase 5: fleet counters\n";
  const fleet::FleetStats stats = fl.stats();
  common::Table table({"counter", "value"});
  table.add_row({"registered", std::to_string(stats.registered)});
  table.add_row({"resident", std::to_string(fl.resident_count())});
  table.add_row({"cold builds", std::to_string(stats.cold_builds)});
  table.add_row({"cold wakes", std::to_string(stats.cold_wakes)});
  table.add_row({"demotions", std::to_string(stats.demotions)});
  table.add_row({"cold records written",
                 std::to_string(fl.cold_store().saves())});
  table.print(std::cout);

  fl.shutdown();
  if (!identical) {
    std::cerr << "fleet_tour: tenant " << probe << " decoded other bits "
              << "after its cold wake than before demotion\n";
    return 1;
  }
  std::cout << "\ndone: six tenants served through a warm set of "
            << cfg.warm_capacity << "\n";
  return 0;
}
