// Typed handle bundle for the fleet's metric series, resolved once from the
// process-wide registry (the fleet's lifecycle series are exactly the
// "no natural owner" kind global_registry() exists for: several fleets in
// one process accumulate into the same named series, and exporters pick
// them up without extra wiring). Per-fleet numbers the tests and bench
// assert on live in EdgeFleet::stats() atomics instead, so this bundle is
// strictly an observability surface, never a correctness one.
#pragma once

#include "obs/metrics.h"

namespace orco::obs {

struct FleetMetrics {
  // Lifecycle counters.
  Counter* cold_wakes;        // tenants activated from the cold tier
  Counter* wake_coalesced;    // wakers that piggybacked on an in-flight wake
  Counter* demotions;         // tenants demoted to the cold tier
  Counter* demotion_aborts;   // demotions abandoned (tenant busy mid-drain)

  // Population gauges.
  Gauge* tenants_registered;
  Gauge* tenants_resident;    // warm (materialized) tenants
  Gauge* tenants_cold;        // registered minus resident

  // Exported as orco_fleet_cold_wake_us / orco_fleet_demote_us.
  Histogram* cold_wake_us;
  Histogram* demote_us;
};

/// The process-wide fleet metric handles, resolved on first use.
FleetMetrics& fleet_metrics();

}  // namespace orco::obs
