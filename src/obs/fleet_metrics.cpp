#include "obs/fleet_metrics.h"

namespace orco::obs {

FleetMetrics& fleet_metrics() {
  static FleetMetrics metrics = [] {
    MetricsRegistry& reg = global_registry();
    FleetMetrics m;
    m.cold_wakes = reg.counter("fleet.cold_wakes");
    m.wake_coalesced = reg.counter("fleet.wake_coalesced");
    m.demotions = reg.counter("fleet.demotions");
    m.demotion_aborts = reg.counter("fleet.demotion_aborts");
    m.tenants_registered = reg.gauge("fleet.tenants_registered");
    m.tenants_resident = reg.gauge("fleet.tenants_resident");
    m.tenants_cold = reg.gauge("fleet.tenants_cold");
    m.cold_wake_us = reg.histogram("fleet.cold_wake_us");
    m.demote_us = reg.histogram("fleet.demote_us");
    return m;
  }();
  return metrics;
}

}  // namespace orco::obs
