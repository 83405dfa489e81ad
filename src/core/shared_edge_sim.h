// Shared-edge simulation — the paper's §V future-work question made
// concrete: "optimization of training overhead on edge servers when a large
// number of data aggregators need to perform training procedures".
//
// K clusters run closed-loop training rounds against one shared edge
// server. Each round: the aggregator computes its encoder passes
// (aggregator_s), the job queues FIFO at the edge, the edge serves it
// (edge_service_s), and the cluster immediately starts its next round.
// Discrete-event simulation; reports utilisation, waiting, fairness and
// per-cluster throughput — the quantitative case for an IoT-Edge-Cloud
// split once the edge saturates.
#pragma once

#include <cstddef>
#include <vector>

namespace orco::core {

struct SharedEdgeConfig {
  std::size_t clusters = 4;
  double aggregator_s = 0.08;   // aggregator-side compute per round
  double edge_service_s = 0.01; // edge-side compute per round (FIFO server)
  double comms_s = 0.005;       // fixed per-round channel time
  double horizon_s = 100.0;     // simulated duration
};

struct SharedEdgeReport {
  double edge_utilisation = 0.0;   // busy fraction of the horizon
  double mean_wait_s = 0.0;        // mean FIFO queueing delay
  double max_wait_s = 0.0;
  double mean_round_latency_s = 0.0;  // aggregator + wait + service + comms
  std::vector<std::size_t> rounds_per_cluster;
  std::size_t total_rounds = 0;
  /// min/max per-cluster round counts ratio (1.0 = perfectly fair).
  double fairness = 1.0;
};

/// Runs the discrete-event simulation. Deterministic (no randomness:
/// closed-loop arrivals, FIFO service, ties broken by cluster id).
SharedEdgeReport simulate_shared_edge(const SharedEdgeConfig& config);

}  // namespace orco::core
