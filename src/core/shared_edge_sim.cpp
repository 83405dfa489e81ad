#include "core/shared_edge_sim.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace orco::core {

SharedEdgeReport simulate_shared_edge(const SharedEdgeConfig& config) {
  ORCO_CHECK(config.clusters > 0, "need at least one cluster");
  ORCO_CHECK(config.aggregator_s >= 0.0 && config.edge_service_s > 0.0 &&
                 config.comms_s >= 0.0,
             "non-positive stage times");
  ORCO_CHECK(config.horizon_s > 0.0, "horizon must be positive");

  // Event: a cluster's job arrives at the edge queue at `time`.
  struct Arrival {
    double time;
    std::size_t cluster;
    bool operator>(const Arrival& other) const {
      return time > other.time ||
             (time == other.time && cluster > other.cluster);
    }
  };
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> arrivals;
  for (std::size_t c = 0; c < config.clusters; ++c) {
    arrivals.push({config.aggregator_s, c});
  }

  SharedEdgeReport report;
  report.rounds_per_cluster.assign(config.clusters, 0);

  double edge_free_at = 0.0;
  double busy_time = 0.0;
  double wait_sum = 0.0;
  double latency_sum = 0.0;

  while (!arrivals.empty()) {
    const Arrival job = arrivals.top();
    arrivals.pop();
    if (job.time > config.horizon_s) continue;

    const double start = std::max(job.time, edge_free_at);
    const double wait = start - job.time;
    const double done = start + config.edge_service_s;
    if (done > config.horizon_s) continue;  // round does not finish in time

    edge_free_at = done;
    busy_time += config.edge_service_s;
    wait_sum += wait;
    report.max_wait_s = std::max(report.max_wait_s, wait);
    latency_sum += config.aggregator_s + wait + config.edge_service_s +
                   config.comms_s;
    report.rounds_per_cluster[job.cluster] += 1;
    report.total_rounds += 1;

    // Closed loop: the cluster starts its next round after receiving the
    // response (comms) and finishing its aggregator-side compute.
    arrivals.push({done + config.comms_s + config.aggregator_s, job.cluster});
  }

  if (report.total_rounds > 0) {
    report.mean_wait_s = wait_sum / static_cast<double>(report.total_rounds);
    report.mean_round_latency_s =
        latency_sum / static_cast<double>(report.total_rounds);
  }
  report.edge_utilisation = busy_time / config.horizon_s;

  const auto [min_it, max_it] =
      std::minmax_element(report.rounds_per_cluster.begin(),
                          report.rounds_per_cluster.end());
  report.fairness =
      *max_it == 0 ? 1.0
                   : static_cast<double>(*min_it) / static_cast<double>(*max_it);
  return report;
}

}  // namespace orco::core
