// File export for the observability pillars: metrics as JSON and
// Prometheus text, traces as Chrome trace-event JSON. ServerRuntime takes
// an ExportConfig through ServeConfig and writes it once, at shutdown;
// benches and examples call the write_* helpers directly.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace orco::obs {

/// Destinations; empty path = that export is off.
struct ExportConfig {
  std::string metrics_json_path;  // registry JSON snapshot
  std::string prometheus_path;    // text exposition format ("scrape file")
  std::string trace_path;         // Chrome trace-event JSON

  bool any() const {
    return !metrics_json_path.empty() || !prometheus_path.empty() ||
           !trace_path.empty();
  }
};

/// Each returns false (and logs to stderr) when the file can't be opened.
bool write_metrics_json(const MetricsRegistry& registry,
                        const std::string& path);
bool write_prometheus(const MetricsRegistry& registry,
                      const std::string& path);
bool write_trace_json(const std::string& path);

/// Runs the non-empty exports of `cfg` against `registry` + the global
/// TraceCollector. Returns true when everything written succeeded.
bool export_all(const MetricsRegistry& registry, const ExportConfig& cfg);

}  // namespace orco::obs
