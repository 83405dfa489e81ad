// Process-wide observability configuration.
//
// The three pillars (metrics, tracing, kernel profiling) are individually
// switchable and all default to the cheapest setting that keeps the serving
// path honest: metrics on (sharded counters are contention-free), tracing
// off (sampled in when wanted), kernel profiling off (per-op clock reads
// are measurable at micro-GEMM sizes).
//
// configure() installs the config atomically enough for the use cases that
// matter: the sampling knob lands in TraceCollector as one relaxed store,
// and kernel profiling flips one process-global atomic that OBS_SCOPED_SPAN
// checks with a single relaxed load. Call it before starting traffic;
// flipping mid-flight is safe but spans/ops straddling the flip may be
// half-recorded.
#pragma once

namespace orco::obs {

struct ObsConfig {
  /// Metric recording. Off only makes the typed facades skip their atomic
  /// increments — handles stay valid.
  bool metrics = true;
  /// Fraction of requests that record a full span tree. 0 disables tracing;
  /// 1/64 is the deployment default, 1.0 traces everything (tests).
  /// Internally rounded to "1 in max(1, round(1/rate))".
  double trace_sample_rate = 0.0;
  /// Per-op timing + FLOP counters in the GEMM/im2col paths and per-op
  /// decoder timers in InferPlan (InferPlan::op_profile_table).
  bool kernel_profiling = false;
};

/// Installs `cfg` process-wide (see header comment for the mid-flight
/// caveats).
void configure(const ObsConfig& cfg);

/// The currently installed config (defaults until configure() is called).
ObsConfig config();

/// Cheap hot-path gates — one relaxed atomic load each.
bool metrics_enabled() noexcept;
bool trace_enabled() noexcept;
bool kernel_profiling_enabled() noexcept;

}  // namespace orco::obs
