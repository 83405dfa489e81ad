// Shared machinery of the orcobench load generator: statistics with the
// sample-count rule, seeded input generation, bench-side spans, the result
// document, the reference-backend decode oracle and the per-layer probes.
//
// Everything here lives on the bench side of the module boundary: the orco
// library only ever sees the generated inputs and public calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace orcobench {

using Clock = std::chrono::steady_clock;

// ---- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (the cold store lives here).
  std::string work_dir = ".bench_build/work";
  /// Span file the traced run writes (Chrome trace JSON).
  std::string span_file;
};

// ---- time --------------------------------------------------------------------

/// Stamped during static initialization: the process-start anchor setup_s
/// is measured from.
Clock::time_point process_start();
double seconds_between(Clock::time_point a, Clock::time_point b);
double us_between(Clock::time_point a, Clock::time_point b);

// ---- statistics ----------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);
/// Samples that lie beyond the q-quantile: floor(n * (1 - q)).
std::size_t samples_beyond(std::size_t n, double q);
/// The sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it.
bool quantile_supported(std::size_t n, double q);

// ---- seeded inputs -----------------------------------------------------------

/// splitmix64 of (seed, salt): independent streams from one workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Zipf(s) sampler over ranks [0, n): cumulative table + binary search.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(orco::common::Pcg32& rng) const;
  /// Probability mass of ranks [0, k).
  double head_mass(std::size_t k) const;

 private:
  std::vector<double> cumulative_;
};

// ---- spans -------------------------------------------------------------------

/// One bench-side span: a call into a module's public function.
struct Span {
  const char* name = "";
  const char* module = "";
  std::int64_t start_ns = 0;  // since process_start()
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not request-scoped
  std::uint32_t thread = 0;
};

/// Process-wide span store. Spans go to per-thread buffers (no lock on the
/// record path after a thread's first span) and are written out once when
/// the run ends. Disabled, a span costs one relaxed load.
class Tracer {
 public:
  static Tracer& instance();
  void set_enabled(bool enabled);
  bool enabled() const noexcept;
  std::uint64_t next_id() noexcept;
  void record(const Span& span);
  /// Every recorded span, all threads (call after worker threads joined).
  std::vector<Span> collect() const;
};

/// RAII span around one call. Records nothing while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* module, std::uint64_t parent = 0,
             std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
};

/// Self time per module in milliseconds: each span's duration minus the
/// part its direct children cover.
std::map<std::string, double> module_self_ms(const std::vector<Span>& spans);
/// Writes the spans as Chrome trace-event JSON (loads in Perfetto).
bool write_span_file(const std::string& path, const std::vector<Span>& spans);

// ---- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The document one run prints: gates, attempted/failed counts, the
/// end-to-end metrics, the per-layer metrics and workload-specific detail.
struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  std::string to_json(const Options& options) const;
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Latency summary under the sample-count rule: p50 and the fixed tail
/// percentile `tail_q` (NaN when the sample does not support it).
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
};
LatencySummary summarize(const std::vector<double>& us, double tail_q);

/// Adds latency_p50_us / latency_tail_us to the end-to-end metrics (with
/// the sample count and tail quantile as detail) and gates on the tail
/// percentile being supported by the sample.
void report_latency(Result& result, const std::vector<double>& us,
                    double tail_q);

/// A request workload's window cut into equal time slices by completion
/// time: the medians over slices of completions per second, of the slice
/// p50 and of the slice tail percentile. Medians over slices keep a
/// momentary stall of a shared host from swinging a whole run's figure.
struct SlicedSummary {
  double rps = 0.0;
  double rps_min = 0.0, rps_max = 0.0;
  double p50 = 0.0;
  double tail = 0.0;  // NaN unless every slice supports tail_q
};
SlicedSummary slice_summary(const std::vector<double>& done_s,
                            const std::vector<double>& latency_us,
                            double window_s, std::size_t slices,
                            double tail_q);

/// End-to-end throughput_rps / latency_p50_us / latency_tail_us of a request
/// workload from 10 slices of its window (completions at done_s < window_s
/// count), plus the pooled p50/p99 over every answered request as detail.
void report_request_metrics(Result& result, const std::vector<double>& done_s,
                            const std::vector<double>& latency_us,
                            double window_s);

/// The workload's setup_s: the median of `setup_reps` timed set-ups (each
/// generating the inputs, building the tenants and warming them up) plus
/// the one-off time from process start to `first_setup`.
double setup_seconds(Clock::time_point first_setup,
                     const std::vector<double>& setup_reps);

/// Module self-time shares of the traced window, added as detail rows
/// share.<module> (fractions of the total span self time).
void report_span_shares(Result& result, const std::vector<Span>& spans);

// ---- correctness oracle ------------------------------------------------------

/// Decodes `latents` (B, M) layer by layer on the reference backend: Dense
/// layers through reference gemm_nt plus bias, every other layer through
/// its own infer_into. Independent of InferPlan and of weight prepacking.
orco::tensor::Tensor reference_decode(const orco::nn::Sequential& decoder,
                                      const orco::tensor::Tensor& latents);
/// Element tolerance of the repository's simd parity tests against ground
/// truth (tests/tensor_backend_test.cpp).
inline constexpr float kParityAtol = 1e-3f;

/// One sampled ok reconstruction awaiting the oracle.
struct DecodeSample {
  orco::tensor::Tensor input;           // (1, M) float latent as decoded
  orco::tensor::Tensor reconstruction;  // what the server answered
  std::shared_ptr<const orco::nn::Sequential> decoder;  // weights that served
};
/// A uniform sample of at most `capacity` items over an unbounded stream
/// (reservoir sampling), so oracle samples cover the whole window while the
/// bench holds a bounded number of reconstructions and snapshots.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}
  /// Offers the next stream item: the slot of `items` to write it to, or
  /// -1 when it is not kept. A slot equal to items.size() means append.
  long slot(std::size_t current_size) {
    ++seen_;
    if (current_size < capacity_) return static_cast<long>(current_size);
    const std::uint64_t j = rng_.next() % seen_;
    return j < capacity_ ? static_cast<long>(j) : -1;
  }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  orco::common::Pcg32 rng_;
};

inline constexpr std::size_t kMaxOracleChecks = 24;
/// Checks up to kMaxOracleChecks samples, spread evenly over `samples`,
/// against reference_decode; returns the mismatches.
std::size_t verify_samples(const std::vector<DecodeSample>& samples);

// ---- per-layer probes --------------------------------------------------------

/// Runs the nn / tensor / core / wsn probes on a fresh system built from
/// `config`, with `batch_source` rows as the images (at least
/// config.orco.batch_size rows), and adds their per-layer metrics.
void probe_layers(const orco::core::SystemConfig& config,
                  const orco::data::Dataset& batch_source, std::uint64_t seed,
                  Result& result);

// ---- workloads ---------------------------------------------------------------

void run_serve_closed_gtsrb(const Options& options, Result& result);
void run_paper_online_train(const Options& options, Result& result);
void run_fleet_zipf_churn(const Options& options, Result& result);

}  // namespace orcobench
