// Metrics registry — named counters, gauges and histograms with sharded,
// lock-free hot-path recording and a pull-model snapshot/export.
//
// Recording discipline: a handle (Counter*, Gauge*, Histogram*) is fetched
// once from the MetricsRegistry (which takes its mutex) and then recorded
// through for the rest of the process — every record is a relaxed atomic on
// a cache-line-padded cell, so concurrent shard workers never contend on a
// lock or share a line. Counters shard across kMetricShards cells keyed by
// a per-thread round-robin slot; histograms choose their cell count at
// creation (1 for single-writer rows like per-tenant latency, more for
// registry-wide series every worker hits).
//
// The bucket layout is the canonical latency layout used across the repo
// (quarter-powers of two, 4 buckets per octave — see hist_bucket_for), and
// Histogram is the repo's one latency histogram: serve::Telemetry's
// runtime and per-tenant latencies are Histograms in its registry.
//
// Export: write_prometheus() renders the text exposition format (counters
// and gauges as plain samples, histograms as summaries with p50/p95/p99
// quantile rows); write_json() renders one JSON object for dashboards and
// the bench artifacts. Both walk the registry under its mutex but only read
// the cells with relaxed atomics — exporting never stalls recording.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace orco::obs {

// ---- canonical log-spaced bucket layout -------------------------------------

/// Quarter-powers of two up to ~2^36 us (~19 hours): 4 buckets per octave
/// gives <=19% bucket width across the whole range.
constexpr std::size_t kHistBucketsPerOctave = 4;
constexpr std::size_t kHistBucketCount = 36 * kHistBucketsPerOctave;

/// Bucket index for a microsecond value: bucket b covers
/// [2^(b/4), 2^((b+1)/4)) us, with everything <= 1us in bucket 0.
std::size_t hist_bucket_for(double us);

/// Interpolated quantile over raw bucket counts (HistogramSnapshot::quantile
/// applies it to a histogram's merged cells). q in [0, 1]; `max_us` caps
/// the interpolation of the top bucket.
double hist_quantile(const std::uint64_t* buckets, std::size_t bucket_count,
                     std::uint64_t count, double max_us, double q);

// ---- metric types -----------------------------------------------------------

/// Cells a counter shards across. Small and fixed: the recording threads of
/// one process (shard workers + client threads) rotate over them, and a
/// snapshot sums them.
constexpr std::size_t kMetricShards = 8;

/// Monotonic counter. inc() is one relaxed fetch_add on the calling
/// thread's cell; value() sums the cells (racy reads are fine — each cell
/// is monotone, so value() never goes backwards between calls).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kMetricShards> cells_;
};

/// Last-write-wins double gauge with add() and max_of() variants. One cell:
/// gauges are either written by a single owner (per-tenant rows) or written
/// rarely (high-water marks), so sharding would only blur last-write-wins.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  /// Monotonic high-water update: v_ = max(v_, v).
  void max_of(double v) noexcept;
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged read-side view of a histogram: raw bucket counts plus the moments
/// needed for the report columns. Identical samples give identical bucket
/// counts and quantiles however they were spread over the cells.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBucketCount> buckets{};
  std::uint64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;

  double mean_us() const {
    return count > 0 ? sum_us / static_cast<double>(count) : 0.0;
  }
  double quantile(double q) const {
    return hist_quantile(buckets.data(), buckets.size(), count, max_us, q);
  }
};

/// Log-bucketed histogram with `cell_count` independently recorded cells.
/// record() is three relaxed atomics plus one CAS-max on the caller's cell;
/// snapshot() merges the cells. Pass cell_count 1 for single-writer series.
class Histogram {
 public:
  explicit Histogram(std::size_t cell_count);

  void record(double us) noexcept;
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const noexcept;

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kHistBucketCount> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum_us{0.0};
    std::atomic<double> max_us{0.0};
  };
  std::vector<std::unique_ptr<Cell>> cells_;
};

// ---- registry ---------------------------------------------------------------

/// Prometheus-style labels, e.g. {{"tenant", "3"}}. Kept sorted-as-given;
/// the (name, labels) pair is the registry key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Named metric directory. Handle lookup (counter()/gauge()/histogram())
/// creates on first use and is the only operation that takes the registry
/// mutex — cache the returned pointer, which stays valid for the
/// registry's lifetime. Metric names use dotted lowercase
/// ("serve.submitted"); exporters sanitize for their format.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, const Labels& labels = {});
  /// `cells`: independent recording cells (1 = single writer; use more when
  /// many threads record into the same named series).
  Histogram* histogram(const std::string& name, const Labels& labels = {},
                       std::size_t cells = kMetricShards);

  /// Prometheus text exposition format, one block per metric family,
  /// "orco_" prefix, dots mapped to underscores. Histograms render as
  /// summaries (quantile rows + _sum + _count).
  void write_prometheus(std::ostream& os) const;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with labels folded into the key as
  /// name{k=v,...}.
  void write_json(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_or_create(Kind kind, const std::string& name,
                        const Labels& labels, std::size_t cells)
      ORCO_EXCLUDES(mu_);

  /// Creation + export iteration only — record paths go through the
  /// returned handles' lock-free cells and never touch the registry.
  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_
      ORCO_GUARDED_BY(mu_);  // registration order
};

/// The process-wide registry for metrics with no natural owner (kernel
/// backend selection, library-level counters). Subsystems with their own
/// lifecycle (serve::Telemetry) keep their own registries; exporters that
/// want the library-level series include this one explicitly.
MetricsRegistry& global_registry();

}  // namespace orco::obs
