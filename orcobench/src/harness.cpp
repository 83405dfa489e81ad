#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "nn/dense.h"
#include "nn/infer_context.h"
#include "tensor/backend.h"

namespace orcobench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- statistics ----------------------------------------------------------------

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double idx = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps n * (1 - q) from rounding just below an integer.
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

bool quantile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

// ---- seeded inputs -----------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cumulative_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative_[r] = total;
  }
  for (double& c : cumulative_) c /= total;
}

std::size_t Zipf::sample(orco::common::Pcg32& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return it == cumulative_.end()
             ? cumulative_.size() - 1
             : static_cast<std::size_t>(it - cumulative_.begin());
}

double Zipf::head_mass(std::size_t k) const {
  return k == 0 ? 0.0 : cumulative_[std::min(k, cumulative_.size()) - 1];
}

// ---- spans -------------------------------------------------------------------

namespace {

/// Per-thread cap keeps a long traced run's memory bounded.
constexpr std::size_t kMaxSpansPerThread = 500000;

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_span_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_span_buffers;  // guarded by g_span_mu
std::atomic<bool> g_trace_enabled{false};
std::atomic<std::uint64_t> g_next_span_id{1};
thread_local ThreadSpans* t_spans = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() const noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::next_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const Span& span) {
  if (t_spans == nullptr) {
    std::lock_guard<std::mutex> lock(g_span_mu);
    auto buffer = std::make_unique<ThreadSpans>();
    buffer->thread = static_cast<std::uint32_t>(g_span_buffers.size());
    t_spans = buffer.get();
    g_span_buffers.push_back(std::move(buffer));
  }
  if (t_spans->spans.size() >= kMaxSpansPerThread) return;
  Span copy = span;
  copy.thread = t_spans->thread;
  t_spans->spans.push_back(copy);
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(g_span_mu);
  std::vector<Span> all;
  for (const auto& buffer : g_span_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(const char* name, const char* module,
                       std::uint64_t parent, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.module = module;
  span_.parent = parent;
  span_.request = request;
  span_.id = tracer.next_id();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  Tracer::instance().record(span_);
}

std::map<std::string, double> module_self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans) {
    std::int64_t self = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    self_ms[s.module] += static_cast<double>(std::max<std::int64_t>(self, 0)) / 1e6;
  }
  return self_ms;
}

bool write_span_file(const std::string& path, const std::vector<Span>& spans) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.module, s.thread,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- results -----------------------------------------------------------------

namespace {

void json_number(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void json_metrics(std::ostringstream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << metrics[i].name << "\":{\"value\":";
    json_number(out, metrics[i].value);
    out << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  out << "}";
}

}  // namespace

std::string Result::to_json(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\":\"" << options.workload << "\",\"seed\":" << options.seed
      << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"seconds\":";
  json_number(out, options.seconds);
  out << ",\"simd_isa\":\"" << orco::tensor::simd_isa() << "\""
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"checks\":{";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << checks[i].first
        << "\":" << (checks[i].second ? "true" : "false");
  }
  out << "},\"end_to_end\":";
  json_metrics(out, end_to_end);
  out << ",\"per_layer\":";
  json_metrics(out, per_layer);
  out << ",\"detail\":";
  json_metrics(out, detail);
  out << "}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

LatencySummary summarize(const std::vector<double>& us, double tail_q) {
  LatencySummary s;
  s.count = us.size();
  s.p50 = quantile(us, 0.5);
  s.tail = quantile_supported(us.size(), tail_q)
               ? quantile(us, tail_q)
               : std::numeric_limits<double>::quiet_NaN();
  return s;
}

void report_latency(Result& result, const std::vector<double>& us,
                    double tail_q) {
  const LatencySummary s = summarize(us, tail_q);
  result.e2e("latency_p50_us", s.p50, "us");
  result.e2e("latency_tail_us", s.tail, "us");
  result.info("latency_samples", static_cast<double>(s.count), "count");
  result.info("latency_tail_q", tail_q, "quantile");
  result.check("latency_tail_supported", std::isfinite(s.tail));
}

SlicedSummary slice_summary(const std::vector<double>& done_s,
                            const std::vector<double>& latency_us,
                            double window_s, std::size_t slices,
                            double tail_q) {
  std::vector<std::vector<double>> by_slice(slices);
  const double width = window_s / static_cast<double>(slices);
  for (std::size_t i = 0; i < done_s.size(); ++i) {
    if (done_s[i] < 0.0 || done_s[i] >= window_s) continue;
    const auto s = std::min(slices - 1, static_cast<std::size_t>(done_s[i] / width));
    by_slice[s].push_back(latency_us[i]);
  }
  std::vector<double> rps, p50, tail;
  bool tail_ok = true;
  for (const auto& lat : by_slice) {
    rps.push_back(static_cast<double>(lat.size()) / width);
    if (lat.empty()) continue;
    p50.push_back(quantile(lat, 0.5));
    if (quantile_supported(lat.size(), tail_q)) {
      tail.push_back(quantile(lat, tail_q));
    } else {
      tail_ok = false;
    }
  }
  SlicedSummary s;
  s.rps_min = *std::min_element(rps.begin(), rps.end());
  s.rps_max = *std::max_element(rps.begin(), rps.end());
  s.rps = median(rps);
  s.p50 = median(p50);
  s.tail = tail_ok ? median(tail) : std::numeric_limits<double>::quiet_NaN();
  return s;
}

void report_request_metrics(Result& result, const std::vector<double>& done_s,
                            const std::vector<double>& latency_us,
                            double window_s) {
  constexpr std::size_t kSlices = 10;
  // The gated tail is p90: on a shared 4-core host the run-to-run spread
  // of a p99 reached 40%, wider than any usable regression bound. p99 is
  // still reported, per slice and pooled, as detail.
  constexpr double kTailQ = 0.9;
  const SlicedSummary s = slice_summary(done_s, latency_us, window_s, kSlices, kTailQ);
  result.e2e("throughput_rps", s.rps, "1/s");
  result.e2e("latency_p50_us", s.p50, "us");
  result.e2e("latency_tail_us", s.tail, "us");
  result.check("latency_tail_supported", std::isfinite(s.tail));
  result.info("latency_tail_q", kTailQ, "quantile");
  result.info("latency_slices", static_cast<double>(kSlices), "count");
  result.info("latency_p99_us.sliced",
              slice_summary(done_s, latency_us, window_s, kSlices, 0.99).tail, "us");
  result.info("throughput_rps.slice_min", s.rps_min, "1/s");
  result.info("throughput_rps.slice_max", s.rps_max, "1/s");
  const LatencySummary pooled = summarize(latency_us, 0.99);
  result.info("latency_samples", static_cast<double>(pooled.count), "count");
  result.info("latency_p50_us.pooled", pooled.p50, "us");
  result.info("latency_p99_us.pooled", pooled.tail, "us");
}

double setup_seconds(Clock::time_point first_setup,
                     const std::vector<double>& setup_reps) {
  return seconds_between(process_start(), first_setup) + median(setup_reps);
}

void report_span_shares(Result& result, const std::vector<Span>& spans) {
  const auto self_ms = module_self_ms(spans);
  double total = 0.0;
  for (const auto& [module, ms] : self_ms) total += ms;
  if (total <= 0.0) return;
  for (const auto& [module, ms] : self_ms) {
    result.info("share." + module, ms / total, "fraction");
  }
  result.info("spans", static_cast<double>(spans.size()), "count");
}

// ---- correctness oracle ------------------------------------------------------

orco::tensor::Tensor reference_decode(const orco::nn::Sequential& decoder,
                                      const orco::tensor::Tensor& latents) {
  using orco::tensor::Tensor;
  const orco::tensor::Backend& ref = orco::tensor::reference_backend();
  orco::tensor::BackendScope scope(&ref);
  orco::nn::InferContext ctx;
  Tensor x = latents;
  for (const orco::nn::Layer* layer : decoder.inference_chain()) {
    if (layer->infer_is_identity()) continue;
    Tensor y;
    if (const auto* dense = dynamic_cast<const orco::nn::Dense*>(layer)) {
      const Tensor& w = dense->weight();  // (out, in)
      const Tensor& b = dense->bias();
      const std::size_t rows = x.dim(0);
      const std::size_t in = w.dim(1);
      const std::size_t out = w.dim(0);
      y = Tensor::zeros({rows, out});
      ref.gemm_nt(x.data().data(), w.data().data(), y.data().data(), rows, in,
                  out);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < out; ++c) y.data()[r * out + c] += b.data()[c];
      }
    } else {
      layer->infer_into(x, y, ctx);
    }
    x = std::move(y);
  }
  return x;
}

std::size_t verify_samples(const std::vector<DecodeSample>& samples) {
  std::size_t mismatches = 0;
  // The reference kernel is slow on the large decoders: check an evenly
  // spread subset of at most kMaxOracleChecks samples.
  const std::size_t stride =
      std::max<std::size_t>(1, (samples.size() + kMaxOracleChecks - 1) / kMaxOracleChecks);
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    const DecodeSample& s = samples[i];
    const orco::tensor::Tensor ref = reference_decode(*s.decoder, s.input);
    const auto got = s.reconstruction.data();
    const auto want = ref.data();
    bool ok = got.size() == want.size();
    for (std::size_t i = 0; ok && i < got.size(); ++i) {
      ok = std::fabs(got[i] - want[i]) <= kParityAtol;
    }
    if (!ok) ++mismatches;
  }
  return mismatches;
}

}  // namespace orcobench
