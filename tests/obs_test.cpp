// Tests for the observability subsystem (src/obs) and its serve-path
// integration: sharded counter correctness under contention, histogram
// bucket/quantile pins, cell merge and boundary behaviour, Prometheus/JSON
// export well-formedness (checked with a minimal JSON parser), the exact
// metric families a serving runtime exports, trace sampling, and the span
// tree a served request produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/config.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/serve.h"
#include "tensor/matmul.h"

#include "trace_spans.h"

namespace orco {
namespace {

// ---- minimal JSON parser (validation only) ----------------------------------
// Enough JSON to round-trip what the exporters emit: objects, arrays,
// strings (no escapes beyond \"), numbers, true/false/null. parse() returns
// false instead of throwing so tests can assert on malformed output.

struct MiniJson {
  const char* p;
  const char* end;

  explicit MiniJson(const std::string& s) : p(s.data()), end(s.data() + s.size()) {}

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool parse_string() {
    skip_ws();
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') ++p;  // skip escaped char
      ++p;
    }
    if (p >= end) return false;
    ++p;
    return true;
  }
  bool parse_number() {
    skip_ws();
    const char* start = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                       *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                       *p == '+')) {
      ++p;
    }
    return p > start;
  }
  bool parse_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (static_cast<std::size_t>(end - p) < n) return false;
    if (std::string(p, p + n) != lit) return false;
    p += n;
    return true;
  }
  bool parse_value() {
    skip_ws();
    if (p >= end) return false;
    switch (*p) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }
  bool parse_object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      if (!parse_string()) return false;
      if (!consume(':')) return false;
      if (!parse_value()) return false;
      if (consume(',')) continue;
      return consume('}');
    }
  }
  bool parse_array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      if (!parse_value()) return false;
      if (consume(',')) continue;
      return consume(']');
    }
  }
  /// Whole-document parse: one value and nothing but whitespace after.
  bool parse() {
    if (!parse_value()) return false;
    skip_ws();
    return p == end;
  }
};

using testutil::parse_spans;
using testutil::ScopedObsConfig;
using testutil::SpanRec;

// ---- metrics ---------------------------------------------------------------

TEST(CounterTest, ShardedIncrementsSumExactlyUnderContention) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketForIsPinnedAtPowersOfTwo) {
  using obs::hist_bucket_for;
  // Everything at or below 1us lands in bucket 0.
  EXPECT_EQ(hist_bucket_for(0.0), 0u);
  EXPECT_EQ(hist_bucket_for(1.0), 0u);
  // Exact powers of two open their octave: 4 buckets per octave.
  EXPECT_EQ(hist_bucket_for(2.0), 4u);
  EXPECT_EQ(hist_bucket_for(4.0), 8u);
  EXPECT_EQ(hist_bucket_for(1024.0), 40u);
  // Just below a power of two stays in the previous octave's top bucket.
  EXPECT_EQ(hist_bucket_for(std::nextafter(2.0, 0.0)), 3u);
  // The top bucket absorbs everything past the table.
  EXPECT_EQ(hist_bucket_for(1e30), obs::kHistBucketCount - 1);
}

TEST(HistogramTest, QuantileEdges) {
  obs::Histogram h(/*cell_count=*/1);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);  // empty histogram

  h.record(100.0);
  const obs::HistogramSnapshot s = h.snapshot();
  // A single sample: q=1 is exactly the recorded max; q=0 is the winning
  // bucket's lower edge (never above the sample).
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_LE(s.quantile(0.0), 100.0);
  EXPECT_GT(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
}

TEST(HistogramTest, SnapshotMatchesPlainBucketCountBitwise) {
  // The reference: the bucket math applied by hand to a plain array.
  std::array<std::uint64_t, obs::kHistBucketCount> buckets{};
  std::uint64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;
  obs::Histogram sharded(/*cell_count=*/4);
  common::Pcg32 rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Spread over ~6 orders of magnitude like real latencies.
    const double us = std::exp2(rng.uniform() * 20.0);
    buckets[obs::hist_bucket_for(us)]++;
    ++count;
    sum_us += us;
    max_us = std::max(max_us, us);
    sharded.record(us);
  }
  const obs::HistogramSnapshot snap = sharded.snapshot();
  EXPECT_EQ(snap.buckets, buckets);
  EXPECT_EQ(snap.count, count);
  EXPECT_EQ(snap.max_us, max_us);
  // Same samples on one thread (one cell sees them all, in order):
  // quantiles and mean are bitwise equal.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile(q),
              obs::hist_quantile(buckets.data(), buckets.size(), count,
                                 max_us, q))
        << "q=" << q;
  }
  EXPECT_EQ(snap.mean_us(), sum_us / static_cast<double>(count));
}

TEST(HistogramTest, MergedCellsMatchOneCell) {
  // Four threads record into a 4-cell histogram; one thread records the
  // same samples into a 1-cell one. snapshot() merges the cells, so the
  // distributions must agree exactly.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<double>> samples(kThreads);
  common::Pcg32 rng(11);
  for (auto& part : samples) {
    for (int i = 0; i < kPerThread; ++i) {
      part.push_back(std::exp2(rng.uniform() * 18.0));
    }
  }
  obs::Histogram merged(/*cell_count=*/4);
  std::vector<std::thread> threads;
  for (const auto& part : samples) {
    threads.emplace_back([&merged, &part] {
      for (const double us : part) merged.record(us);
    });
  }
  for (auto& t : threads) t.join();
  obs::Histogram single(/*cell_count=*/1);
  for (const auto& part : samples) {
    for (const double us : part) single.record(us);
  }

  const obs::HistogramSnapshot a = merged.snapshot();
  const obs::HistogramSnapshot b = single.snapshot();
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.max_us, b.max_us);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

TEST(RegistryTest, PrometheusExportIsWellFormed) {
  obs::MetricsRegistry registry;
  registry.counter("serve.submitted")->inc(42);
  registry.gauge("serve.max_batch_occupancy")->set(7.0);
  registry.histogram("serve.latency_us")->record(123.0);
  registry.counter("serve.tenant.submitted", {{"tenant", "3"}})->inc(5);
  registry.counter("serve.tenant.submitted", {{"tenant", "9"}})->inc(6);

  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE orco_serve_submitted counter"),
            std::string::npos);
  EXPECT_NE(text.find("orco_serve_submitted 42"), std::string::npos);
  EXPECT_NE(text.find("orco_serve_max_batch_occupancy 7"), std::string::npos);
  EXPECT_NE(text.find("orco_serve_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("orco_serve_latency_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("orco_serve_tenant_submitted{tenant=\"3\"} 5"),
            std::string::npos);
  // One # TYPE header per family even with two labeled series.
  const std::string tenant_type = "# TYPE orco_serve_tenant_submitted";
  const auto first = text.find(tenant_type);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(tenant_type, first + 1), std::string::npos);

  // Every line is a comment or "name[{labels}] value" with a sane charset.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(line[0]))) << line;
  }
}

TEST(RegistryTest, JsonExportParses) {
  obs::MetricsRegistry registry;
  registry.counter("serve.submitted")->inc(3);
  registry.gauge("serve.max_batch_occupancy")->set(2.5);
  obs::Histogram* h =
      registry.histogram("serve.tenant.latency_us", {{"tenant", "1"}}, 1);
  h->record(50.0);
  h->record(900.0);

  std::ostringstream os;
  registry.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"serve.submitted\": 3"), std::string::npos);
  EXPECT_NE(json.find("serve.tenant.latency_us{tenant=1}"),
            std::string::npos);
}

TEST(RegistryTest, HandleKindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("serve.submitted");
  EXPECT_THROW(registry.gauge("serve.submitted"), std::invalid_argument);
}

// ---- kernel profiling -------------------------------------------------------

TEST(RegistryTest, ServeRuntimeExportsItsNineteenFamilies) {
  core::SystemConfig sys_cfg;
  sys_cfg.orco.input_dim = 64;
  sys_cfg.orco.latent_dim = 16;
  sys_cfg.orco.decoder_layers = 2;
  sys_cfg.orco.seed = 42;
  sys_cfg.field.device_count = 8;
  sys_cfg.field.radio_range_m = 60.0;

  serve::ServeConfig serve_cfg;
  serve_cfg.shard_count = 1;
  serve::ServerRuntime runtime(serve_cfg);
  runtime.register_cluster(3, std::make_shared<core::OrcoDcsSystem>(sys_cfg));
  runtime.start();
  common::Pcg32 rng(5);
  std::vector<std::future<serve::DecodeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(runtime.submit(3, tensor::Tensor::randn({16}, rng)));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, serve::ResponseStatus::kOk);
  }
  runtime.shutdown();

  std::ostringstream os;
  runtime.telemetry().registry().write_prometheus(os);
  const std::string text = os.str();
  std::set<std::string> types;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) types.insert(line);
  }
  const std::set<std::string> expected = {
      // Runtime-wide.
      "# TYPE orco_serve_submitted counter",
      "# TYPE orco_serve_shed counter",
      "# TYPE orco_serve_rejected counter",
      "# TYPE orco_serve_batches counter",
      "# TYPE orco_serve_batch_requests counter",
      "# TYPE orco_serve_max_batch_occupancy gauge",
      "# TYPE orco_serve_latency_us summary",
      // One row per tenant.
      "# TYPE orco_serve_tenant_submitted counter",
      "# TYPE orco_serve_tenant_shed counter",
      "# TYPE orco_serve_tenant_rejected counter",
      "# TYPE orco_serve_tenant_latency_us summary",
      // The tenant's pipeline stages.
      "# TYPE orco_serve_stage_queue_wait_us counter",
      "# TYPE orco_serve_stage_queue_wait_requests counter",
      "# TYPE orco_serve_stage_assembly_us counter",
      "# TYPE orco_serve_stage_assembly_requests counter",
      "# TYPE orco_serve_stage_decode_us counter",
      "# TYPE orco_serve_stage_decode_requests counter",
      "# TYPE orco_serve_stage_respond_us counter",
      "# TYPE orco_serve_stage_respond_requests counter",
  };
  EXPECT_EQ(expected.size(), 19u);
  EXPECT_EQ(types, expected) << text;
  // Per-tenant series carry the tenant label.
  EXPECT_NE(text.find("orco_serve_tenant_submitted{tenant=\"3\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("orco_serve_stage_decode_requests{tenant=\"3\"} 4\n"),
            std::string::npos)
      << text;
}

TEST(KernelProfileTest, RecordsGemmCallsWhenEnabled) {
  obs::kernel_reset();
  {
    ScopedObsConfig cfg([] {
      obs::ObsConfig c;
      c.kernel_profiling = true;
      return c;
    }());
    const tensor::Tensor a = tensor::Tensor::ones({8, 16});
    const tensor::Tensor b = tensor::Tensor::ones({16, 4});
    (void)tensor::matmul(a, b);
  }
  const auto stats = obs::kernel_snapshot();
  const auto& gemm =
      stats[static_cast<std::size_t>(obs::KernelOp::kGemm)];
  EXPECT_EQ(gemm.calls, 1u);
  EXPECT_EQ(gemm.flops, 2ull * 8 * 16 * 4);
  EXPECT_GT(gemm.ns, 0u);

  // Disabled again: no further accumulation.
  const tensor::Tensor a = tensor::Tensor::ones({8, 16});
  const tensor::Tensor b = tensor::Tensor::ones({16, 4});
  (void)tensor::matmul(a, b);
  EXPECT_EQ(obs::kernel_snapshot()[static_cast<std::size_t>(
                                       obs::KernelOp::kGemm)]
                .calls,
            1u);
  obs::kernel_reset();
}

// ---- tracing ---------------------------------------------------------------

TEST(TraceTest, SampleRateZeroRecordsNothing) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.clear();
  ScopedObsConfig cfg(obs::ObsConfig{});  // trace_sample_rate = 0
  EXPECT_FALSE(obs::trace_enabled());
  for (int i = 0; i < 100; ++i) {
    obs::ScopedSpan span("noop", "test", tc.should_sample());
  }
  EXPECT_EQ(tc.event_count(), 0u);
}

TEST(TraceTest, SampleEveryNIsOneInN) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.clear();
  obs::ObsConfig cfg;
  cfg.trace_sample_rate = 1.0 / 8.0;
  ScopedObsConfig scoped(cfg);
  int sampled = 0;
  for (int i = 0; i < 800; ++i) {
    if (tc.should_sample()) ++sampled;
  }
  // Counter-based sampling is exact once the countdown aligns: 800
  // decisions at 1-in-8 yield 100 +/- 1 (thread_local phase).
  EXPECT_NEAR(sampled, 100, 1);
}

TEST(TraceTest, ChromeJsonRoundTripsAndServeSpansNest) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.clear();
  obs::ObsConfig cfg;
  cfg.trace_sample_rate = 1.0;  // trace every request
  ScopedObsConfig scoped(cfg);

  core::SystemConfig sys_cfg;
  sys_cfg.orco.input_dim = 64;
  sys_cfg.orco.latent_dim = 16;
  sys_cfg.orco.decoder_layers = 2;
  sys_cfg.orco.seed = 42;
  sys_cfg.field.device_count = 8;
  sys_cfg.field.radio_range_m = 60.0;

  const serve::ClusterId cluster = 5;
  std::vector<unsigned long long> ids;
  {
    serve::ServeConfig serve_cfg;
    serve_cfg.shard_count = 1;
    serve::ServerRuntime runtime(serve_cfg);
    runtime.register_cluster(cluster,
                             std::make_shared<core::OrcoDcsSystem>(sys_cfg));
    runtime.start();
    common::Pcg32 rng(3);
    std::vector<std::future<serve::DecodeResponse>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(
          runtime.submit(cluster, tensor::Tensor::randn({16}, rng)));
    }
    for (auto& f : futures) {
      const serve::DecodeResponse resp = f.get();
      ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
      ids.push_back(resp.id);
    }
    runtime.shutdown();

    // Stage metrics rode along: every pipeline stage saw the requests.
    const auto stages = runtime.telemetry().stage_snapshot(cluster);
    for (const auto& stage : stages) EXPECT_GT(stage.requests, 0u);
    EXPECT_EQ(runtime.telemetry().stage_report().rows(), 1u);
  }

  std::ostringstream os;
  tc.write_chrome_json(os);
  const std::string trace = os.str();
  EXPECT_TRUE(MiniJson(trace).parse()) << trace.substr(0, 500);

  const std::vector<SpanRec> spans = parse_spans(trace);
  std::map<std::string, int> by_name;
  for (const auto& s : spans) by_name[s.name]++;
  EXPECT_GE(by_name["queue_wait"], 8);
  EXPECT_GE(by_name["assembly"], 1);
  EXPECT_GE(by_name["decode"], 1);
  EXPECT_GE(by_name["respond"], 1);
  EXPECT_GE(by_name["request"], 8);

  // Per traced request: the stage spans nest inside the request span and
  // their durations sum to no more than the end-to-end latency.
  for (const unsigned long long id : ids) {
    const SpanRec* request = nullptr;
    const SpanRec* queue_wait = nullptr;
    for (const auto& s : spans) {
      if (s.id != id) continue;
      if (s.name == "request") request = &s;
      if (s.name == "queue_wait") queue_wait = &s;
    }
    ASSERT_NE(request, nullptr) << "request span missing for id " << id;
    ASSERT_NE(queue_wait, nullptr) << "queue_wait span missing for id " << id;
    EXPECT_EQ(request->tenant, cluster);
    EXPECT_GE(queue_wait->ts, request->ts);
    EXPECT_LE(queue_wait->ts + queue_wait->dur,
              request->ts + request->dur + 1);

    long long stage_sum = queue_wait->dur;
    int own_stages = 0;
    for (const auto& s : spans) {
      if (s.name != "assembly" && s.name != "decode" && s.name != "respond") {
        continue;
      }
      // Batch-scoped spans: count this request's batch — the one the single
      // shard worker ran between popping the request and answering it. An
      // earlier batch can also lie inside the request's window (it ran
      // while this request queued), but its stages are not this request's.
      if (s.ts >= queue_wait->ts + queue_wait->dur - 1 &&
          s.ts + s.dur <= request->ts + request->dur + 1) {
        stage_sum += s.dur;
        ++own_stages;
      }
    }
    EXPECT_GE(own_stages, 3) << "batch stages missing for id " << id;
    EXPECT_LE(stage_sum, request->dur + 4)
        << "stages exceed end-to-end latency for id " << id;
  }
  tc.clear();
}

TEST(TraceTest, ExportAllWritesConfiguredFiles) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.clear();
  obs::MetricsRegistry registry;
  registry.counter("serve.submitted")->inc();
  obs::ExportConfig cfg;
  cfg.metrics_json_path = ::testing::TempDir() + "obs_metrics.json";
  cfg.prometheus_path = ::testing::TempDir() + "obs_metrics.prom";
  cfg.trace_path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(cfg.any());
  ASSERT_TRUE(obs::export_all(registry, cfg));

  std::ifstream trace_in(cfg.trace_path);
  std::stringstream trace;
  trace << trace_in.rdbuf();
  EXPECT_TRUE(MiniJson(trace.str()).parse());

  std::ifstream json_in(cfg.metrics_json_path);
  std::stringstream json;
  json << json_in.rdbuf();
  EXPECT_TRUE(MiniJson(json.str()).parse());

  // The second writer: a ServerRuntime whose obs_export names three files
  // writes them once, at shutdown, after its workers join.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "obs_runtime_export";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::SystemConfig sys_cfg;
  sys_cfg.orco.input_dim = 64;
  sys_cfg.orco.latent_dim = 16;
  sys_cfg.orco.decoder_layers = 2;
  sys_cfg.orco.seed = 42;
  sys_cfg.field.device_count = 8;
  sys_cfg.field.radio_range_m = 60.0;
  serve::ServeConfig serve_cfg;
  serve_cfg.shard_count = 1;
  serve_cfg.obs_export.metrics_json_path = (dir / "metrics.json").string();
  serve_cfg.obs_export.prometheus_path = (dir / "metrics.prom").string();
  serve_cfg.obs_export.trace_path = (dir / "trace.json").string();
  constexpr int kRequests = 5;
  {
    serve::ServerRuntime runtime(serve_cfg);
    runtime.register_cluster(
        3, std::make_shared<core::OrcoDcsSystem>(sys_cfg));
    runtime.start();
    common::Pcg32 rng(8);
    std::vector<std::future<serve::DecodeResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(runtime.submit(3, tensor::Tensor::randn({16}, rng)));
    }
    for (auto& f : futures) {
      ASSERT_EQ(f.get().status, serve::ResponseStatus::kOk);
    }
    for (const auto& file : {"metrics.json", "metrics.prom", "trace.json"}) {
      EXPECT_FALSE(std::filesystem::exists(dir / file))
          << file << " written before shutdown";
    }
    runtime.shutdown();
  }
  for (const auto& file : {"metrics.json", "metrics.prom", "trace.json"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / file)) << file;
  }
  std::ifstream runtime_trace_in(serve_cfg.obs_export.trace_path);
  std::stringstream runtime_trace;
  runtime_trace << runtime_trace_in.rdbuf();
  EXPECT_TRUE(MiniJson(runtime_trace.str()).parse());
  std::ifstream runtime_json_in(serve_cfg.obs_export.metrics_json_path);
  std::stringstream runtime_json;
  runtime_json << runtime_json_in.rdbuf();
  EXPECT_TRUE(MiniJson(runtime_json.str()).parse());
  const std::string text = runtime_json.str();
  const std::string key = "\"serve.submitted\": ";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(std::stoll(text.substr(at + key.size())), kRequests) << text;
  std::filesystem::remove_all(dir);
  tc.clear();
}

}  // namespace
}  // namespace orco
