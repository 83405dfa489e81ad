// Self-test of the load generator's own machinery: the percentile and
// sample-count rule, determinism of the seeded inputs, and the span
// self-time arithmetic. Exits non-zero on the first failed expectation.
//
//   .bench_build/cmake/orcobench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_rule() {
  using namespace orcobench;
  std::vector<double> v(101);
  std::iota(v.begin(), v.end(), 0.0);  // 0..100, shuffled below
  std::swap(v[3], v[90]);
  expect(near(quantile(v, 0.5), 50.0), "median of 0..100 is 50");
  expect(near(quantile(v, 0.99), 99.0), "p99 of 0..100 is 99");
  expect(near(quantile({1.0, 2.0}, 0.5), 1.5), "quantile interpolates");
  expect(std::isnan(quantile({}, 0.5)), "empty sample has no quantile");

  // At least ten samples must lie beyond a reported percentile.
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(quantile_supported(1000, 0.99), "p99 supported at 1000 samples");
  expect(!quantile_supported(999, 0.99), "p99 unsupported at 999 samples");
  expect(quantile_supported(100, 0.9), "p90 supported at 100 samples");
  expect(!quantile_supported(99, 0.9), "p90 unsupported at 99 samples");

  // Sliced summaries: medians over time slices, and a tail that every
  // slice must support.
  std::vector<double> done, lat;
  for (int i = 0; i < 1000; ++i) {
    done.push_back(i * 0.01);                 // 100 per second over 10 s
    lat.push_back(i < 500 ? 100.0 : 300.0);   // slow second half
  }
  const SlicedSummary sliced = slice_summary(done, lat, 10.0, 10, 0.9);
  expect(near(sliced.rps, 100.0), "sliced rps is completions per second");
  expect(near(sliced.p50, 200.0), "median over slices of slice medians");
  expect(std::isfinite(sliced.tail), "100 samples per slice support p90");
  expect(std::isnan(slice_summary(done, lat, 10.0, 10, 0.99).tail),
         "100 samples per slice do not support p99");

  std::vector<double> small(500, 1.0);
  const LatencySummary s = summarize(small, 0.99);
  expect(s.count == 500 && near(s.p50, 1.0), "summary counts and p50");
  expect(std::isnan(s.tail), "unsupported tail is not reported");
  Result r;
  report_latency(r, small, 0.99);
  bool gated = false;
  for (const auto& [name, ok] : r.checks) {
    if (name == "latency_tail_supported") gated = !ok;
  }
  expect(gated, "unsupported tail fails the run's gate");
}

void seeded_inputs() {
  using namespace orcobench;
  expect(mix_seed(1, 2) == mix_seed(1, 2) && mix_seed(1, 2) != mix_seed(2, 2),
         "seed mixing is deterministic and seed-sensitive");
  // The fleet's tenant stream: same seed, same ranks; another seed, others.
  const Zipf zipf(20000, 1.05);
  auto draw = [&](std::uint64_t seed) {
    orco::common::Pcg32 rng(mix_seed(seed, 100));
    std::vector<std::size_t> ranks;
    for (int i = 0; i < 10000; ++i) ranks.push_back(zipf.sample(rng));
    return ranks;
  };
  const auto a = draw(42);
  expect(a == draw(42), "same seed gives the same Zipf stream");
  expect(a != draw(43), "another seed gives another Zipf stream");
  bool in_range = true;
  std::size_t head = 0;
  for (std::size_t r : a) {
    in_range = in_range && r < 20000;
    head += r < 256 ? 1 : 0;
  }
  expect(in_range, "Zipf ranks lie in [0, n)");
  // The sampled head share tracks the table's head mass: its standard
  // error over 10000 draws is at most 0.005, so 0.03 is a wide margin.
  expect(std::fabs(static_cast<double>(head) / 1e4 - zipf.head_mass(256)) < 0.03,
         "Zipf head share matches its mass");
}

void span_self_time() {
  using namespace orcobench;
  std::vector<Span> spans(2);
  spans[0].module = "core";
  spans[0].id = 1;
  spans[0].start_ns = 0;
  spans[0].end_ns = 10'000'000;
  spans[1].module = "nn";
  spans[1].id = 2;
  spans[1].parent = 1;
  spans[1].start_ns = 2'000'000;
  spans[1].end_ns = 6'000'000;
  const auto self = module_self_ms(spans);
  expect(near(self.at("core"), 6.0) && near(self.at("nn"), 4.0),
         "self time subtracts child coverage");
}

}  // namespace

int main() {
  percentile_rule();
  seeded_inputs();
  span_self_time();
  if (failures == 0) std::printf("orcobench_selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
