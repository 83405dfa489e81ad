// Micro benchmarks (google-benchmark) for the kernels behind every figure:
// GEMM (per kernel backend), conv lowering, losses, protocol round pieces
// and dataset synthesis. main() first emits BENCH_gemm.json — GFLOP/s per
// backend per shape — so kernel PRs have a committed baseline to beat, then
// runs the registered google-benchmark suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "baseline/dcsnet.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "core/orcodcs.h"
#include "core/quantization.h"
#include "data/synthetic_gtsrb.h"
#include "data/synthetic_mnist.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/matmul.h"

namespace {

using namespace orco;
using tensor::Tensor;

void bench_gemm_backend(benchmark::State& state, const tensor::Backend& be) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Pcg32 rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  tensor::BackendScope scope(&be);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}

void BM_GemmReference(benchmark::State& state) {
  bench_gemm_backend(state, tensor::reference_backend());
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(256)->Arg(512);

void BM_GemmSimd(benchmark::State& state) {
  bench_gemm_backend(state, tensor::simd_backend());
}
BENCHMARK(BM_GemmSimd)->Arg(64)->Arg(256)->Arg(512);

void BM_GemmPrepackedSmallBatch(benchmark::State& state) {
  // The serving decode shape (batch x 128 -> 784) with the decoder weight
  // prepacked once into bf16 panels (half the f32 bytes), vs re-packing f32
  // panels inside every gemm call.
  const auto m = static_cast<std::size_t>(state.range(0));
  common::Pcg32 rng(12);
  const Tensor a = Tensor::randn({m, 128}, rng);
  const Tensor w = Tensor::randn({784, 128}, rng);  // (out, in) dense layout
  const Tensor bias = Tensor::randn({784}, rng);
  const tensor::Backend& be = tensor::simd_backend();
  tensor::BackendScope scope(&be);
  const tensor::PackedWeights packed =
      be.pack_b(w.data().data(), 128, 784, /*transpose_b=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm_bias_act_prepacked(a, packed, bias));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * 128 * 784));
}
BENCHMARK(BM_GemmPrepackedSmallBatch)->Arg(1)->Arg(4)->Arg(32);

void BM_PlanDecode(benchmark::State& state) {
  // The serving decoder (latent 128 -> 456 -> 784, the trainer's export
  // shape) through its compiled plan on the simd backend.
  const auto batch = static_cast<std::size_t>(state.range(0));
  common::Pcg32 model_rng(19);
  nn::Sequential model;
  model.emplace<nn::Dense>(128, 456, model_rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(456, 784, model_rng);
  model.emplace<nn::Sigmoid>();
  const auto plan = nn::InferPlan::compile(model, &tensor::simd_backend());
  common::Pcg32 rng(23);
  const Tensor x = Tensor::randn({batch, 128}, rng);
  tensor::BackendScope scope(&tensor::simd_backend());
  nn::InferContext ctx;
  Tensor out;
  plan->run(x, out, ctx);  // warm: buffers + arena reserve
  for (auto _ : state) {
    plan->run(x, out, ctx);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_PlanDecode)->Arg(1)->Arg(4);

void BM_DenseForward(benchmark::State& state) {
  common::Pcg32 rng(2);
  nn::Dense dense(784, 128, rng);
  const Tensor x = Tensor::uniform({64, 784}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.forward(x, false));
  }
}
BENCHMARK(BM_DenseForward);

void BM_Conv2dForward(benchmark::State& state) {
  common::Pcg32 rng(3);
  nn::Conv2d conv(3, 8, 3, 1, 1, 32, 32, rng);
  const Tensor x = Tensor::uniform({16, 3 * 32 * 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dTrainStep(benchmark::State& state) {
  common::Pcg32 rng(4);
  nn::Conv2d conv(3, 8, 3, 1, 1, 32, 32, rng);
  const Tensor x = Tensor::uniform({16, 3 * 32 * 32}, rng);
  const Tensor g = Tensor::uniform({16, 8 * 32 * 32}, rng);
  for (auto _ : state) {
    (void)conv.forward(x, true);
    benchmark::DoNotOptimize(conv.backward(g));
    conv.zero_grad();
  }
}
BENCHMARK(BM_Conv2dTrainStep);

void BM_HuberLoss(benchmark::State& state) {
  common::Pcg32 rng(5);
  nn::HuberLoss loss(1.0f);
  const Tensor p = Tensor::uniform({64, 784}, rng);
  const Tensor t = Tensor::uniform({64, 784}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loss.value(p, t));
    benchmark::DoNotOptimize(loss.gradient(p, t));
  }
}
BENCHMARK(BM_HuberLoss);

void BM_OrcoTrainRound(benchmark::State& state) {
  core::SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 128;
  cfg.field.device_count = 12;
  cfg.field.radio_range_m = 60.0;
  core::OrcoDcsSystem sys(cfg);
  common::Pcg32 rng(6);
  const Tensor batch = Tensor::uniform({64, 784}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.orchestrator().train_round(batch));
  }
}
BENCHMARK(BM_OrcoTrainRound);

void BM_DcsnetTrainRound(benchmark::State& state) {
  baseline::DcsNetConfig cfg;
  baseline::DcsNetSystem sys(data::kMnistGeometry, cfg, wsn::ChannelConfig{},
                             core::ComputeModel{});
  common::Pcg32 rng(7);
  const Tensor batch = Tensor::uniform({64, 784}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.orchestrator().train_round(batch));
  }
}
BENCHMARK(BM_DcsnetTrainRound);

void BM_MessageRoundTrip(benchmark::State& state) {
  common::Pcg32 rng(8);
  const core::LatentBatchMsg msg{0, Tensor::uniform({64, 128}, rng)};
  for (auto _ : state) {
    const auto bytes = msg.serialize();
    benchmark::DoNotOptimize(core::LatentBatchMsg::deserialize(bytes));
  }
}
BENCHMARK(BM_MessageRoundTrip);

void BM_SyntheticMnist(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    data::MnistConfig cfg;
    cfg.count = 64;
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(data::make_synthetic_mnist(cfg));
  }
}
BENCHMARK(BM_SyntheticMnist);

void BM_SyntheticGtsrb(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    data::GtsrbConfig cfg;
    cfg.count = 64;
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(data::make_synthetic_gtsrb(cfg));
  }
}
BENCHMARK(BM_SyntheticGtsrb);

void BM_DistributedEncode(benchmark::State& state) {
  const auto devices = static_cast<std::size_t>(state.range(0));
  wsn::FieldConfig field_cfg;
  field_cfg.device_count = devices;
  field_cfg.radio_range_m = 50.0;
  const wsn::Field field(field_cfg);
  const wsn::AggregationTree tree(field, wsn::RadioModel{});
  core::OrcoConfig cfg;
  cfg.input_dim = devices;
  cfg.latent_dim = 16;
  common::Pcg32 rng(9);
  const auto encoder = core::build_encoder(cfg, rng);
  const core::DistributedEncoder dist(
      tree, core::make_encoder_shares(*encoder, devices));
  const Tensor readings = Tensor::uniform({devices}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.encode(readings));
  }
}
BENCHMARK(BM_DistributedEncode)->Arg(16)->Arg(64)->Arg(128);

// --- BENCH_gemm.json -------------------------------------------------------
// Hand-timed GFLOP/s per backend per shape (square kernels plus the serving
// decode shapes), written next to the binary's working directory. The
// committed copy is the baseline future kernel PRs must beat.

struct GemmShape {
  std::size_t m, k, n;
};

constexpr double gemm_flop(const GemmShape& s) {
  return 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
         static_cast<double>(s.n);
}

/// Every hand-timed number below is best-of-kTimingReps: each rep re-runs
/// the timed loop until >= 0.2 s of measured work, and the fastest rep
/// wins, so a stray scheduler hiccup can't poison the committed baseline.
constexpr int kTimingReps = 3;

template <typename Fn>
double best_gflops(double flop, Fn&& call) {
  call();  // warm-up outside any timed region
  double best = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    std::size_t iters = 0;
    common::Stopwatch sw;
    double elapsed = 0.0;
    while (elapsed < 0.2 || iters < 3) {
      call();
      ++iters;
      elapsed = sw.seconds();
    }
    best = std::max(best, flop * static_cast<double>(iters) / elapsed / 1e9);
  }
  return best;
}

double gemm_gflops(const tensor::Backend& be, const GemmShape& s) {
  common::Pcg32 rng(11);
  const Tensor a = Tensor::randn({s.m, s.k}, rng);
  const Tensor b = Tensor::randn({s.k, s.n}, rng);
  Tensor c({s.m, s.n});
  return best_gflops(gemm_flop(s), [&] {
    c.fill(0.0f);
    be.gemm(a.data().data(), b.data().data(), c.data().data(), s.m, s.k, s.n);
  });
}

/// Fused Dense-layout GEMM (x·Wᵀ + bias) GFLOP/s on the given backend,
/// with the weight either prepacked once outside the loop (bf16 panels,
/// widened to f32 in the micro-kernel) or panel-packed in f32 inside every
/// call.
double fused_gflops(const tensor::Backend& be, const GemmShape& s,
                    bool prepacked) {
  common::Pcg32 rng(13);
  const Tensor a = Tensor::randn({s.m, s.k}, rng);
  const Tensor w = Tensor::randn({s.n, s.k}, rng);
  const Tensor bias = Tensor::randn({s.n}, rng);
  tensor::BackendScope scope(&be);
  const tensor::PackedWeights packed =
      be.pack_b(w.data().data(), s.k, s.n, /*transpose_b=*/true);
  return best_gflops(gemm_flop(s), [&] {
    if (prepacked) {
      benchmark::DoNotOptimize(tensor::gemm_bias_act_prepacked(a, packed, bias));
    } else {
      benchmark::DoNotOptimize(tensor::gemm_bias_act(a, w, bias));
    }
  });
}

void emit_bench_gemm_json() {
  using common::Table;
  const GemmShape shapes[] = {
      {64, 64, 64},    {128, 128, 128}, {256, 256, 256},
      {512, 512, 512}, {8, 128, 784},   {32, 456, 784},
  };
  // Every row times one thread: 512^3 clears the pool's 2^25 multiply-add
  // threshold, and pooled rows would measure the worker count, not the
  // kernel.
  const bool pooled = tensor::gemm_parallelism();
  tensor::set_gemm_parallelism(false);
  common::print_section(std::cout, "GEMM GFLOP/s per kernel backend");
  Table table({"m", "k", "n", "reference", "simd", "simd/reference"});
  std::ofstream json("BENCH_gemm.json");
  json << "{\n  \"flop_metric\": \"GFLOP/s\",\n  \"threads\": 1,\n"
       << "  \"simd_isa\": \"" << tensor::simd_isa()
       << "\",\n  \"shapes\": [\n";
  const std::size_t count = sizeof(shapes) / sizeof(shapes[0]);
  for (std::size_t i = 0; i < count; ++i) {
    const GemmShape& s = shapes[i];
    const double ref = gemm_gflops(tensor::reference_backend(), s);
    const double simd = gemm_gflops(tensor::simd_backend(), s);
    table.add_row({std::to_string(s.m), std::to_string(s.k),
                   std::to_string(s.n), Table::num(ref, 2),
                   Table::num(simd, 2), Table::num(simd / ref, 2)});
    json << "    {\"m\": " << s.m << ", \"k\": " << s.k << ", \"n\": " << s.n
         << ", \"reference_gflops\": " << ref
         << ", \"simd_gflops\": " << simd
         << ", \"simd_vs_reference\": " << simd / ref << "}"
         << (i + 1 < count ? "," : "") << "\n";
  }
  json << "  ],\n";

  // Small-batch serving decode on the simd backend: the per-call B-panel
  // packing dominates when m <= 4, so the prepacked path (pack once into
  // bf16 panels, reuse) must beat the fused path, which packs f32 panels
  // every call. Rows land in the same BENCH_gemm.json under
  // "prepacked_small_batch".
  const GemmShape decode_shapes[] = {
      {1, 128, 784}, {2, 128, 784}, {4, 128, 784}, {8, 128, 784},
      {4, 456, 784},
  };
  common::print_section(std::cout, "Prepacked decode GEMM GFLOP/s");
  Table ptable({"m", "k", "n", "fused", "prepacked", "prepacked/fused"});
  json << "  \"prepacked_small_batch\": [\n";
  const std::size_t pcount = sizeof(decode_shapes) / sizeof(decode_shapes[0]);
  for (std::size_t i = 0; i < pcount; ++i) {
    const GemmShape& s = decode_shapes[i];
    const double fused =
        fused_gflops(tensor::simd_backend(), s, /*prepacked=*/false);
    const double pre =
        fused_gflops(tensor::simd_backend(), s, /*prepacked=*/true);
    ptable.add_row({std::to_string(s.m), std::to_string(s.k),
                    std::to_string(s.n), Table::num(fused, 2),
                    Table::num(pre, 2), Table::num(pre / fused, 2)});
    json << "    {\"m\": " << s.m << ", \"k\": " << s.k << ", \"n\": " << s.n
         << ", \"fused_gflops\": " << fused
         << ", \"prepacked_gflops\": " << pre
         << ", \"prepacked_vs_fused\": " << pre / fused << "}"
         << (i + 1 < pcount ? "," : "") << "\n";
  }
  json << "  ],\n";

  // Uplink cost of a kFixed8 latent at the serving latent width: a float32
  // latent is 4 bytes/element; the kFixed8 payload is an 8-byte [min, max]
  // header plus one code byte per element, dequantized into the batch rows
  // on the edge.
  const std::size_t latent_dim = 128;
  const std::size_t f32_bytes = latent_dim * sizeof(float);
  const std::size_t int8_bytes = core::quantized_payload_bytes(
      latent_dim, core::LatentPrecision::kFixed8);
  common::print_section(std::cout, "Uplink bytes per decode request");
  Table utable({"latent dim", "float32 B", "int8 B", "saved B", "ratio"});
  utable.add_row({std::to_string(latent_dim), std::to_string(f32_bytes),
                  std::to_string(int8_bytes),
                  std::to_string(f32_bytes - int8_bytes),
                  Table::num(static_cast<double>(f32_bytes) /
                                 static_cast<double>(int8_bytes),
                             2)});
  json << "  \"uplink\": {\"latent_dim\": " << latent_dim
       << ", \"float32_bytes_per_request\": " << f32_bytes
       << ", \"int8_bytes_per_request\": " << int8_bytes
       << ", \"saved_bytes_per_request\": " << (f32_bytes - int8_bytes)
       << ", \"compression_ratio\": "
       << static_cast<double>(f32_bytes) / static_cast<double>(int8_bytes)
       << "}\n";
  json << "}\n";
  tensor::set_gemm_parallelism(pooled);
  table.print(std::cout);
  std::cout << "\n";
  ptable.print(std::cout);
  std::cout << "\n";
  utable.print(std::cout);
  std::cout << "\nwrote BENCH_gemm.json\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  // The JSON sweep takes a few seconds and overwrites BENCH_gemm.json in
  // the CWD, so it runs only on a plain invocation (the committed-baseline
  // flow) or when asked for explicitly with --gemm-json; filtered or
  // exploratory google-benchmark runs skip it.
  bool force_json = false;
  bool benchmark_args = false;
  int argc_out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--gemm-json") {
      force_json = true;
      continue;  // strip: google-benchmark would reject it
    }
    if (arg.rfind("--benchmark_", 0) == 0) benchmark_args = true;
    argv[argc_out++] = argv[i];
  }
  argc = argc_out;
  if (force_json || !benchmark_args) emit_bench_gemm_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
