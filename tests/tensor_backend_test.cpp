// Backend parity: the simd backend must agree with the reference kernel
// (bitwise on its scalar tier, within a few ULP on its FMA tiers) across
// rectangular/odd/tiny shapes and every transpose layout, and the fused
// epilogues must match the unfused matmul-then-bias-then-activation
// pipeline through Dense and Conv2d.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nn/activations.h"
#include "obs/metrics.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/infer_plan.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "tensor/backend.h"
#include "tensor/gemm_panels.h"
#include "tensor/matmul.h"

#include "bf16_oracle.h"

namespace {

using namespace orco;
using tensor::Tensor;

// Triple-loop double-accumulated ground truth.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct Shape {
  std::size_t m, k, n;
};

void ExpectBitwiseEqual(const Tensor& got, const Tensor& ref,
                        const char* what, const Shape& s) {
  ASSERT_EQ(got.shape(), ref.shape());
  const auto gd = got.data(), rd = ref.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    ASSERT_EQ(gd[i], rd[i]) << what << " element " << i << " at " << s.m
                            << "x" << s.k << "x" << s.n;
  }
}

// Every registered backend, for within-backend contract tests (fused vs
// unfused, prepacked vs on-the-fly, batched vs single-row) — those must
// hold for each backend individually. The cross-backend comparison is
// SimdParityTest's: bitwise on simd's scalar tier, within a few ULP on its
// FMA tiers, which contract each multiply-add.
constexpr const char* kAllBackends[] = {"reference", "simd"};

TEST(BackendRegistryTest, NamesAndLookup) {
  EXPECT_EQ(tensor::reference_backend().name(), "reference");
  EXPECT_EQ(tensor::simd_backend().name(), "simd");
  EXPECT_EQ(tensor::find_backend("reference"), &tensor::reference_backend());
  EXPECT_EQ(tensor::find_backend("simd"), &tensor::simd_backend());
  EXPECT_EQ(tensor::find_backend("blocked"), nullptr);
  EXPECT_EQ(tensor::find_backend("no-such-kernel"), nullptr);
  EXPECT_THROW(tensor::set_backend("no-such-kernel"), std::invalid_argument);
  EXPECT_THROW(tensor::set_backend("blocked"), std::invalid_argument);
  EXPECT_EQ(tensor::backend_names(),
            (std::vector<std::string>{"reference", "simd"}));
  // The simd backend always reports which register kernel it compiled to.
  EXPECT_NE(tensor::simd_isa(), nullptr);
  EXPECT_STRNE(tensor::simd_isa(), "");
#if defined(ORCO_DISABLE_SIMD)
  // CMake defines ORCO_DISABLE_SIMD for this test too when it compiles the
  // SIMD tiers out: SimdParityTest must then take its bitwise branch.
  EXPECT_STREQ(tensor::simd_isa(), "scalar-fallback");
#endif
}

TEST(BackendRegistryTest, SetBackendPublishesItsRegistryIndex) {
  // orco_backend_active names the process default by its position in
  // backend_names().
  const std::string before = tensor::current_backend().name();
  const auto* active = orco::obs::global_registry().gauge("backend.active");
  const auto names = tensor::backend_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    tensor::set_backend(names[i]);
    EXPECT_EQ(active->value(), static_cast<double>(i)) << names[i];
  }
  tensor::set_backend(before);
  EXPECT_EQ(tensor::current_backend().name(), before);
}

TEST(BackendRegistryTest, EnvResolutionFallsBackLoudlyOnUnknownName) {
  // ORCO_BACKEND resolution must never throw (it runs inside the first
  // gemm of an arbitrary process): unknown names fall back to reference
  // and bump the backend.env_invalid counter instead.
  EXPECT_EQ(&tensor::backend_from_env_value("reference"),
            &tensor::reference_backend());
  EXPECT_EQ(&tensor::backend_from_env_value("simd"),
            &tensor::simd_backend());
  EXPECT_EQ(&tensor::backend_from_env_value(nullptr),
            &tensor::reference_backend());
  EXPECT_EQ(&tensor::backend_from_env_value(""),
            &tensor::reference_backend());
  const auto* counter =
      orco::obs::global_registry().counter("backend.env_invalid");
  const auto before = counter->value();
  EXPECT_EQ(&tensor::backend_from_env_value("no-such-kernel"),
            &tensor::reference_backend());
  // A deleted backend's name is just another unknown one.
  EXPECT_EQ(&tensor::backend_from_env_value("blocked"),
            &tensor::reference_backend());
  EXPECT_EQ(counter->value(), before + 2);
}

TEST(BackendRegistryTest, ScopeOverridesAndRestores) {
  const std::string before = tensor::current_backend().name();
  {
    tensor::BackendScope scope(&tensor::simd_backend());
    EXPECT_EQ(tensor::current_backend().name(), "simd");
    {
      tensor::BackendScope inner(&tensor::reference_backend());
      EXPECT_EQ(tensor::current_backend().name(), "reference");
    }
    EXPECT_EQ(tensor::current_backend().name(), "simd");
    {
      tensor::BackendScope noop(nullptr);  // inherit, not reset
      EXPECT_EQ(tensor::current_backend().name(), "simd");
    }
  }
  EXPECT_EQ(tensor::current_backend().name(), before);
}

// Rectangular, odd and tiny shapes whose fringes are smaller than every
// simd register tile (the AVX-512 kernel covers 8x32 outputs, AVX2 6x16,
// NEON 8x8, the scalar tier 4x32) plus shapes crossing the kKc k-panel
// boundary: rows < kMr, cols < kNr, and k tails all go through the
// tmp-buffer fringe path.
const Shape kSimdShapes[] = {
    {1, 1, 1},    {2, 3, 4},     {5, 7, 3},     {4, 32, 32},
    {17, 31, 13}, {33, 64, 65},  {8, 128, 784}, {100, 1, 9},
    {1, 300, 2},  {63, 300, 31}, {96, 96, 96},  {7, 64, 31},
    {9, 257, 33}, {3, 512, 15},  {6, 40, 130},  {8, 96, 32},
};

// simd's scalar tier runs the reference kernel's arithmetic — each product
// rounded before its add, in ascending k — so it must equal "reference"
// bit for bit. The FMA tiers keep each product unrounded before the add,
// so they agree to a few ULP of the accumulated magnitude.
void ExpectSimdMatchesReference(const Tensor& simd, const Tensor& ref,
                                const char* what, const Shape& s) {
  if (std::string_view(tensor::simd_isa()) == "scalar-fallback") {
    ExpectBitwiseEqual(simd, ref, what, s);
    return;
  }
  ASSERT_EQ(simd.shape(), ref.shape());
  for (std::size_t i = 0; i < simd.numel(); ++i) {
    const float scale = std::max(1.0f, std::fabs(ref[i]));
    ASSERT_NEAR(simd[i], ref[i], 1e-4f * scale)
        << what << " element " << i << " at " << s.m << "x" << s.k << "x"
        << s.n;
  }
}

TEST(SimdParityTest, MatchesReferenceBitwiseOnScalarTierWithinUlpOnFma) {
  // Every layout, the fused epilogue and the prepacked path, against the
  // reference kernel; both plain products also sit within 1e-3 of the
  // double ground truth.
  common::Pcg32 rng(47);
  const auto act = tensor::EpilogueAct::kTanh;
  for (const auto& s : kSimdShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor w = b.transposed();  // (n, k): the Dense weight layout
    const Tensor bias = Tensor::randn({s.n}, rng);
    const auto products = [&](const tensor::Backend& be) {
      tensor::BackendScope scope(&be);
      return std::vector<Tensor>{
          tensor::matmul(a, b), tensor::matmul_nt(a, w),
          tensor::matmul_tn(a.transposed(), b),
          tensor::gemm_bias_act(a, w, bias, act)};
    };
    const std::vector<Tensor> ref = products(tensor::reference_backend());
    const std::vector<Tensor> simd = products(tensor::simd_backend());
    const Tensor truth = naive_matmul(a, b);
    EXPECT_TRUE(ref[0].allclose(truth, 1e-3f))
        << "reference vs ground truth at " << s.m << "x" << s.k << "x" << s.n;
    EXPECT_TRUE(simd[0].allclose(truth, 1e-3f))
        << "simd vs ground truth at " << s.m << "x" << s.k << "x" << s.n;
    const char* what[] = {"gemm", "gemm_nt", "gemm_tn", "gemm_fused"};
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ExpectSimdMatchesReference(simd[i], ref[i], what[i], s);
    }

    // simd's bf16 panels against reference's fused product on the
    // bf16-rounded weight.
    Tensor ref_rounded;
    {
      tensor::BackendScope scope(&tensor::reference_backend());
      ref_rounded =
          tensor::gemm_bias_act(a, testutil::bf16_rounded(w), bias, act);
    }
    tensor::BackendScope scope(&tensor::simd_backend());
    const tensor::PackedWeights packed = tensor::simd_backend().pack_b(
        w.data().data(), s.k, s.n, /*transpose_b=*/true);
    ExpectSimdMatchesReference(
        tensor::gemm_bias_act_prepacked(a, packed, bias, act), ref_rounded,
        "gemm_prepacked", s);
  }
}

TEST(SimdParityTest, TransposedLayoutsMatchPlainGemmBitwise) {
  // Within the simd backend, layout is a packing concern only: NT and TN
  // feed the same panels to the same register kernel, so they must equal
  // the NN product bitwise — including on ragged fringe shapes.
  common::Pcg32 rng(48);
  tensor::BackendScope scope(&tensor::simd_backend());
  for (const auto& s : kSimdShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor nn = tensor::matmul(a, b);
    const Tensor nt = tensor::matmul_nt(a, b.transposed());
    const Tensor tn = tensor::matmul_tn(a.transposed(), b);
    ExpectBitwiseEqual(nt, nn, "simd gemm_nt", s);
    ExpectBitwiseEqual(tn, nn, "simd gemm_tn", s);
  }
}

TEST(SimdParityTest, BatchedRowsMatchSingleRowDecodeBitwise) {
  // The serving coalescing contract on the simd backend specifically: a
  // row's reduction must not depend on whether it ran in a full register
  // tile or the fringe path, across batch sizes straddling the tile height.
  common::Pcg32 rng(49);
  nn::Dense dense(128, 784, rng);
  tensor::BackendScope scope(&tensor::simd_backend());
  for (const std::size_t batch : {1u, 3u, 8u, 9u, 17u}) {
    const Tensor x = Tensor::randn({batch, 128}, rng);
    const Tensor batched = dense.infer(x);
    for (std::size_t i = 0; i < batch; ++i) {
      const Tensor single = dense.infer(x.slice_rows(i, i + 1));
      for (std::size_t j = 0; j < single.numel(); ++j) {
        ASSERT_EQ(batched.at(i, j), single[j])
            << "batch " << batch << " row " << i << " col " << j;
      }
    }
  }
}

TEST(BackendParityTest, AccumulateAddsIntoExistingOnBothBackends) {
  // gemm and gemm_tn add into a pre-filled C; Dense::backward's gemm_tn
  // accumulates dW straight into the gradient.
  common::Pcg32 rng(33);
  const Tensor a = Tensor::randn({9, 37}, rng);
  const Tensor b = Tensor::randn({37, 21}, rng);
  const Tensor at = a.transposed();  // gemm_tn's (k x m) source of A
  const Tensor base = Tensor::randn({9, 21}, rng);
  const Tensor expected = base + naive_matmul(a, b);
  for (const char* name : kAllBackends) {
    const tensor::Backend& be = *tensor::find_backend(name);
    Tensor c = base;
    be.gemm(a.data().data(), b.data().data(), c.data().data(), 9, 37, 21);
    EXPECT_TRUE(c.allclose(expected, 1e-3f)) << name << " gemm";
    Tensor c_tn = base;
    be.gemm_tn(at.data().data(), b.data().data(), c_tn.data().data(), 9, 37,
               21);
    EXPECT_TRUE(c_tn.allclose(expected, 1e-3f)) << name << " gemm_tn";
  }
}

float apply_reference_act(float v, tensor::EpilogueAct act, float alpha) {
  switch (act) {
    case tensor::EpilogueAct::kNone:      return v;
    case tensor::EpilogueAct::kReLU:      return v > 0.0f ? v : 0.0f;
    case tensor::EpilogueAct::kLeakyReLU: return v > 0.0f ? v : alpha * v;
    case tensor::EpilogueAct::kSigmoid:   return 1.0f / (1.0f + std::exp(-v));
    case tensor::EpilogueAct::kTanh:      return std::tanh(v);
  }
  return v;
}

TEST(FusedEpilogueTest, GemmBiasActMatchesUnfusedPipeline) {
  common::Pcg32 rng(34);
  const tensor::EpilogueAct acts[] = {
      tensor::EpilogueAct::kNone, tensor::EpilogueAct::kReLU,
      tensor::EpilogueAct::kLeakyReLU, tensor::EpilogueAct::kSigmoid,
      tensor::EpilogueAct::kTanh};
  const Tensor x = Tensor::randn({7, 45}, rng);
  const Tensor w = Tensor::randn({23, 45}, rng);  // (out, in) dense layout
  const Tensor bias = Tensor::randn({23}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    // Unfused: matmul, then bias sweep, then activation map.
    Tensor unfused = tensor::matmul_nt(x, w);
    for (std::size_t i = 0; i < unfused.dim(0); ++i) {
      auto r = unfused.row(i);
      for (std::size_t j = 0; j < r.size(); ++j) r[j] += bias[j];
    }
    for (const auto act : acts) {
      const Tensor fused = tensor::gemm_bias_act(x, w, bias, act, 0.02f);
      const Tensor expected = unfused.map(
          [&](float v) { return apply_reference_act(v, act, 0.02f); });
      EXPECT_TRUE(fused.allclose(expected, 1e-6f))
          << name << " act " << static_cast<int>(act);
    }
  }
}

TEST(FusedEpilogueTest, GemmRowBiasActMatchesUnfusedPipeline) {
  common::Pcg32 rng(35);
  const Tensor w = Tensor::randn({13, 27}, rng);   // (outC, inC*K*K)
  const Tensor cols = Tensor::randn({27, 50}, rng);  // (inC*K*K, OH*OW)
  const Tensor bias = Tensor::randn({13}, rng);
  // The Conv2d epilogue: one bias per output row, then the activation.
  tensor::Epilogue epi;
  epi.bias = bias.data().data();
  epi.bias_per_row = true;
  epi.act = tensor::EpilogueAct::kReLU;
  for (const char* name : kAllBackends) {
    const tensor::Backend* backend = tensor::find_backend(name);
    tensor::BackendScope scope(backend);
    Tensor unfused = tensor::matmul(w, cols);
    for (std::size_t i = 0; i < unfused.dim(0); ++i) {
      for (auto& v : unfused.row(i)) v += bias[i];
    }
    Tensor fused({13, 50});
    backend->gemm_fused(w.data().data(), cols.data().data(),
                        fused.data().data(), 13, 27, 50,
                        /*transpose_b=*/false, epi);
    const Tensor expected =
        unfused.map([](float v) { return v > 0.0f ? v : 0.0f; });
    EXPECT_TRUE(fused.allclose(expected, 1e-6f)) << name;
  }
}

TEST(FusedEpilogueTest, SequentialInferFusesDenseActivationPairs) {
  common::Pcg32 rng(36);
  nn::Sequential model;
  model.emplace<nn::Dense>(19, 33, rng);
  model.emplace<nn::LeakyReLU>(0.05f);
  model.emplace<nn::Dense>(33, 11, rng);
  model.emplace<nn::Sigmoid>();
  const Tensor x = Tensor::randn({6, 19}, rng);
  // The plan runs bf16 panels: the layer-by-layer pipeline runs the same
  // Dense layers with their weights rounded.
  const auto rounded = testutil::bf16_copy(model, [] {
    common::Pcg32 any(0);
    auto copy = std::make_unique<nn::Sequential>();
    copy->emplace<nn::Dense>(19, 33, any);
    copy->emplace<nn::LeakyReLU>(0.05f);
    copy->emplace<nn::Dense>(33, 11, any);
    copy->emplace<nn::Sigmoid>();
    return copy;
  });
  const auto& r1 = dynamic_cast<const nn::Dense&>(rounded->layer(0));
  const auto& r2 = dynamic_cast<const nn::Dense&>(rounded->layer(2));
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    // Layer-by-layer (unfused) pipeline vs the plan-fused Sequential::infer.
    Tensor step = r1.infer(x);
    step = nn::LeakyReLU(0.05f).infer(step);
    step = r2.infer(step);
    step = nn::Sigmoid().infer(step);
    const Tensor fused = model.infer(x);
    EXPECT_TRUE(fused.allclose(step, 1e-6f)) << name;
  }
}

TEST(FusedEpilogueTest, SequentialInferFusesConvActivationPairs) {
  common::Pcg32 rng(37);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(2, 5, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  const Tensor x = Tensor::randn({3, 2 * 8 * 8}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    const auto& conv = dynamic_cast<const nn::Conv2d&>(model.layer(0));
    Tensor step = nn::ReLU().infer(conv.infer(x));
    const Tensor fused = model.infer(x);
    EXPECT_TRUE(fused.allclose(step, 1e-6f)) << name;
  }
}

TEST(FusedEpilogueTest, DenseInferAgreesAcrossBackends) {
  common::Pcg32 rng(38);
  nn::Dense dense(128, 784, rng);  // the MNIST decoder shape
  const Tensor x = Tensor::randn({8, 128}, rng);
  Tensor ref, simd;
  {
    tensor::BackendScope scope(&tensor::reference_backend());
    ref = dense.infer(x);
  }
  {
    tensor::BackendScope scope(&tensor::simd_backend());
    simd = dense.infer(x);
  }
  EXPECT_TRUE(simd.allclose(ref, 1e-5f));
}

TEST(FusedEpilogueTest, BatchedRowsMatchSingleRowDecodeBitwise) {
  // The serving runtime coalesces requests into one GEMM batch and promises
  // results identical to one-at-a-time decoding. That requires the kernel's
  // per-element reduction to be independent of the batch shape.
  common::Pcg32 rng(39);
  nn::Dense dense(128, 784, rng);
  const Tensor batch = Tensor::randn({7, 128}, rng);
  for (const char* name : kAllBackends) {
    tensor::BackendScope scope(tensor::find_backend(name));
    const Tensor batched = dense.infer(batch);
    for (std::size_t i = 0; i < batch.dim(0); ++i) {
      const Tensor single = dense.infer(batch.slice_rows(i, i + 1));
      for (std::size_t j = 0; j < single.numel(); ++j) {
        ASSERT_EQ(batched.at(i, j), single[j])
            << name << " row " << i << " col " << j;
      }
    }
  }
}

TEST(PrepackedTest, GemmPrepackedMatchesGemmFusedBitwiseOnBothBackends) {
  common::Pcg32 rng(41);
  for (const auto& s : kSimdShapes) {
    const Tensor x = Tensor::randn({s.m, s.k}, rng);
    const Tensor w = Tensor::randn({s.n, s.k}, rng);  // (out, in) dense layout
    const Tensor bias = Tensor::randn({s.n}, rng);
    // pack_b stores the weight rounded to bf16.
    const Tensor w_bf16 = testutil::bf16_rounded(w);
    for (const char* name : kAllBackends) {
      const tensor::Backend* backend = tensor::find_backend(name);
      tensor::BackendScope scope(backend);
      const Tensor fused = tensor::gemm_bias_act(x, w_bf16, bias,
                                                 tensor::EpilogueAct::kSigmoid);
      const tensor::PackedWeights packed =
          backend->pack_b(w.data().data(), s.k, s.n, /*transpose_b=*/true);
      const Tensor prepacked = tensor::gemm_bias_act_prepacked(
          x, packed, bias, tensor::EpilogueAct::kSigmoid);
      // Packing rounds each weight and reorders memory, never the
      // reduction: bitwise equal to the pack-on-the-fly fused path on the
      // rounded weight.
      ExpectBitwiseEqual(prepacked, fused, "gemm_prepacked", s);
    }
  }
}

TEST(PrepackedTest, DensePlanPackMatchesUnpackedAndTracksMutation) {
  common::Pcg32 rng(43);
  nn::Sequential model;
  auto& dense = model.emplace<nn::Dense>(32, 16, rng);
  const Tensor x = Tensor::randn({4, 32}, rng);
  const Shape s{4, 32, 16};
  const auto copy_shape = [] {
    common::Pcg32 any(0);
    auto copy = std::make_unique<nn::Sequential>();
    copy->emplace<nn::Dense>(32, 16, any);
    return copy;
  };
  const auto rounded = testutil::bf16_copy(model, copy_shape);

  for (const char* name : kAllBackends) {
    const tensor::Backend* backend = tensor::find_backend(name);
    tensor::BackendScope scope(backend);
    const Tensor unpacked = rounded->layer(0).infer(x);
    std::uint64_t version = 0;
    const auto packed = dense.plan_pack(*backend, version);
    EXPECT_EQ(packed->owner, backend) << name;
    EXPECT_EQ(version, dense.weight_version()) << name;
    Tensor out;
    dense.infer_packed_into(x, out, *packed, tensor::EpilogueAct::kNone,
                            0.01f);
    ExpectBitwiseEqual(out, unpacked, "plan-packed dense", s);
  }

  // Mutating through the non-const accessor makes a compiled plan stale;
  // the recompiled plan packs the new weights, not the old panels.
  tensor::BackendScope scope(&tensor::simd_backend());
  const auto plan = nn::InferPlan::compile(model);
  EXPECT_FALSE(plan->weights_stale());
  dense.weight().fill(0.25f);
  EXPECT_TRUE(plan->weights_stale());
  const auto fresh = nn::InferPlan::compile(model);
  EXPECT_FALSE(fresh->weights_stale());
  const Tensor expected =
      testutil::bf16_copy(model, copy_shape)->forward(x, /*training=*/false);
  nn::InferContext ctx;
  Tensor out;
  fresh->run(x, out, ctx);
  ExpectBitwiseEqual(out, expected, "post-mutation plan", s);
  // invalidate_weight_cache() alone must also mark the plan stale.
  dense.invalidate_weight_cache();
  EXPECT_TRUE(fresh->weights_stale());
}

TEST(PrepackedTest, MismatchedBackendPackIsRejected) {
  common::Pcg32 rng(46);
  const Tensor x = Tensor::randn({2, 8}, rng);
  const Tensor w = Tensor::randn({4, 8}, rng);
  const Tensor bias = Tensor::randn({4}, rng);
  const tensor::PackedWeights packed =
      tensor::simd_backend().pack_b(w.data().data(), 8, 4, true);
  tensor::BackendScope scope(&tensor::reference_backend());
  EXPECT_THROW(
      (void)tensor::gemm_bias_act_prepacked(x, packed, bias),
      std::invalid_argument);
}

TEST(Bf16Test, ToBf16RoundsToNearestEvenAndKeepsSpecials) {
  using tensor::from_bf16;
  using tensor::to_bf16;
  const auto f = [](std::uint32_t bits) { return std::bit_cast<float>(bits); };
  // Exactly halfway between two bf16 values: ties go to the even one, down
  // (0x3f80 is even) and up (0x3f81 is odd), for either sign.
  EXPECT_EQ(to_bf16(f(0x3f808000u)), 0x3f80u);
  EXPECT_EQ(to_bf16(f(0x3f818000u)), 0x3f82u);
  EXPECT_EQ(to_bf16(f(0xbf808000u)), 0xbf80u);
  EXPECT_EQ(to_bf16(f(0xbf818000u)), 0xbf82u);
  // Off the tie, to nearest.
  EXPECT_EQ(to_bf16(f(0x3f808001u)), 0x3f81u);
  EXPECT_EQ(to_bf16(f(0x3f817fffu)), 0x3f81u);
  // A NaN whose payload sits only in the low 16 bits stays NaN (truncation
  // would give 0x7f80, +Inf), and keeps its sign.
  const std::uint16_t nan = to_bf16(f(0x7f800001u));
  EXPECT_TRUE(std::isnan(from_bf16(nan)));
  EXPECT_FALSE(std::signbit(from_bf16(nan)));
  const std::uint16_t neg_nan = to_bf16(f(0xff800001u));
  EXPECT_TRUE(std::isnan(from_bf16(neg_nan)));
  EXPECT_TRUE(std::signbit(from_bf16(neg_nan)));
  EXPECT_TRUE(std::isnan(
      from_bf16(to_bf16(std::numeric_limits<float>::quiet_NaN()))));
  // ±Inf and ±0 are exact.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(to_bf16(inf), 0x7f80u);
  EXPECT_EQ(to_bf16(-inf), 0xff80u);
  EXPECT_EQ(to_bf16(0.0f), 0x0000u);
  EXPECT_EQ(to_bf16(-0.0f), 0x8000u);
  // The largest finite float lies past the largest bf16 (0x7f7f) by more
  // than half a step: it rounds to ±Inf. The largest bf16 itself is exact.
  EXPECT_EQ(to_bf16(std::numeric_limits<float>::max()), 0x7f80u);
  EXPECT_EQ(to_bf16(-std::numeric_limits<float>::max()), 0xff80u);
  EXPECT_EQ(to_bf16(f(0x7f7f0000u)), 0x7f7fu);
  // Subnormals are rounded, not flushed: just over half the smallest bf16
  // subnormal rounds up to it, and a subnormal tie goes to even.
  EXPECT_EQ(to_bf16(f(0x00008001u)), 0x0001u);
  EXPECT_EQ(to_bf16(f(0x00018000u)), 0x0002u);
  EXPECT_EQ(to_bf16(f(0x80008001u)), 0x8001u);
  // Widening is exact: every non-NaN bf16 survives the round trip.
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const float wide = from_bf16(static_cast<std::uint16_t>(h));
    if (std::isnan(wide)) continue;
    ASSERT_EQ(to_bf16(wide), h) << std::hex << h;
  }
}

TEST(PrepackedTest, PackedBEqualsGemmFusedOnBf16RoundedWeightOnEveryBackend) {
  struct Case {
    std::size_t k, n;
    std::vector<std::size_t> ms;
  };
  const Case cases[] = {
      // k crosses the 256-deep k panel; n = 45 is no whole number of kNr
      // strips on any tier (32, 16, 8), so the padded fringe strip runs too.
      {300, 45, {1, 5, 8, 64, 127}},
      // A whole panel set of 2 KB, shorter than the 4 KB panel look-ahead:
      // every hint lands past the buffer.
      {16, 64, {1, 5, 8}},
      // The serving decoder's hidden-to-output shape: 7 k panels and 3 kNc
      // column chunks in one panel stream, at serving batch sizes.
      {1792, 3072, {1, 5}},
  };
  common::Pcg32 rng(48);
  for (const Case& tc : cases) {
    const std::size_t k = tc.k, n = tc.n;
    const Tensor w = Tensor::randn({n, k}, rng);  // (out, in): transposed B
    Tensor b({k, n});                             // the same weight as (k, n)
    const float* wd = w.data().data();
    float* bd = b.data().data();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) bd[p * n + j] = wd[j * k + p];
    }
    // The oracle runs on the (k, n) layout: the reference backend's (n, k)
    // gemm_fused transposes the weight on every call.
    const Tensor b_bf16 = testutil::bf16_rounded(b);
    const Tensor bias = Tensor::randn({n}, rng);
    tensor::Epilogue epi;
    epi.bias = bias.data().data();
    epi.act = tensor::EpilogueAct::kTanh;
    for (const char* name : kAllBackends) {
      const tensor::Backend& be = *tensor::find_backend(name);
      const tensor::PackedWeights packed_nt =
          be.pack_b(w.data().data(), k, n, /*transpose_b=*/true);
      const tensor::PackedWeights packed_nn =
          be.pack_b(b.data().data(), k, n, /*transpose_b=*/false);
      for (const std::size_t m : tc.ms) {
        const Shape s{m, k, n};
        const Tensor x = Tensor::randn({m, k}, rng);
        Tensor fused({m, n}), from_nt({m, n}), from_nn({m, n});
        be.gemm_fused(x.data().data(), b_bf16.data().data(),
                      fused.data().data(), m, k, n, /*transpose_b=*/false,
                      epi);
        be.gemm_prepacked(x.data().data(), packed_nt, from_nt.data().data(),
                          m, k, n, epi);
        be.gemm_prepacked(x.data().data(), packed_nn, from_nn.data().data(),
                          m, k, n, epi);
        SCOPED_TRACE(name);
        ExpectBitwiseEqual(from_nt, fused, "prepacked (n, k) weight", s);
        ExpectBitwiseEqual(from_nn, fused, "prepacked (k, n) weight", s);
      }
    }
  }
}

TEST(PrepackedTest, PanelLookAheadNeverFaults) {
  // A look-ahead hint is not a load. Aimed from the last 64 bytes of a
  // readable page into a PROT_NONE guard, it must neither fault nor trip
  // ASan/UBSan, for both panel element types. On 4 KB pages the mapping is
  // two pages, the second one the guard.
  constexpr std::size_t kAhead = tensor::detail::kPanelLookAheadBytes;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t guard = tensor::detail::round_up(kAhead + 64, page);
  void* map = mmap(nullptr, page + guard, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  auto* base = static_cast<unsigned char*>(map);
  ASSERT_EQ(mprotect(base + page, guard, PROT_NONE), 0);
  const unsigned char* tail = base + page - 64;
  for (std::size_t off = 0; off < 64; off += sizeof(std::uint16_t)) {
    tensor::detail::prefetch_panel(
        reinterpret_cast<const std::uint16_t*>(tail + off));
  }
  for (std::size_t off = 0; off < 64; off += sizeof(float)) {
    tensor::detail::prefetch_panel(reinterpret_cast<const float*>(tail + off));
  }
  EXPECT_EQ(munmap(map, page + guard), 0);
}

TEST(PrepackedTest, PanelBackendsStoreTwoBytesPerPackedWeight) {
  // n = 64 is whole kNr strips on every simd tier, so the panels carry no
  // padding: exactly one bf16 per weight.
  constexpr std::size_t k = 300, n = 64;
  common::Pcg32 rng(49);
  const Tensor w = Tensor::randn({n, k}, rng);
  const tensor::PackedWeights packed =
      tensor::simd_backend().pack_b(w.data().data(), k, n,
                                    /*transpose_b=*/true);
  EXPECT_TRUE(packed.data.empty());
  EXPECT_EQ(packed.bf16.size() * sizeof(packed.bf16[0]), 2 * k * n);
}

// The simd backend's panel geometry (backend_simd.cpp): kNr per tier; the
// k panel depth and column panel width every tier shares.
std::size_t simd_nr() {
  const std::string_view isa = tensor::simd_isa();
  if (isa == "avx2") return 16;
  if (isa == "neon") return 8;
  return 32;  // avx512, scalar-fallback
}
constexpr std::size_t kSimdKc = 256;
constexpr std::size_t kSimdNc = 1024;

// What simd's pack_b must store, by index formula: the (pc, jc) panels in
// order, each a run of kNr-wide strips laid out [p][jj], holding to_bf16 of
// B(p, j) and zero past n. `b` is (k x n) row-major, or (n x k) when
// `trans`.
std::vector<std::uint16_t> oracle_b_panels(const std::vector<float>& b,
                                           std::size_t k, std::size_t n,
                                           bool trans) {
  const std::size_t nr = simd_nr();
  std::vector<std::uint16_t> out;
  for (std::size_t pc = 0; pc < k; pc += kSimdKc) {
    const std::size_t kc = std::min(kSimdKc, k - pc);
    for (std::size_t jc = 0; jc < n; jc += kSimdNc) {
      const std::size_t nc = std::min(kSimdNc, n - jc);
      for (std::size_t jp = 0; jp < nc; jp += nr) {
        for (std::size_t p = pc; p < pc + kc; ++p) {
          for (std::size_t j = jc + jp; j < jc + jp + nr; ++j) {
            if (j >= jc + nc) {
              out.push_back(0);  // padding past n
            } else {
              out.push_back(
                  tensor::to_bf16(trans ? b[j * k + p] : b[p * n + j]));
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(PrepackedTest, PackBPanelsAreByteEqualToIndexOracle) {
  // The in-register transposes move whole 16x16 (AVX-512) or 8x8 (AVX2)
  // blocks and the portable loop packs the rest, so the shapes cover k and
  // n below 16, k % 16 != 0 (also past the 256-deep k panel), n % kNr != 0
  // (also past the 1024-wide column panel) and whole blocks only. Every
  // third weight is one of the special values below (Bf16Test's and a few
  // more), so they sit inside whole blocks and in the fringes alike. The
  // weights are set as float bits, never through a double, which could
  // quiet a NaN whose payload sits only in the low 16 bits.
  const std::uint32_t specials[] = {
      0x7f800001u, 0xff800001u, 0x7fc00000u,  // NaNs, two with low payload
      0x7f800000u, 0xff800000u,               // ±Inf
      0x00000000u, 0x80000000u,               // ±0
      0x00008001u, 0x00018000u, 0x80008001u,  // subnormals: round, tie,
      0x00000001u, 0x807fffffu,               // smallest, largest
      0x3f808000u, 0x3f818000u, 0xbf808000u,  // ties to even, the last
      0xbf818000u, 0x7f7f8000u,               // one rounding up to Inf
      0x3f808001u, 0x3f817fffu,               // off the tie
      0x7f7fffffu, 0xff7fffffu,               // ±FLT_MAX
      0x7f7f0000u,                            // the largest bf16
  };
  struct Case {
    std::size_t k, n;
  };
  const Case cases[] = {{13, 7},   {7, 40},   {16, 16},  {40, 45},
                        {64, 64},  {300, 70}, {33, 1100}, {256, 96}};
  common::Pcg32 rng(50);
  std::size_t next_special = 0;
  for (const Case& tc : cases) {
    std::vector<float> b(tc.k * tc.n);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = i % 3 == 0
                 ? std::bit_cast<float>(
                       specials[next_special++ % std::size(specials)])
                 : static_cast<float>(rng.normal());
    }
    for (const bool trans : {false, true}) {
      const tensor::PackedWeights packed =
          tensor::simd_backend().pack_b(b.data(), tc.k, tc.n, trans);
      const std::vector<std::uint16_t> want =
          oracle_b_panels(b, tc.k, tc.n, trans);
      ASSERT_EQ(packed.bf16.size(), want.size())
          << tc.k << "x" << tc.n << " trans " << trans;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(packed.bf16[i], want[i])
            << "panel element " << i << " of " << tc.k << "x" << tc.n
            << " trans " << trans << " (" << tensor::simd_isa() << ")";
      }
    }
  }
}

TEST(FusedEpilogueTest, GemmFusedEqualsGemmThenApplyEpilogueBitwise) {
  // The fused epilogue runs per register tile: n >= 64 reaches the
  // full-width tiles on every simd tier (kNr <= 32) and n % 32 != 0 the
  // fringe ones. Each activation, with no bias, a per-column and a per-row
  // bias, must equal the product followed by apply_epilogue's sweep bit for
  // bit, for either B layout.
  const Shape shapes[] = {{7, 45, 64}, {1, 33, 96}, {9, 300, 130},
                          {64, 128, 100}};
  const tensor::EpilogueAct acts[] = {
      tensor::EpilogueAct::kNone, tensor::EpilogueAct::kReLU,
      tensor::EpilogueAct::kLeakyReLU, tensor::EpilogueAct::kSigmoid,
      tensor::EpilogueAct::kTanh};
  common::Pcg32 rng(51);
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor w = b.transposed();
    const Tensor col_bias = Tensor::randn({s.n}, rng);
    const Tensor row_bias = Tensor::randn({s.m}, rng);
    for (const char* name : kAllBackends) {
      const tensor::Backend& be = *tensor::find_backend(name);
      Tensor product({s.m, s.n});
      be.gemm(a.data().data(), b.data().data(), product.data().data(), s.m,
              s.k, s.n);
      for (const auto act : acts) {
        for (int bias_kind = 0; bias_kind < 3; ++bias_kind) {
          tensor::Epilogue epi;
          epi.act = act;
          epi.leaky_alpha = 0.02f;
          if (bias_kind == 1) epi.bias = col_bias.data().data();
          if (bias_kind == 2) {
            epi.bias = row_bias.data().data();
            epi.bias_per_row = true;
          }
          Tensor want = product;
          tensor::apply_epilogue(want.data().data(), s.m, s.n, epi);
          Tensor nn({s.m, s.n}), nt({s.m, s.n});
          be.gemm_fused(a.data().data(), b.data().data(), nn.data().data(),
                        s.m, s.k, s.n, /*transpose_b=*/false, epi);
          be.gemm_fused(a.data().data(), w.data().data(), nt.data().data(),
                        s.m, s.k, s.n, /*transpose_b=*/true, epi);
          SCOPED_TRACE(std::string(name) + " act " +
                       std::to_string(static_cast<int>(act)) + " bias " +
                       std::to_string(bias_kind));
          ExpectBitwiseEqual(nn, want, "gemm_fused", s);
          ExpectBitwiseEqual(nt, want, "gemm_fused (n, k) weight", s);
        }
      }
    }
  }
}

// Backend::gemm_tn_sgd steps the weights straight out of the weight-
// gradient GEMM: on every backend, pooled and serial, it must equal gemm_tn
// into a zeroed C followed by the shared update, which nn::Sgd::step runs
// (this TU may be built with FMA contraction; optimizer.cpp never is), bit
// for bit. Two steps, so the second meets a nonzero velocity. The shapes
// (m, k, n; a is k x m, b is k x n) cover row fringes (m % kMr != 0 on
// every tier), column fringes (n % kNr != 0, and n < 16), k from 1 to one
// whole k panel (kKc = 256) and past it (257, 300: simd's scratch-gradient
// path), and three shapes past the 2^25 pool threshold. One column of b is
// all zero, so its gradient chain sums only signed zeros.
TEST(GemmTnSgdTest, EqualsGemmTnIntoZeroedCThenSgdUpdateBitwise) {
  const Shape shapes[] = {{13, 1, 45},  {9, 64, 7},     {70, 64, 100},
                          {33, 256, 50}, {17, 257, 33},  {10, 300, 40},
                          {700, 64, 750}, {300, 256, 450}, {340, 300, 340}};
  const tensor::SgdUpdate updates[] = {{0.05f, 0.0f, 0.0f},
                                       {0.05f, 0.9f, 0.0f},
                                       {0.05f, 0.0f, 1e-4f},
                                       {0.05f, 0.9f, 1e-4f}};
  const auto expect_same_bits = [](const Tensor& got, const Tensor& want,
                                   const char* what, const Shape& s) {
    ASSERT_EQ(got.shape(), want.shape());
    for (std::size_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << what << " " << i << " at " << s.m << "x" << s.k << "x" << s.n;
    }
  };
  common::Pcg32 rng(61);
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::randn({s.k, s.m}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    for (std::size_t p = 0; p < s.k; ++p) b.at(p, s.n / 2) = 0.0f;
    const Tensor w0 = Tensor::randn({s.m, s.n}, rng);
    for (const char* name : kAllBackends) {
      const tensor::Backend& be = *tensor::find_backend(name);
      for (const tensor::SgdUpdate& update : updates) {
        const bool momentum = update.momentum > 0.0f;
        SCOPED_TRACE(std::string(name) + " momentum " +
                     std::to_string(update.momentum) + " decay " +
                     std::to_string(update.weight_decay));
        for (const bool pooled : {false, true}) {
          SCOPED_TRACE(pooled ? "pooled" : "serial");
          tensor::set_thread_gemm_parallelism(pooled);
          Tensor want_w = w0, grad;
          nn::Sgd sgd({{"w", &want_w, &grad}}, update.lr, update.momentum,
                      update.weight_decay);
          Tensor got_w = w0, got_v({s.m, s.n});
          for (int step = 0; step < 2; ++step) {
            grad = Tensor({s.m, s.n});
            be.gemm_tn(a.data().data(), b.data().data(), grad.data().data(),
                       s.m, s.k, s.n);
            sgd.step();
            be.gemm_tn_sgd(a.data().data(), b.data().data(),
                           got_w.data().data(),
                           momentum ? got_v.data().data() : nullptr, s.m, s.k,
                           s.n, update);
            expect_same_bits(got_w, want_w, "weight", s);
            if (momentum) {
              expect_same_bits(got_v, sgd.velocities()[0], "velocity", s);
            }
          }
        }
      }
    }
  }
  tensor::set_thread_gemm_parallelism(true);
}

TEST(FusedEpilogueTest, ActivationEpilogueMapping) {
  float alpha = 0.0f;
  EXPECT_EQ(nn::activation_epilogue(nn::ReLU{}, alpha),
            tensor::EpilogueAct::kReLU);
  EXPECT_EQ(nn::activation_epilogue(nn::Identity{}, alpha),
            tensor::EpilogueAct::kNone);
  EXPECT_EQ(nn::activation_epilogue(nn::Sigmoid{}, alpha),
            tensor::EpilogueAct::kSigmoid);
  EXPECT_EQ(nn::activation_epilogue(nn::Tanh{}, alpha),
            tensor::EpilogueAct::kTanh);
  EXPECT_EQ(nn::activation_epilogue(nn::LeakyReLU{0.07f}, alpha),
            tensor::EpilogueAct::kLeakyReLU);
  EXPECT_FLOAT_EQ(alpha, 0.07f);
  common::Pcg32 rng(40);
  nn::Dense dense(3, 2, rng);
  EXPECT_EQ(nn::activation_epilogue(dense, alpha), std::nullopt);
}

}  // namespace
