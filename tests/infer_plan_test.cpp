// Tests for InferPlan, the compile-once inference plan (nn/infer_plan.h):
// compile-time structure (identity layers dropped, activations fused,
// packed panels pre-attached), the int8 quantized head, all-identity
// chains, nested-chain flattening, weight-staleness detection, and the
// precomputed arena high-water.
//
// One oracle throughout: the plain layer-by-layer
// Sequential::forward(x, /*training=*/false) on the same backend, compared
// bitwise on all three backends (int8 entries against forward of the
// dequantized batch) — each optimized path is checked against unfused
// per-layer kernels, never against a second optimized path. A plan's Dense
// panels hold bf16 weights, so the forward runs on a copy of the model
// with its Dense weights rounded (bf16_oracle.h). A plan runs on its
// compile backend under any caller scope, so the oracle always runs there.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/backend.h"

#include "bf16_oracle.h"

namespace orco {
namespace {

using nn::InferContext;
using nn::InferPlan;
using tensor::Tensor;

/// The two real backends every parity claim must hold on.
std::vector<const tensor::Backend*> all_backends() {
  return {&tensor::reference_backend(), &tensor::simd_backend()};
}

/// Odd-shaped Dense chain (no power-of-two dims, every epilogue kind) —
/// identical weights for every call with the same seed.
std::unique_ptr<nn::Sequential> make_odd_dense_model(std::uint64_t seed) {
  common::Pcg32 rng(seed);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Dense>(13, 37, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(37, 29, rng);
  model->emplace<nn::LeakyReLU>(0.07f);
  model->emplace<nn::Dense>(29, 23, rng);
  model->emplace<nn::Tanh>();
  model->emplace<nn::Dense>(23, 31, rng);
  model->emplace<nn::Sigmoid>();
  return model;
}

/// make_odd_dense_model's copy with bf16-rounded Dense weights.
std::unique_ptr<nn::Sequential> rounded_odd_model(nn::Sequential& model) {
  return testutil::bf16_copy(model, [] { return make_odd_dense_model(0); });
}

/// Deterministic uint8 latent codes: code i is (i * mul + add) mod 256.
std::vector<std::uint8_t> make_codes(std::size_t n, std::size_t mul,
                                     std::size_t add) {
  std::vector<std::uint8_t> codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<std::uint8_t>((i * mul + add) & 0xFF);
  }
  return codes;
}

/// The float batch an int8 entry decodes: x = lo + q*scale per row.
Tensor dequantize(const std::vector<std::uint8_t>& codes,
                  const tensor::QuantHeader& qh, std::size_t batch,
                  std::size_t features) {
  Tensor x({batch, features});
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < features; ++j) {
      x.at(i, j) =
          qh.row_lo[i] + static_cast<float>(codes[i * features + j]) *
                             qh.row_scale[i];
    }
  }
  return x;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " elem " << i;
  }
}

TEST(InferPlanTest, CompileDropsIdentityAndFusesActivations) {
  common::Pcg32 rng(41);
  nn::Sequential model;
  model.emplace<nn::Identity>();
  model.emplace<nn::Dense>(16, 32, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(32, 24, rng);
  model.emplace<nn::LeakyReLU>(0.05f);
  model.emplace<nn::Dense>(24, 8, rng);
  model.emplace<nn::Sigmoid>();

  const auto plan = InferPlan::compile(model, &tensor::simd_backend());
  // Identity dropped, each Dense+activation pair fused: 7 layers -> 3 ops.
  ASSERT_EQ(plan->size(), 3u);
  EXPECT_EQ(&plan->backend(), &tensor::simd_backend());
  const tensor::EpilogueAct acts[] = {tensor::EpilogueAct::kReLU,
                                      tensor::EpilogueAct::kLeakyReLU,
                                      tensor::EpilogueAct::kSigmoid};
  for (std::size_t i = 0; i < 3; ++i) {
    const nn::PlanOp& op = plan->ops()[i];
    EXPECT_TRUE(op.fused) << "op " << i;
    EXPECT_EQ(op.act, acts[i]) << "op " << i;
    ASSERT_NE(op.dense, nullptr) << "op " << i;
    // Panels packed at compile, pinned to the compile backend.
    ASSERT_NE(op.packed, nullptr) << "op " << i;
    EXPECT_EQ(op.packed->owner, &tensor::simd_backend()) << "op " << i;
    EXPECT_EQ(op.packed_version, op.dense->weight_version()) << "op " << i;
  }
  EXPECT_EQ(plan->ops()[1].leaky_alpha, 0.05f);
  EXPECT_FALSE(plan->weights_stale());
}

TEST(InferPlanTest, MatchesForwardBitwiseOnAllBackendsAndOddShapes) {
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    const auto model = make_odd_dense_model(97);
    const auto rounded = rounded_odd_model(*model);
    const auto plan = InferPlan::compile(*model, backend);

    InferContext ctx;
    Tensor got;
    common::Pcg32 rng(5);
    for (const std::size_t batch : {1u, 3u, 7u, 11u, 7u}) {
      const Tensor x = Tensor::randn({batch, 13}, rng);
      plan->run(x, got, ctx);
      expect_bitwise_equal(got, rounded->forward(x, /*training=*/false),
                           "dense plan");
    }
  }
}

TEST(InferPlanTest, ConvChainMatchesForwardBitwiseOnAllBackends) {
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    common::Pcg32 rng(57);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::MaxPool2d>(4, 8, 8, 2, 2);
    model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 4, 4, rng);
    model.emplace<nn::Sigmoid>();
    const auto plan = InferPlan::compile(model, backend);
    // Only Dense packs: the Conv2d op reads its filter live through the
    // generic fused entry with its ReLU folded in, and pool / transpose run
    // the generic entries too.
    ASSERT_EQ(plan->size(), 3u);
    EXPECT_EQ(plan->ops()[0].packed, nullptr);
    EXPECT_TRUE(plan->ops()[0].fused);
    EXPECT_EQ(plan->ops()[0].act, tensor::EpilogueAct::kReLU);

    InferContext ctx;
    Tensor got;
    for (const std::size_t batch : {3u, 1u, 5u}) {
      const Tensor x = Tensor::randn({batch, 64}, rng);
      plan->run(x, got, ctx);
      expect_bitwise_equal(got, model.forward(x, /*training=*/false),
                           "conv plan");
    }
  }
}

TEST(InferPlanTest, RunUnderForeignBackendScopeStaysBitwiseCorrect) {
  // A plan runs on its compile backend whatever scope the caller has
  // installed: run() and run_quantized() under the other backend's scope
  // must equal the bf16-rounded forward on the compile backend bitwise,
  // and leave the caller's scope in place.
  const auto model = make_odd_dense_model(131);
  const auto rounded = rounded_odd_model(*model);
  common::Pcg32 rng(9);
  const Tensor x = Tensor::randn({5, 13}, rng);
  const auto codes = make_codes(5 * 13, 59, 3);
  std::vector<float> lo(5, -0.6f), scale(5, 1.2f / 255.0f);
  const tensor::QuantHeader qh{lo.data(), scale.data()};
  const Tensor x_codes = dequantize(codes, qh, 5, 13);
  const auto backends = all_backends();
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const tensor::Backend* compile_backend = backends[i];
    const tensor::Backend* foreign = backends[(i + 1) % backends.size()];
    SCOPED_TRACE(compile_backend->name());
    Tensor want, want_codes;
    {
      tensor::BackendScope scope(compile_backend);
      want = rounded->forward(x, /*training=*/false);
      want_codes = rounded->forward(x_codes, /*training=*/false);
    }
    const auto plan = InferPlan::compile(*model, compile_backend);

    tensor::BackendScope scope(foreign);
    InferContext ctx;
    Tensor got;
    plan->run(x, got, ctx);
    expect_bitwise_equal(got, want, "foreign-scope plan");
    plan->run_quantized(codes.data(), qh, 5, 13, got, ctx);
    expect_bitwise_equal(got, want_codes, "foreign-scope int8 head");
    EXPECT_EQ(&tensor::current_backend(), foreign);
  }
}

TEST(InferPlanTest, QuantizedHeadMatchesDequantizedForwardOnAllBackends) {
  constexpr std::size_t kBatch = 6, kFeatures = 13;
  const auto codes = make_codes(kBatch * kFeatures, 73, 19);
  std::vector<float> lo(kBatch), scale(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    lo[i] = -0.75f + 0.2f * static_cast<float>(i);
    scale[i] = (1.0f + 0.1f * static_cast<float>(i)) / 255.0f;
  }
  const tensor::QuantHeader qh{lo.data(), scale.data()};

  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    const auto model = make_odd_dense_model(211);
    const auto rounded = rounded_odd_model(*model);
    const auto plan = InferPlan::compile(*model, backend);

    InferContext ctx;
    Tensor got;
    plan->run_quantized(codes.data(), qh, kBatch, kFeatures, got, ctx);
    expect_bitwise_equal(
        got,
        rounded->forward(dequantize(codes, qh, kBatch, kFeatures), false),
        "quantized head");

    // Partial batch through the same context.
    plan->run_quantized(codes.data(), qh, 2, kFeatures, got, ctx);
    expect_bitwise_equal(
        got, rounded->forward(dequantize(codes, qh, 2, kFeatures), false),
        "quantized head partial batch");
  }
}

TEST(InferPlanTest, QuantizedNonDenseHeadDequantizesAndMatchesForward) {
  // A conv-headed chain: the plan dequantizes into a context buffer and
  // runs the float ops, Conv2d head included.
  tensor::BackendScope scope(&tensor::simd_backend());
  common::Pcg32 rng(77);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 2, 3, 1, 1, 4, 4, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(32, 5, rng);
  const auto plan = InferPlan::compile(model);
  const auto rounded = testutil::bf16_copy(model, [] {
    common::Pcg32 any(0);
    auto copy = std::make_unique<nn::Sequential>();
    copy->emplace<nn::Conv2d>(1, 2, 3, 1, 1, 4, 4, any);
    copy->emplace<nn::ReLU>();
    copy->emplace<nn::Dense>(32, 5, any);
    return copy;
  });

  constexpr std::size_t kBatch = 3, kFeatures = 16;
  const auto codes = make_codes(kBatch * kFeatures, 41, 7);
  std::vector<float> lo(kBatch, -0.5f), scale(kBatch, 1.0f / 255.0f);
  const tensor::QuantHeader qh{lo.data(), scale.data()};

  InferContext ctx;
  Tensor got;
  plan->run_quantized(codes.data(), qh, kBatch, kFeatures, got, ctx);
  expect_bitwise_equal(
      got, rounded->forward(dequantize(codes, qh, kBatch, kFeatures), false),
      "conv-head quantized");
}

TEST(InferPlanTest, SingleOpQuantizedRunMayWriteTheContextInputBuffer) {
  // A single-op plan may write a context buffer (run() allows it), so
  // run_quantized must stage the dequantized batch elsewhere: for a conv
  // head, a Dense head, and a Dense head compiled for another backend than
  // the caller's, which decodes on its own.
  constexpr std::size_t kBatch = 3, kFeatures = 16;
  const auto codes = make_codes(kBatch * kFeatures, 29, 5);
  std::vector<float> lo(kBatch, -0.25f), scale(kBatch, 1.0f / 255.0f);
  const tensor::QuantHeader qh{lo.data(), scale.data()};
  const Tensor x = dequantize(codes, qh, kBatch, kFeatures);
  tensor::BackendScope scope(&tensor::simd_backend());

  common::Pcg32 rng(89);
  nn::Sequential conv_head;
  conv_head.emplace<nn::Conv2d>(1, 2, 3, 1, 1, 4, 4, rng);
  conv_head.emplace<nn::ReLU>();
  nn::Sequential dense_head;
  dense_head.emplace<nn::Dense>(kFeatures, 8, rng);
  dense_head.emplace<nn::Sigmoid>();
  const auto rounded_dense_head = testutil::bf16_copy(dense_head, [] {
    common::Pcg32 any(0);
    auto copy = std::make_unique<nn::Sequential>();
    copy->emplace<nn::Dense>(std::size_t{kFeatures}, 8, any);
    copy->emplace<nn::Sigmoid>();
    return copy;
  });
  const auto conv_plan = InferPlan::compile(conv_head);
  const auto dense_plan = InferPlan::compile(dense_head);
  const auto foreign_dense_plan =
      InferPlan::compile(dense_head, &tensor::reference_backend());
  Tensor foreign_expected;
  {
    tensor::BackendScope reference(&tensor::reference_backend());
    foreign_expected = rounded_dense_head->forward(x, /*training=*/false);
  }

  const std::pair<Tensor, const InferPlan*> cases[] = {
      {conv_head.forward(x, /*training=*/false), conv_plan.get()},
      {rounded_dense_head->forward(x, /*training=*/false), dense_plan.get()},
      {foreign_expected, foreign_dense_plan.get()}};
  for (const auto& [expected, plan] : cases) {
    ASSERT_EQ(plan->size(), 1u);
    InferContext ctx;
    plan->run_quantized(codes.data(), qh, kBatch, kFeatures, ctx.input(), ctx);
    expect_bitwise_equal(ctx.input(), expected,
                         "single-op quantized into ctx.input()");
  }
}

TEST(InferPlanTest, AllIdentityChainCompilesToEmptyPlanAndCopies) {
  nn::Sequential model;
  model.emplace<nn::Identity>();
  model.emplace<nn::Identity>();
  const auto plan = InferPlan::compile(model);
  EXPECT_EQ(plan->size(), 0u);
  EXPECT_EQ(plan->scratch_floats(), 0u);
  EXPECT_FALSE(plan->weights_stale());

  common::Pcg32 rng(15);
  const Tensor x = Tensor::randn({4, 9}, rng);
  InferContext ctx;
  Tensor got;
  plan->run(x, got, ctx);
  expect_bitwise_equal(got, x, "identity chain");

  // Quantized entry through an empty plan is pure dequantization.
  const std::vector<std::uint8_t> codes(2 * 9, 128);
  std::vector<float> lo(2, -1.0f), scale(2, 2.0f / 255.0f);
  const tensor::QuantHeader qh{lo.data(), scale.data()};
  plan->run_quantized(codes.data(), qh, 2, 9, got, ctx);
  expect_bitwise_equal(got, dequantize(codes, qh, 2, 9),
                       "identity chain quantized");
}

TEST(InferPlanTest, NestedChainCompilesAndRunsBitwiseEqualToFlat) {
  // Same seed -> identical weights; the nested container must flatten into
  // the same plan (op count included) and the same bits as the flat chain.
  const auto flat = make_odd_dense_model(303);

  common::Pcg32 rng(303);
  auto outer = std::make_unique<nn::Sequential>();
  auto inner = std::make_unique<nn::Sequential>();
  outer->emplace<nn::Dense>(13, 37, rng);
  outer->emplace<nn::ReLU>();
  inner->emplace<nn::Dense>(37, 29, rng);
  inner->emplace<nn::LeakyReLU>(0.07f);
  inner->emplace<nn::Dense>(29, 23, rng);
  inner->emplace<nn::Tanh>();
  outer->add(std::move(inner));
  outer->emplace<nn::Dense>(23, 31, rng);
  outer->emplace<nn::Sigmoid>();

  const auto flat_plan = InferPlan::compile(*flat);
  const auto nested_plan = InferPlan::compile(*outer);
  ASSERT_EQ(nested_plan->size(), flat_plan->size());

  InferContext flat_ctx, nested_ctx;
  Tensor flat_out, nested_out;
  common::Pcg32 data_rng(31);
  for (const std::size_t batch : {1u, 6u}) {
    const Tensor x = Tensor::randn({batch, 13}, data_rng);
    flat_plan->run(x, flat_out, flat_ctx);
    nested_plan->run(x, nested_out, nested_ctx);
    expect_bitwise_equal(nested_out, flat_out, "nested plan vs flat plan");
    expect_bitwise_equal(nested_out,
                         rounded_odd_model(*flat)->forward(x, false),
                         "nested plan vs flat forward");

    // And the container's one-off infer_into agrees with both.
    Tensor seq_out;
    outer->infer_into(x, seq_out, nested_ctx);
    expect_bitwise_equal(seq_out, flat_out, "nested infer_into vs flat plan");
  }
}

TEST(InferPlanTest, WeightsStaleFlipsAfterMutationAndRecompileClears) {
  common::Pcg32 rng(59);
  nn::Sequential model;
  auto& dense = model.emplace<nn::Dense>(8, 12, rng);
  model.emplace<nn::ReLU>();

  const auto plan = InferPlan::compile(model);
  EXPECT_FALSE(plan->weights_stale());
  // A training step / checkpoint load bumps the weight version this way.
  model.invalidate_weight_cache();
  EXPECT_TRUE(plan->weights_stale());
  (void)dense;

  const auto fresh = InferPlan::compile(model);
  EXPECT_FALSE(fresh->weights_stale());
  // The stale plan still executes (reading its captured panels) — it must
  // not crash, and the fresh plan reflects the live weights.
  InferContext ctx;
  Tensor out;
  const Tensor x = Tensor::randn({2, 8}, rng);
  plan->run(x, out, ctx);
  fresh->run(x, out, ctx);
}

TEST(InferPlanTest, ScratchFloatsCoversArenaHighWaterExactly) {
  // The conv chain is the scratch-hungry case: the im2col column matrix is
  // the arena high-water, precomputed at compile so the first run() reserves
  // once and the arena never opens a second block.
  tensor::BackendScope scope(&tensor::simd_backend());
  common::Pcg32 rng(67);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 8, 8, rng);
  const auto plan = InferPlan::compile(model);
  EXPECT_GT(plan->scratch_floats(), 0u);

  InferContext ctx;
  Tensor out;
  const Tensor x = Tensor::randn({4, 64}, rng);
  plan->run(x, out, ctx);
  EXPECT_LE(ctx.scratch().high_water(), plan->scratch_floats());
  EXPECT_EQ(ctx.scratch().block_count(), 1u);  // one reserve, no growth
  const std::size_t cap = ctx.scratch().capacity();
  for (int i = 0; i < 4; ++i) plan->run(x, out, ctx);
  EXPECT_EQ(ctx.scratch().capacity(), cap);
  EXPECT_EQ(ctx.scratch().block_count(), 1u);
}

TEST(InferPlanTest, MultiOpPlanRejectsContextBufferOutput) {
  // Two ping-pong buffers cannot hold the input chain AND an aliased output
  // of a multi-op plan; the executor refuses loudly instead of silently
  // allocating.
  common::Pcg32 rng(83);
  nn::Sequential model;
  model.emplace<nn::Dense>(8, 16, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(16, 8, rng);
  const auto plan = InferPlan::compile(model);
  ASSERT_GE(plan->size(), 2u);

  InferContext ctx;
  const Tensor x = Tensor::randn({2, 8}, rng);
  EXPECT_THROW(plan->run(x, ctx.buffer(1), ctx), std::invalid_argument);
}

}  // namespace
}  // namespace orco
