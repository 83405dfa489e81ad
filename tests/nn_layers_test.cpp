// Unit tests for NN layers: forward semantics, caching, chaining, noise.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

#include "bf16_oracle.h"

namespace orco::nn {
namespace {

using tensor::Tensor;

TEST(DenseTest, ForwardComputesAffineMap) {
  common::Pcg32 rng(1);
  Dense d(2, 3, rng);
  // Overwrite with known weights: y = W x + b.
  d.weight() = Tensor::from2d({{1, 0}, {0, 1}, {1, 1}});
  d.bias() = Tensor::from({0.5f, -0.5f, 0.0f});
  const Tensor x = Tensor::from2d({{2, 3}});
  const Tensor y = d.forward(x, false);
  EXPECT_TRUE(y.allclose(Tensor::from2d({{2.5f, 2.5f, 5.0f}})));
}

TEST(DenseTest, RejectsWrongInputWidth) {
  common::Pcg32 rng(2);
  Dense d(4, 2, rng);
  EXPECT_THROW((void)d.forward(Tensor({1, 3}), false), std::invalid_argument);
}

TEST(DenseTest, BackwardAccumulatesGradients) {
  common::Pcg32 rng(3);
  Dense d(2, 2, rng);
  const Tensor x = Tensor::from2d({{1, 2}});
  (void)d.forward(x, true);
  (void)d.backward(Tensor::from2d({{1, 1}}));
  const Tensor gw1 = d.weight_grad();
  (void)d.forward(x, true);
  (void)d.backward(Tensor::from2d({{1, 1}}));
  // Second backward doubles the accumulated gradient.
  EXPECT_TRUE(d.weight_grad().allclose(gw1 * 2.0f, 1e-5f));
  d.zero_grad();
  EXPECT_FLOAT_EQ(d.weight_grad().abs_max(), 0.0f);
}

TEST(DenseTest, ParamsExposeWeightAndBias) {
  common::Pcg32 rng(4);
  Dense d(3, 5, rng);
  const auto params = d.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->shape(), (tensor::Shape{5, 3}));
  EXPECT_EQ(params[1].value->shape(), (tensor::Shape{5}));
  EXPECT_EQ(d.output_features(3), 5u);
  EXPECT_THROW((void)d.output_features(4), std::invalid_argument);
  EXPECT_EQ(d.forward_flops(2), 2u * 2u * 3u * 5u);
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  common::Pcg32 rng(5);
  Conv2d conv(1, 1, 1, 1, 0, 3, 3, rng);
  // 1x1 kernel with weight 1, bias 0 is the identity.
  conv.params()[0].value->fill(1.0f);
  conv.params()[1].value->fill(0.0f);
  const Tensor x = Tensor::from2d({{1, 2, 3, 4, 5, 6, 7, 8, 9}});
  EXPECT_TRUE(conv.forward(x, false).allclose(x));
}

TEST(Conv2dTest, KnownSumKernel) {
  common::Pcg32 rng(6);
  Conv2d conv(1, 1, 2, 1, 0, 2, 2, rng);
  conv.params()[0].value->fill(1.0f);  // 2x2 all-ones kernel: sums patch
  conv.params()[1].value->fill(0.5f);
  const Tensor x = Tensor::from2d({{1, 2, 3, 4}});
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 10.5f);
}

TEST(Conv2dTest, OutputGeometryAndFlops) {
  common::Pcg32 rng(7);
  Conv2d conv(3, 8, 3, 1, 1, 32, 32, rng);
  EXPECT_EQ(conv.out_h(), 32u);
  EXPECT_EQ(conv.output_features(3 * 32 * 32), 8u * 32u * 32u);
  EXPECT_THROW((void)conv.output_features(123), std::invalid_argument);
  EXPECT_GT(conv.forward_flops(1), 0u);
}

TEST(Conv2dTest, StridedOutput) {
  common::Pcg32 rng(8);
  Conv2d conv(1, 2, 3, 2, 1, 8, 8, rng);
  EXPECT_EQ(conv.out_h(), 4u);
  const Tensor x({2, 64}, 1.0f);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(1), 2u * 4u * 4u);
}

TEST(ConvTranspose2dTest, UpsamplesGeometry) {
  common::Pcg32 rng(9);
  ConvTranspose2d convt(4, 2, 4, 2, 1, 7, 7, rng);
  EXPECT_EQ(convt.out_h(), 14u);
  EXPECT_EQ(convt.out_w(), 14u);
  EXPECT_EQ(convt.output_features(4 * 7 * 7), 2u * 14u * 14u);
}

TEST(ConvTranspose2dTest, ForwardAgreesWithManualScatter) {
  // 1 channel -> 1 channel, 2x2 kernel, stride 2: each input pixel paints a
  // scaled copy of the kernel on a disjoint 2x2 block.
  common::Pcg32 rng(10);
  ConvTranspose2d convt(1, 1, 2, 2, 0, 2, 2, rng);
  convt.params()[0].value->data()[0] = 1.0f;
  convt.params()[0].value->data()[1] = 2.0f;
  convt.params()[0].value->data()[2] = 3.0f;
  convt.params()[0].value->data()[3] = 4.0f;
  convt.params()[1].value->fill(0.0f);
  const Tensor x = Tensor::from2d({{1, 10, 100, 1000}});
  const Tensor y = convt.forward(x, false);
  ASSERT_EQ(y.numel(), 16u);
  // Top-left block scaled by 1, top-right by 10, etc.
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 10.0f);
  EXPECT_FLOAT_EQ(y[3], 20.0f);
  EXPECT_FLOAT_EQ(y[4], 3.0f);
  EXPECT_FLOAT_EQ(y[5], 4.0f);
  EXPECT_FLOAT_EQ(y[15], 4000.0f);
}

TEST(MaxPool2dTest, ForwardPicksMaxima) {
  MaxPool2d pool(1, 4, 4, 2, 2);
  const Tensor x = Tensor::from2d(
      {{1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 13, 14, 11, 12, 15, 16}});
  const Tensor y = pool.forward(x, false);
  EXPECT_TRUE(y.allclose(Tensor::from2d({{4, 8, 12, 16}})));
}

TEST(MaxPool2dTest, BackwardRoutesToWinners) {
  MaxPool2d pool(1, 2, 2, 2, 2);
  const Tensor x = Tensor::from2d({{1, 3, 2, 0}});
  (void)pool.forward(x, true);
  const Tensor gi = pool.backward(Tensor::from2d({{5}}));
  EXPECT_TRUE(gi.allclose(Tensor::from2d({{0, 5, 0, 0}})));
}

TEST(MaxPool2dTest, GeometryValidation) {
  EXPECT_THROW(MaxPool2d(1, 2, 2, 3, 1), std::invalid_argument);
  MaxPool2d pool(2, 8, 8, 2, 2);
  EXPECT_EQ(pool.output_features(2 * 64), 2u * 16u);
  EXPECT_THROW((void)pool.output_features(100), std::invalid_argument);
}

TEST(ActivationTest, ReLUZeroesNegatives) {
  ReLU relu;
  const Tensor x = Tensor::from({-1, 0, 2});
  EXPECT_TRUE(relu.forward(x, false).allclose(Tensor::from({0, 0, 2})));
  const Tensor g = relu.backward(Tensor::from({1, 1, 1}));
  EXPECT_TRUE(g.allclose(Tensor::from({0, 0, 1})));
}

// ReLU's backward is a select, not a branch: +0 where the input is <= 0
// (either zero), the gradient elsewhere (a NaN input keeps it). Every
// (input, gradient) pair of special values gives the bits of the branchy
// loop it replaced: copy the gradient, then zero it where input <= 0.
TEST(ActivationTest, ReLUBackwardKeepsTheBranchyLoopBitsOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inputs[] = {nan,  -nan, 0.0f,   -0.0f,   1.5f,
                          -1.5f, inf, -inf,   denorm, -denorm};
  const float grads[] = {-0.0f, 0.0f, nan, -nan, inf, -inf, 2.5f, -3.0f};
  const std::size_t n = std::size(inputs) * std::size(grads);
  Tensor x({1, n}), g({1, n});
  for (std::size_t i = 0; i < std::size(inputs); ++i) {
    for (std::size_t j = 0; j < std::size(grads); ++j) {
      x[i * std::size(grads) + j] = inputs[i];
      g[i * std::size(grads) + j] = grads[j];
    }
  }
  ReLU relu;
  (void)relu.forward(x, true);
  const Tensor got = relu.backward(g);
  Tensor want = g;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0f) want[i] = 0.0f;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "input " << x[i] << ", gradient " << g[i];
  }
}

TEST(ActivationTest, LeakyReLUKeepsSlope) {
  LeakyReLU lrelu(0.1f);
  const Tensor x = Tensor::from({-2, 4});
  EXPECT_TRUE(lrelu.forward(x, false).allclose(Tensor::from({-0.2f, 4.0f})));
  const Tensor g = lrelu.backward(Tensor::from({1, 1}));
  EXPECT_TRUE(g.allclose(Tensor::from({0.1f, 1.0f})));
  EXPECT_THROW(LeakyReLU(1.5f), std::invalid_argument);
}

TEST(ActivationTest, SigmoidRangeAndDerivative) {
  Sigmoid s;
  const Tensor x = Tensor::from({0.0f});
  const Tensor y = s.forward(x, false);
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  const Tensor g = s.backward(Tensor::from({1.0f}));
  EXPECT_NEAR(g[0], 0.25f, 1e-6f);  // sigmoid'(0) = 1/4
}

TEST(ActivationTest, TanhOddAndBounded) {
  Tanh t;
  const Tensor x = Tensor::from({-3, 0, 3});
  const Tensor y = t.forward(x, false);
  EXPECT_NEAR(y[1], 0.0f, 1e-6f);
  EXPECT_NEAR(y[0], -y[2], 1e-6f);
  EXPECT_LT(std::fabs(y[2]), 1.0f);
}

TEST(ActivationTest, FactoryCoversAllKinds) {
  for (const auto kind :
       {Activation::kIdentity, Activation::kReLU, Activation::kLeakyReLU,
        Activation::kSigmoid, Activation::kTanh}) {
    const auto layer = make_activation(kind);
    ASSERT_NE(layer, nullptr);
    EXPECT_EQ(layer->output_features(7), 7u);
  }
}

TEST(SequentialTest, ChainsLayersAndValidates) {
  common::Pcg32 rng(15);
  Sequential model;
  model.emplace<Dense>(4, 8, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(model.output_features(4), 2u);
  EXPECT_THROW((void)model.output_features(5), std::invalid_argument);
  EXPECT_EQ(model.size(), 3u);
  const Tensor x = Tensor::randn({3, 4}, rng);
  EXPECT_EQ(model.forward(x, false).shape(), (tensor::Shape{3, 2}));
}

TEST(SequentialTest, ParamNamesIncludeLayerIndex) {
  common::Pcg32 rng(16);
  Sequential model;
  model.emplace<Dense>(2, 2, rng);
  model.emplace<Dense>(2, 2, rng);
  const auto params = model.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "layer0.Dense.weight");
  EXPECT_EQ(params[3].name, "layer1.Dense.bias");
  EXPECT_EQ(model.parameter_count(), 2u * (2 * 2 + 2));
}

TEST(SequentialTest, FlopsSumAcrossLayers) {
  common::Pcg32 rng(17);
  Sequential model;
  model.emplace<Dense>(10, 20, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(20, 5, rng);
  EXPECT_EQ(model.forward_flops(2),
            2u * 2u * 10u * 20u + 2u * 2u * 20u * 5u);
}

TEST(SequentialTest, RejectsNullLayer) {
  Sequential model;
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
  EXPECT_THROW((void)model.layer(0), std::invalid_argument);
}

TEST(LayerInferIntoTest, MatchesInferAcrossLayerKinds) {
  common::Pcg32 rng(31);
  const Tensor x = Tensor::randn({3, 16}, rng);
  Dense dense(16, 8, rng);
  MaxPool2d pool(1, 4, 4, 2, 2);
  LeakyReLU leaky(0.2f);
  const Layer* layers[] = {&dense, &pool, &leaky};
  for (const Layer* layer : layers) {
    InferContext ctx;
    Tensor out;
    layer->infer_into(x, out, ctx);
    const Tensor expected = layer->infer(x);
    ASSERT_EQ(out.shape(), expected.shape()) << layer->name();
    for (std::size_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], expected[i]) << layer->name() << " elem " << i;
    }
  }
}

TEST(LayerInferIntoTest, FusedIntoMatchesUnfusedActivation) {
  common::Pcg32 rng(32);
  Dense dense(6, 10, rng);
  Sigmoid sigmoid;
  const Tensor x = Tensor::randn({4, 6}, rng);
  InferContext ctx;
  Tensor fused;
  dense.infer_fused_into(x, fused, tensor::EpilogueAct::kSigmoid, 0.01f, ctx);
  const Tensor expected = sigmoid.infer(dense.infer(x));
  ASSERT_EQ(fused.shape(), expected.shape());
  for (std::size_t i = 0; i < fused.numel(); ++i) {
    ASSERT_EQ(fused[i], expected[i]);
  }
}

TEST(SequentialTest, InferIntoSkipsInferenceIdentityLayers) {
  // Identity is pass-through at inference: the compiled plan drops it
  // outright (no buffer copy), and the one-off infer_into matches the
  // layer-by-layer forward (of the bf16-rounded copy) bitwise, including
  // when it leads the chain or trails the last real layer.
  common::Pcg32 rng(33);
  Sequential model;
  model.emplace<Identity>();
  model.emplace<Dense>(4, 6, rng);
  model.emplace<ReLU>();
  model.emplace<Identity>();
  model.emplace<Identity>();
  EXPECT_TRUE(model.layer(0).infer_is_identity());
  EXPECT_FALSE(model.layer(1).infer_is_identity());

  const Tensor x = Tensor::randn({2, 4}, rng);
  // The plan's Dense panels are bf16: the forward runs a rounded copy.
  const auto rounded = testutil::bf16_copy(model, [] {
    common::Pcg32 any(0);
    auto copy = std::make_unique<Sequential>();
    copy->emplace<Identity>();
    copy->emplace<Dense>(4, 6, any);
    copy->emplace<ReLU>();
    copy->emplace<Identity>();
    copy->emplace<Identity>();
    return copy;
  });
  const Tensor expected = rounded->forward(x, /*training=*/false);
  InferContext ctx;
  Tensor out;
  model.infer_into(x, out, ctx);
  ASSERT_EQ(out.shape(), expected.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    ASSERT_EQ(out[i], expected[i]);
  }

  // All-identity chain: the pass is a straight copy.
  Sequential passthrough;
  passthrough.emplace<Identity>();
  passthrough.infer_into(x, out, ctx);
  ASSERT_EQ(out.shape(), x.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) ASSERT_EQ(out[i], x[i]);
}

TEST(TrainingStateTest, ParameterGradientsAppearAtFirstBackward) {
  // Dense, Conv2d and ConvTranspose2d hold no gradient until backward:
  // inference, params() and zero_grad leave it empty, and the first
  // backward sizes it to the parameter's shape.
  common::Pcg32 rng(35);
  Dense dense(3, 4, rng);
  Conv2d conv(2, 3, /*kernel=*/3, /*stride=*/1, /*pad=*/1, 4, 4, rng);
  ConvTranspose2d deconv(2, 1, /*kernel=*/2, /*stride=*/2, /*pad=*/0, 3, 3,
                         rng);
  const std::pair<Layer*, std::size_t> layers[] = {
      {&dense, 3}, {&conv, 2 * 4 * 4}, {&deconv, 2 * 3 * 3}};
  for (const auto& [layer, in_features] : layers) {
    SCOPED_TRACE(layer->name());
    const Tensor x = Tensor::randn({2, in_features}, rng);
    const auto expect_empty = [&] {
      for (const ParamView& p : layer->params()) {
        EXPECT_TRUE(p.grad->empty()) << p.name;
      }
    };
    expect_empty();
    (void)layer->infer(x);
    layer->zero_grad();
    expect_empty();

    const Tensor y = layer->forward(x, /*training=*/true);
    (void)layer->backward(Tensor::ones(y.shape()));
    const auto params = layer->params();
    ASSERT_EQ(params.size(), 2u);
    for (const ParamView& p : params) {
      EXPECT_EQ(p.grad->shape(), p.value->shape()) << p.name;
      EXPECT_GT(p.grad->abs_max(), 0.0f) << p.name;
    }
    layer->zero_grad();
    for (const ParamView& p : layer->params()) {
      EXPECT_EQ(p.grad->shape(), p.value->shape()) << p.name;
      EXPECT_EQ(p.grad->abs_max(), 0.0f) << p.name;
    }
  }
  EXPECT_EQ(dense.weight_grad().shape(), dense.weight().shape());
  EXPECT_EQ(dense.bias_grad().shape(), dense.bias().shape());
}

TEST(SequentialTest, InferIntoRejectsAliasedOutput) {
  common::Pcg32 rng(34);
  Sequential model;
  model.emplace<Dense>(4, 4, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  InferContext ctx;
  EXPECT_THROW(model.infer_into(x, x, ctx), std::invalid_argument);
}

}  // namespace
}  // namespace orco::nn
