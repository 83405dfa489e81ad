// Optimizer tests: exact step semantics and convergence behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace orco::nn {
namespace {

using tensor::Tensor;

// A single scalar "parameter" wrapped in ParamViews for direct testing.
struct ScalarParam {
  Tensor value{tensor::Shape{1}};
  Tensor grad{tensor::Shape{1}};
  std::vector<ParamView> views() { return {{"w", &value, &grad}}; }
};

TEST(SgdTest, PlainStepIsLrTimesGrad) {
  ScalarParam p;
  p.value[0] = 1.0f;
  p.grad[0] = 0.5f;
  Sgd sgd(p.views(), /*lr=*/0.1f);
  sgd.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 0.5f, 1e-7f);
}

TEST(SgdTest, MomentumAccumulatesVelocity) {
  ScalarParam p;
  p.value[0] = 0.0f;
  Sgd sgd(p.views(), /*lr=*/1.0f, /*momentum=*/0.5f);
  p.grad[0] = 1.0f;
  sgd.step();  // v=1, w=-1
  EXPECT_NEAR(p.value[0], -1.0f, 1e-7f);
  sgd.step();  // v=0.5*1+1=1.5, w=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-7f);
}

TEST(SgdTest, WeightDecayShrinksParameters) {
  ScalarParam p;
  p.value[0] = 2.0f;
  p.grad[0] = 0.0f;
  Sgd sgd(p.views(), /*lr=*/0.1f, /*momentum=*/0.0f, /*weight_decay=*/0.5f);
  sgd.step();
  EXPECT_NEAR(p.value[0], 2.0f - 0.1f * 0.5f * 2.0f, 1e-7f);
}

TEST(SgdTest, ZeroGradClearsAllGradients) {
  ScalarParam p;
  p.grad[0] = 3.0f;
  Sgd sgd(p.views(), 0.1f);
  sgd.zero_grad();
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(SgdTest, ValidatesHyperparameters) {
  ScalarParam p;
  EXPECT_THROW(Sgd(p.views(), 0.0f), std::invalid_argument);
  EXPECT_THROW(Sgd(p.views(), 0.1f, 1.0f), std::invalid_argument);
  EXPECT_THROW(Sgd(p.views(), 0.1f, 0.0f, -1.0f), std::invalid_argument);
  Sgd ok(p.views(), 0.1f);
  EXPECT_THROW(ok.set_learning_rate(-0.5f), std::invalid_argument);
  ok.set_learning_rate(0.2f);
  EXPECT_FLOAT_EQ(ok.learning_rate(), 0.2f);
}

TEST(SgdTest, ConvergesOnQuadraticBowl) {
  // minimise f(w) = (w - 3)^2 by hand-fed gradients.
  ScalarParam p;
  p.value[0] = -5.0f;
  Sgd sgd(p.views(), 0.1f, 0.9f);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    sgd.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-3f);
}

TEST(AdamTest, FirstStepHasLrMagnitude) {
  // With bias correction the first Adam step is ~lr * sign(grad).
  ScalarParam p;
  p.value[0] = 0.0f;
  p.grad[0] = 123.0f;
  Adam adam(p.views(), /*lr=*/0.01f);
  adam.step();
  EXPECT_NEAR(p.value[0], -0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadraticBowl) {
  ScalarParam p;
  p.value[0] = 10.0f;
  Adam adam(p.views(), 0.2f);
  for (int i = 0; i < 400; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

TEST(AdamTest, ValidatesHyperparameters) {
  ScalarParam p;
  EXPECT_THROW(Adam(p.views(), -0.1f), std::invalid_argument);
  EXPECT_THROW(Adam(p.views(), 0.1f, 1.0f), std::invalid_argument);
  EXPECT_THROW(Adam(p.views(), 0.1f, 0.9f, 1.0f), std::invalid_argument);
}

TEST(OptimizerTest, RejectsNullOrMismatchedViews) {
  Tensor v({2});
  Tensor g({3});
  std::vector<ParamView> bad = {{"w", &v, &g}};
  EXPECT_THROW(Sgd(bad, 0.1f), std::invalid_argument);
  std::vector<ParamView> null_view = {{"w", &v, nullptr}};
  EXPECT_THROW(Sgd(null_view, 0.1f), std::invalid_argument);
  // A gradient not yet allocated (no backward so far) is admitted.
  Tensor unallocated;
  std::vector<ParamView> lazy = {{"w", &v, &unallocated}};
  EXPECT_NO_THROW(Sgd(lazy, 0.1f));
  EXPECT_NO_THROW(Adam(lazy, 0.1f));
}

TEST(OptimizerTest, ParameterCountSums) {
  common::Pcg32 rng(1);
  Sequential model;
  model.emplace<Dense>(4, 3, rng);
  Sgd sgd(model.params(), 0.1f);
  EXPECT_EQ(sgd.parameter_count(), 4u * 3u + 3u);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

// One training round on a Dense layer: zero_grad, forward, backward, step.
void train_round(Dense& dense, Optimizer& opt, const Tensor& x,
                 const Tensor& y) {
  MseLoss loss;
  opt.zero_grad();
  const Tensor pred = dense.forward(x, /*training=*/true);
  (void)dense.backward(loss.gradient(pred, y));
  opt.step();
}

TEST(OptimizerStateTest, SgdAndAdamHoldNoStateBeforeFirstStep) {
  common::Pcg32 rng(4);
  const Tensor x = Tensor::randn({5, 3}, rng);
  const Tensor y = Tensor::randn({5, 2}, rng);

  Dense sgd_dense(3, 2, rng);
  Sgd sgd(sgd_dense.params(), 0.1f, /*momentum=*/0.9f);
  sgd.zero_grad();
  EXPECT_TRUE(sgd.velocities().empty());
  train_round(sgd_dense, sgd, x, y);
  ASSERT_EQ(sgd.velocities().size(), 2u);
  EXPECT_EQ(sgd.velocities()[0].shape(), sgd_dense.weight().shape());
  EXPECT_EQ(sgd.velocities()[1].shape(), sgd_dense.bias().shape());

  Dense adam_dense(3, 2, rng);
  Adam adam(adam_dense.params(), 0.01f);
  adam.zero_grad();
  EXPECT_TRUE(adam.first_moments().empty());
  EXPECT_TRUE(adam.second_moments().empty());
  train_round(adam_dense, adam, x, y);
  ASSERT_EQ(adam.first_moments().size(), 2u);
  ASSERT_EQ(adam.second_moments().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const Tensor& value = i == 0 ? adam_dense.weight() : adam_dense.bias();
    EXPECT_EQ(adam.first_moments()[i].shape(), value.shape());
    EXPECT_EQ(adam.second_moments()[i].shape(), value.shape());
  }
}

TEST(OptimizerStateTest, LazyGradientTrainsBitwiseLikePresizedGradient) {
  // Two identical Dense layers; the second gets its gradients sized up
  // front, as every layer did before gradients were allocated on first use.
  // Three SGD rounds with momentum and weight decay must end bitwise equal.
  common::Pcg32 data_rng(5);
  const Tensor x = Tensor::randn({6, 4}, data_rng);
  const Tensor y = Tensor::randn({6, 3}, data_rng);
  common::Pcg32 rng_a(6), rng_b(6);
  Dense lazy(4, 3, rng_a), presized(4, 3, rng_b);
  presized.weight_grad() = Tensor(presized.weight().shape());
  presized.bias_grad() = Tensor(presized.bias().shape());
  Sgd sgd_lazy(lazy.params(), 0.05f, 0.9f, 1e-3f);
  Sgd sgd_presized(presized.params(), 0.05f, 0.9f, 1e-3f);
  for (int round = 0; round < 3; ++round) {
    train_round(lazy, sgd_lazy, x, y);
    train_round(presized, sgd_presized, x, y);
  }
  EXPECT_TRUE(same_bits(lazy.weight(), presized.weight()));
  EXPECT_TRUE(same_bits(lazy.bias(), presized.bias()));
  ASSERT_EQ(sgd_lazy.velocities().size(), 2u);
  ASSERT_EQ(sgd_presized.velocities().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(same_bits(sgd_lazy.velocities()[i],
                          sgd_presized.velocities()[i]))
        << "velocity " << i;
  }
}

TEST(OptimizerStateTest, WeightDecayStepWithoutBackwardMatchesZeroGradient) {
  // A step on a parameter that never ran backward decays it as if its
  // gradient were an explicit zero — including the sign of zero weights.
  for (const float momentum : {0.0f, 0.9f}) {
    SCOPED_TRACE(momentum);
    common::Pcg32 rng_a(7), rng_b(7);
    Dense lazy(5, 4, rng_a), explicit_zero(5, 4, rng_b);
    lazy.weight()[0] = -0.0f;
    explicit_zero.weight()[0] = -0.0f;
    explicit_zero.weight_grad() = Tensor(explicit_zero.weight().shape());
    explicit_zero.bias_grad() = Tensor(explicit_zero.bias().shape());
    Sgd sgd_lazy(lazy.params(), 0.1f, momentum, /*weight_decay=*/0.5f);
    Sgd sgd_zero(explicit_zero.params(), 0.1f, momentum, 0.5f);
    for (int step = 0; step < 2; ++step) {
      sgd_lazy.step();
      sgd_zero.step();
    }
    EXPECT_TRUE(same_bits(lazy.weight(), explicit_zero.weight()));
    EXPECT_TRUE(same_bits(lazy.bias(), explicit_zero.bias()));
    ASSERT_EQ(sgd_lazy.velocities().size(), sgd_zero.velocities().size());
    for (std::size_t i = 0; i < sgd_lazy.velocities().size(); ++i) {
      EXPECT_TRUE(
          same_bits(sgd_lazy.velocities()[i], sgd_zero.velocities()[i]));
    }
  }
}

TEST(TrainingTest, SgdLearnsLinearRegression) {
  // y = 2x1 - x2 + 0.5, learnable exactly by one Dense layer.
  common::Pcg32 rng(2);
  Sequential model;
  model.emplace<Dense>(2, 1, rng);
  Sgd sgd(model.params(), 0.1f, 0.9f);
  MseLoss loss;

  const Tensor x = Tensor::randn({64, 2}, rng);
  Tensor y({64, 1});
  for (std::size_t i = 0; i < 64; ++i) {
    y.at(i, 0) = 2.0f * x.at(i, 0) - x.at(i, 1) + 0.5f;
  }

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 300; ++epoch) {
    const Tensor pred = model.forward(x, true);
    const float l = loss.value(pred, y);
    if (epoch == 0) first_loss = l;
    last_loss = l;
    sgd.zero_grad();
    (void)model.backward(loss.gradient(pred, y));
    sgd.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.01f);
  EXPECT_LT(last_loss, 1e-3f);
}

TEST(TrainingTest, AdamLearnsXor) {
  // XOR requires the hidden layer — checks backprop through nonlinearity.
  common::Pcg32 rng(3);
  Sequential model;
  model.emplace<Dense>(2, 8, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(8, 1, rng);
  model.emplace<Sigmoid>();
  Adam adam(model.params(), 0.05f);
  MseLoss loss;

  const Tensor x = Tensor::from2d({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const Tensor y = Tensor::from2d({{0}, {1}, {1}, {0}});
  for (int epoch = 0; epoch < 800; ++epoch) {
    const Tensor pred = model.forward(x, true);
    adam.zero_grad();
    (void)model.backward(loss.gradient(pred, y));
    adam.step();
  }
  const Tensor pred = model.forward(x, false);
  EXPECT_LT(pred.at(0, 0), 0.2f);
  EXPECT_GT(pred.at(1, 0), 0.8f);
  EXPECT_GT(pred.at(2, 0), 0.8f);
  EXPECT_LT(pred.at(3, 0), 0.2f);
}

}  // namespace
}  // namespace orco::nn
