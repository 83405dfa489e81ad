// Cross-cutting property tests: algebraic laws the kernels must satisfy for
// every shape/seed (parameterised sweeps), plus weight round-trips through
// the persisted format (nn::save_params blobs).
#include <gtest/gtest.h>

#include "core/orcodcs.h"
#include "data/synthetic_mnist.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/model_io.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "wsn/radio.h"

namespace orco {
namespace {

using tensor::Tensor;

// ---- tensor algebra laws over a shape sweep --------------------------------

class TensorLawSuite
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TensorLawSuite, AdditionCommutesAndAssociates) {
  const auto [rows, cols] = GetParam();
  common::Pcg32 rng(rows * 131 + cols);
  const Tensor a = Tensor::randn({rows, cols}, rng);
  const Tensor b = Tensor::randn({rows, cols}, rng);
  const Tensor c = Tensor::randn({rows, cols}, rng);
  EXPECT_TRUE((a + b).allclose(b + a, 1e-6f));
  EXPECT_TRUE(((a + b) + c).allclose(a + (b + c), 1e-5f));
}

TEST_P(TensorLawSuite, HadamardDistributesOverAddition) {
  const auto [rows, cols] = GetParam();
  common::Pcg32 rng(rows * 17 + cols);
  const Tensor a = Tensor::randn({rows, cols}, rng);
  const Tensor b = Tensor::randn({rows, cols}, rng);
  const Tensor c = Tensor::randn({rows, cols}, rng);
  EXPECT_TRUE((a * (b + c)).allclose(a * b + a * c, 1e-4f));
}

TEST_P(TensorLawSuite, TransposeIsInvolution) {
  const auto [rows, cols] = GetParam();
  common::Pcg32 rng(rows * 31 + cols);
  const Tensor a = Tensor::randn({rows, cols}, rng);
  EXPECT_TRUE(a.transposed().transposed().allclose(a, 0.0f));
}

TEST_P(TensorLawSuite, MatmulRespectsIdentity) {
  const auto [rows, cols] = GetParam();
  common::Pcg32 rng(rows * 53 + cols);
  const Tensor a = Tensor::randn({rows, cols}, rng);
  Tensor eye({cols, cols});
  for (std::size_t i = 0; i < cols; ++i) eye.at(i, i) = 1.0f;
  EXPECT_TRUE(tensor::matmul(a, eye).allclose(a, 1e-5f));
}

TEST_P(TensorLawSuite, MatmulTransposeLaw) {
  // (A B)^T == B^T A^T
  const auto [rows, cols] = GetParam();
  common::Pcg32 rng(rows * 71 + cols);
  const Tensor a = Tensor::randn({rows, cols}, rng);
  const Tensor b = Tensor::randn({cols, rows}, rng);
  const Tensor lhs = tensor::matmul(a, b).transposed();
  const Tensor rhs = tensor::matmul(b.transposed(), a.transposed());
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorLawSuite,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(3, 5),
                      std::make_pair(8, 8), std::make_pair(16, 4),
                      std::make_pair(5, 32), std::make_pair(64, 17)),
    [](const auto& info) {
      return "r" + std::to_string(info.param.first) + "c" +
             std::to_string(info.param.second);
    });

// ---- layer linearity laws ----------------------------------------------------

TEST(LayerLawTest, DenseIsAffine) {
  // f(ax + by) = a f(x) + b f(y) - (a + b - 1) bias-term; with zero bias the
  // layer must be exactly linear.
  common::Pcg32 rng(1);
  nn::Dense dense(6, 4, rng);
  dense.bias().fill(0.0f);
  const Tensor x = Tensor::randn({2, 6}, rng);
  const Tensor y = Tensor::randn({2, 6}, rng);
  const Tensor lhs = dense.forward(x * 2.0f + y * 3.0f, false);
  const Tensor rhs =
      dense.forward(x, false) * 2.0f + dense.forward(y, false) * 3.0f;
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4f));
}

TEST(LayerLawTest, ConvIsLinearWithZeroBias) {
  common::Pcg32 rng(2);
  nn::Conv2d conv(2, 3, 3, 1, 1, 6, 6, rng);
  conv.params()[1].value->fill(0.0f);
  const Tensor x = Tensor::randn({1, 2 * 36}, rng);
  const Tensor y = Tensor::randn({1, 2 * 36}, rng);
  const Tensor lhs = conv.forward(x + y, false);
  const Tensor rhs = conv.forward(x, false) + conv.forward(y, false);
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4f));
}

TEST(LayerLawTest, ConvTranslationCovariance) {
  // Shifting the input by one pixel shifts the (interior of the) output by
  // one pixel for a stride-1 same-padded conv.
  common::Pcg32 rng(3);
  nn::Conv2d conv(1, 1, 3, 1, 1, 8, 8, rng);
  conv.params()[1].value->fill(0.0f);
  Tensor x({1, 64});
  x[3 * 8 + 3] = 1.0f;  // impulse at (3,3)
  Tensor x_shift({1, 64});
  x_shift[3 * 8 + 4] = 1.0f;  // impulse at (3,4)
  const Tensor y = conv.forward(x, false);
  const Tensor y_shift = conv.forward(x_shift, false);
  // Compare interior responses shifted by one column.
  for (std::size_t r = 1; r < 7; ++r) {
    for (std::size_t c = 1; c < 6; ++c) {
      EXPECT_NEAR(y[r * 8 + c], y_shift[r * 8 + c + 1], 1e-5f);
    }
  }
}

// ---- radio model laws ---------------------------------------------------------

TEST(RadioLawTest, EnergyContinuousAtCrossover) {
  wsn::RadioModel radio;
  const double d0 = radio.crossover_distance();
  const double below = radio.tx_energy(100, d0 * (1 - 1e-9));
  const double above = radio.tx_energy(100, d0 * (1 + 1e-9));
  EXPECT_NEAR(below, above, below * 1e-6);
}

TEST(RadioLawTest, EnergyAdditiveInPayloadWithinPacket) {
  wsn::RadioModel radio;
  // Within one packet (no extra header), energy is linear in bits.
  const double e40 = radio.tx_energy(40, 20.0);
  const double e80 = radio.tx_energy(80, 20.0);
  const double header =
      radio.tx_energy(0, 20.0);  // zero payload -> zero packets -> 0
  EXPECT_DOUBLE_EQ(header, 0.0);
  // e80 - e40 == energy of 40 payload bytes without another header.
  const double per_byte =
      (e80 - e40) / 40.0;
  EXPECT_GT(per_byte, 0.0);
}

// ---- message fuzz round-trips -------------------------------------------------

class MessageFuzzSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzzSuite, RandomTensorsSurviveRoundTrip) {
  common::Pcg32 rng(GetParam());
  const std::size_t rows = 1 + rng.bounded(16);
  const std::size_t cols = 1 + rng.bounded(256);
  core::LatentBatchMsg msg{rng.next(), Tensor::randn({rows, cols}, rng)};
  const auto back = core::LatentBatchMsg::deserialize(msg.serialize());
  EXPECT_EQ(back.round, msg.round);
  EXPECT_TRUE(back.latents.allclose(msg.latents, 0.0f));

  core::LatentGradMsg grad{rng.next(), rng.uniform(0.0f, 10.0f),
                           Tensor::randn({rows, cols}, rng)};
  const auto grad_back = core::LatentGradMsg::deserialize(grad.serialize());
  EXPECT_FLOAT_EQ(grad_back.loss, grad.loss);
  EXPECT_TRUE(grad_back.latent_grad.allclose(grad.latent_grad, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzSuite,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- checkpointing -------------------------------------------------------------

/// A system's weights in the one persisted format, a save_params blob per
/// model: what a fleet cold record carries.
struct SavedWeights {
  std::vector<std::byte> encoder, decoder;
};

SavedWeights save_weights(core::OrcoDcsSystem& sys) {
  return {nn::save_params(sys.aggregator().encoder()),
          nn::save_params(sys.edge().decoder())};
}

void load_weights(core::OrcoDcsSystem& sys, const SavedWeights& saved) {
  nn::load_params(sys.aggregator().encoder(), saved.encoder);
  nn::load_params(sys.edge().decoder(), saved.decoder);
}

core::SystemConfig checkpoint_config() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 32;
  cfg.orco.batch_size = 32;
  cfg.field.device_count = 8;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

TEST(CheckpointTest, RoundTripRestoresReconstructions) {
  data::MnistConfig mc;
  mc.count = 128;
  const auto train = data::make_synthetic_mnist(mc);

  core::OrcoDcsSystem trained(checkpoint_config());
  (void)trained.train_online(train, 2);
  const SavedWeights saved = save_weights(trained);

  core::OrcoDcsSystem fresh(checkpoint_config());
  const auto before = fresh.reconstruct(train.images().slice_rows(0, 4));
  load_weights(fresh, saved);
  const auto after = fresh.reconstruct(train.images().slice_rows(0, 4));
  const auto reference = trained.reconstruct(train.images().slice_rows(0, 4));
  EXPECT_FALSE(before.allclose(reference, 1e-5f));
  EXPECT_TRUE(after.allclose(reference, 0.0f));
}

TEST(CheckpointTest, MismatchedConfigurationRejected) {
  core::OrcoDcsSystem sys(checkpoint_config());
  const SavedWeights saved = save_weights(sys);

  // Another latent width gives the encoder's weight another shape.
  auto other_cfg = checkpoint_config();
  other_cfg.orco.latent_dim = 64;
  core::OrcoDcsSystem other(other_cfg);
  EXPECT_THROW(load_weights(other, saved), std::invalid_argument);
}

TEST(CheckpointTest, TrainingCanResumeFromCheckpoint) {
  data::MnistConfig mc;
  mc.count = 128;
  const auto train = data::make_synthetic_mnist(mc);

  core::OrcoDcsSystem sys(checkpoint_config());
  (void)sys.train_online(train, 2);
  const float loss_before = sys.evaluate_loss(train);
  const SavedWeights saved = save_weights(sys);

  core::OrcoDcsSystem resumed(checkpoint_config());
  load_weights(resumed, saved);
  EXPECT_NEAR(resumed.evaluate_loss(train), loss_before, 1e-5f);
  (void)resumed.train_online(train, 2);
  EXPECT_LT(resumed.evaluate_loss(train), loss_before);
}

// ---- deep-tree distributed encoding (chain topology) ---------------------------

TEST(ChainTopologyTest, DistributedEncodeMatchesOnDeepTree) {
  // 30-node chain: maximally deep tree, worst case for partial-sum flow.
  std::vector<wsn::Position> positions;
  for (int i = 0; i <= 30; ++i) {
    positions.push_back(wsn::Position{10.0 * i, 0.0});
  }
  const wsn::Field field(std::move(positions), 0, 15.0);
  const wsn::AggregationTree tree(field, wsn::RadioModel{});
  EXPECT_EQ(tree.max_depth(), 30u);

  core::OrcoConfig cfg;
  cfg.input_dim = 30;
  cfg.latent_dim = 7;
  common::Pcg32 rng(9);
  const auto encoder = core::build_encoder(cfg, rng);
  const core::DistributedEncoder dist(tree,
                                      core::make_encoder_shares(*encoder, 30));
  const Tensor readings = Tensor::uniform({30}, rng);
  const Tensor distributed = dist.encode(readings);
  const Tensor central =
      encoder->forward(readings.reshaped({1, 30}), false).reshaped({7});
  EXPECT_TRUE(distributed.allclose(central, 1e-4f));
}

}  // namespace
}  // namespace orco
