// Weight serialisation round-trip and mismatch handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model_io.h"
#include "nn/sequential.h"

namespace orco::nn {
namespace {

using tensor::Tensor;

std::unique_ptr<Sequential> make_model(std::uint64_t seed) {
  common::Pcg32 rng(seed);
  auto model = std::make_unique<Sequential>();
  model->emplace<Dense>(6, 4, rng);
  model->emplace<ReLU>();
  model->emplace<Dense>(4, 6, rng);
  model->emplace<Sigmoid>();
  return model;
}

TEST(ModelIoTest, SaveLoadRoundTripRestoresOutputs) {
  auto a = make_model(1);
  auto b = make_model(2);  // different weights
  common::Pcg32 rng(3);
  const Tensor x = Tensor::randn({5, 6}, rng);
  const Tensor before = a->forward(x, false);
  EXPECT_FALSE(b->forward(x, false).allclose(before, 1e-5f));

  const auto bytes = save_params(*a);
  load_params(*b, bytes);
  EXPECT_TRUE(b->forward(x, false).allclose(before, 0.0f));
}

TEST(ModelIoTest, ArchitectureMismatchThrows) {
  auto a = make_model(7);
  common::Pcg32 rng(8);
  Sequential different;
  different.emplace<Dense>(6, 5, rng);  // wrong shape
  const auto bytes = save_params(*a);
  EXPECT_THROW(load_params(different, bytes), std::invalid_argument);
}

TEST(ModelIoTest, ParamCountMismatchThrows) {
  auto a = make_model(9);
  common::Pcg32 rng(10);
  Sequential shorter;
  shorter.emplace<Dense>(6, 4, rng);
  const auto bytes = save_params(*a);
  EXPECT_THROW(load_params(shorter, bytes), std::invalid_argument);
}

TEST(ModelIoTest, CorruptMagicThrows) {
  auto a = make_model(11);
  auto bytes = save_params(*a);
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(load_params(*a, bytes), std::invalid_argument);
}

TEST(ModelIoTest, HostileRankIsRefusedBeforeSizingTheShape) {
  // The first param's stored rank follows the magic, the param count and
  // the param's length-prefixed name.
  auto a = make_model(13);
  auto bytes = save_params(*a);
  const std::size_t rank_at = 4 + 8 + 8 + a->params().front().name.size();
  std::uint64_t rank = 0;
  std::memcpy(&rank, bytes.data() + rank_at, sizeof rank);
  ASSERT_EQ(rank, 2u);
  rank = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + rank_at, &rank, sizeof rank);
  EXPECT_THROW(load_params(*a, bytes), std::invalid_argument);
}

TEST(ModelIoTest, TrailingByteIsRefusedBeforeAnyValueIsWritten) {
  auto a = make_model(14);
  auto b = make_model(15);
  auto bytes = save_params(*a);
  bytes.push_back(std::byte{0});
  const auto before = save_params(*b);
  EXPECT_THROW(load_params(*b, bytes), std::invalid_argument);
  EXPECT_EQ(save_params(*b), before) << "a refused blob changed the model";
}

TEST(ModelIoTest, SerialisedSizeTracksParameterCount) {
  auto a = make_model(12);
  const auto bytes = save_params(*a);
  // At least 4 bytes per parameter scalar.
  EXPECT_GT(bytes.size(), a->parameter_count() * sizeof(float));
}

}  // namespace
}  // namespace orco::nn
