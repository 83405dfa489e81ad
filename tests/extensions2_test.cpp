// Tests for the latent-quantisation extension.
#include <gtest/gtest.h>

#include <cmath>

#include "core/quantization.h"

namespace orco {
namespace {

using tensor::Tensor;

// ---- quantization ---------------------------------------------------------------

TEST(QuantizationTest, BytesPerValue) {
  EXPECT_EQ(core::bytes_per_value(core::LatentPrecision::kFloat32), 4u);
  EXPECT_EQ(core::bytes_per_value(core::LatentPrecision::kFixed16), 2u);
  EXPECT_EQ(core::bytes_per_value(core::LatentPrecision::kFixed8), 1u);
}

TEST(QuantizationTest, Float32IsLossless) {
  common::Pcg32 rng(1);
  const Tensor latents = Tensor::uniform({4, 16}, rng);
  const auto bytes =
      core::quantize_latents(latents, core::LatentPrecision::kFloat32);
  EXPECT_EQ(bytes.size(), latents.numel() * 4);
  const Tensor back = core::dequantize_latents(
      bytes, latents.shape(), core::LatentPrecision::kFloat32);
  EXPECT_TRUE(back.allclose(latents, 0.0f));
}

class FixedPointSuite
    : public ::testing::TestWithParam<core::LatentPrecision> {};

TEST_P(FixedPointSuite, RoundTripWithinErrorBound) {
  const auto precision = GetParam();
  common::Pcg32 rng(2);
  const Tensor latents = Tensor::uniform({8, 32}, rng);
  const auto bytes = core::quantize_latents(latents, precision);
  EXPECT_EQ(bytes.size(),
            core::quantized_payload_bytes(latents.numel(), precision));
  const Tensor back =
      core::dequantize_latents(bytes, latents.shape(), precision);
  // In-[0,1) data: range < 1, so the per-unit-range bound is also the
  // absolute bound, as before the affine header existed.
  const float bound = core::quantization_error_bound(precision);
  EXPECT_LE((back - latents).abs_max(), bound + 1e-7f);
}

TEST_P(FixedPointSuite, AffineHeaderRoundTripsArbitraryRangeLatents) {
  // Pre-affine payloads clamped everything to [0, 1], so negative or large
  // latents came back wrong by far more than the documented bound. The
  // per-batch [min, max] header must round-trip them within
  // bound x (max - min).
  const auto precision = GetParam();
  const Tensor latents =
      Tensor::from({-53.5f, -0.5f, 0.0f, 0.25f, 1.0f, 2.0f, 977.25f});
  const auto bytes = core::quantize_latents(latents, precision);
  const Tensor back =
      core::dequantize_latents(bytes, latents.shape(), precision);
  const float range = 977.25f - (-53.5f);
  const float bound = core::quantization_error_bound(precision) * range;
  for (std::size_t i = 0; i < latents.numel(); ++i) {
    EXPECT_NEAR(back[i], latents[i], bound + 1e-3f) << "element " << i;
  }
  // The extremes are exact code points (0 and the max code).
  EXPECT_FLOAT_EQ(back[0], -53.5f);
  EXPECT_FLOAT_EQ(back[6], 977.25f);
}

TEST_P(FixedPointSuite, ConstantBatchRoundTripsExactly) {
  const auto precision = GetParam();
  const Tensor latents = Tensor::from({3.25f, 3.25f, 3.25f});
  const auto bytes = core::quantize_latents(latents, precision);
  const Tensor back =
      core::dequantize_latents(bytes, latents.shape(), precision);
  for (std::size_t i = 0; i < latents.numel(); ++i) {
    EXPECT_FLOAT_EQ(back[i], 3.25f);
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, FixedPointSuite,
                         ::testing::Values(core::LatentPrecision::kFixed16,
                                           core::LatentPrecision::kFixed8),
                         [](const auto& info) {
                           return info.param ==
                                          core::LatentPrecision::kFixed16
                                      ? "fixed16"
                                      : "fixed8";
                         });

TEST(QuantizationTest, SizeMismatchThrows) {
  const std::vector<std::uint8_t> bytes(7);
  EXPECT_THROW((void)core::dequantize_latents(
                   bytes, {4}, core::LatentPrecision::kFixed16),
               std::invalid_argument);
}

TEST(QuantizationTest, Fixed8CutsUplinkBytes4x) {
  common::Pcg32 rng(3);
  const Tensor latents = Tensor::uniform({64, 128}, rng);
  const auto full =
      core::quantize_latents(latents, core::LatentPrecision::kFloat32);
  const auto small =
      core::quantize_latents(latents, core::LatentPrecision::kFixed8);
  // 4x per value; the fixed payload additionally carries the 8-byte
  // per-batch affine header.
  EXPECT_EQ(full.size(),
            (small.size() -
             core::quantization_header_bytes(core::LatentPrecision::kFixed8)) *
                4);
}

}  // namespace
}  // namespace orco
