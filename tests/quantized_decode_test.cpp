// Int8 uplink decode path: the quantize/dequantize _into overload pair,
// round-trip error bounds at batch-range extremes, the
// Backend::gemm_quantized helper against explicit dequantize-then-gemm on
// every backend, the InferPlan quantized entry point, an end-to-end
// decoder error bound propagated from quantization_error_bound, and the
// serving runtime's quantized submit path (payloads dequantized into their
// batch rows).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/quantization.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/sequential.h"
#include "serve/serve.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

#include "bf16_oracle.h"

namespace orco {
namespace {

using core::LatentPrecision;
using tensor::Tensor;

constexpr const char* kAllBackends[] = {"reference", "simd"};

TEST(QuantizeIntoTest, IntoOverloadsMatchVectorOverloadsExactly) {
  common::Pcg32 rng(51);
  const Tensor latents = Tensor::randn({3, 16}, rng);
  for (const auto precision :
       {LatentPrecision::kFloat32, LatentPrecision::kFixed16,
        LatentPrecision::kFixed8}) {
    const std::vector<std::uint8_t> expected =
        core::quantize_latents(latents, precision);
    std::vector<std::uint8_t> buf(expected.size() + 7, 0xAA);
    const std::size_t written = core::quantize_latents_into(
        latents, precision, buf.data(), buf.size());
    ASSERT_EQ(written, expected.size());
    for (std::size_t i = 0; i < written; ++i) {
      ASSERT_EQ(buf[i], expected[i]) << "payload byte " << i;
    }
    for (std::size_t i = written; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], 0xAA) << "overrun at byte " << i;
    }

    const Tensor round =
        core::dequantize_latents(expected, latents.shape(), precision);
    std::vector<float> into(latents.numel(), -777.0f);
    core::dequantize_latents_into(expected.data(), expected.size(), precision,
                                  into.data(), into.size());
    for (std::size_t i = 0; i < into.size(); ++i) {
      ASSERT_EQ(into[i], round[i]) << "dequant value " << i;
    }
  }
  // Undersized capacity is rejected, not silently truncated.
  std::vector<std::uint8_t> tiny(4);
  EXPECT_THROW(core::quantize_latents_into(latents, LatentPrecision::kFixed8,
                                           tiny.data(), tiny.size()),
               std::invalid_argument);
}

TEST(QuantizeIntoTest, RoundTripErrorBoundAtBatchRangeExtremes) {
  const auto check_round_trip = [](const Tensor& batch,
                                   LatentPrecision precision) {
    const std::vector<std::uint8_t> payload =
        core::quantize_latents(batch, precision);
    const Tensor round =
        core::dequantize_latents(payload, batch.shape(), precision);
    float lo = batch[0], hi = batch[0];
    for (std::size_t i = 0; i < batch.numel(); ++i) {
      lo = std::min(lo, batch[i]);
      hi = std::max(hi, batch[i]);
    }
    // Half a quantization step of the batch's value range, plus float
    // rounding headroom.
    const float bound =
        core::quantization_error_bound(precision) * (hi - lo) + 1e-6f;
    for (std::size_t i = 0; i < batch.numel(); ++i) {
      ASSERT_NEAR(round[i], batch[i], bound)
          << "element " << i << " precision " << static_cast<int>(precision);
    }
  };

  common::Pcg32 rng(52);
  for (const auto precision :
       {LatentPrecision::kFixed16, LatentPrecision::kFixed8}) {
    // Degenerate range: an all-equal batch has hi == lo, so every code
    // decodes back to exactly lo — the round trip must be lossless.
    Tensor flat({4, 8});
    flat.fill(0.73f);
    const std::vector<std::uint8_t> payload =
        core::quantize_latents(flat, precision);
    const Tensor round =
        core::dequantize_latents(payload, flat.shape(), precision);
    for (std::size_t i = 0; i < flat.numel(); ++i) {
      ASSERT_EQ(round[i], 0.73f) << "all-equal batch element " << i;
    }

    // Negative-only batch: the affine header must track the true [min, max]
    // rather than assuming the sigmoid's (0, 1).
    Tensor negative = Tensor::randn({4, 8}, rng);
    for (std::size_t i = 0; i < negative.numel(); ++i) {
      negative[i] = -1.0f - std::fabs(negative[i]);
    }
    check_round_trip(negative, precision);

    // Plain mixed-sign batch.
    check_round_trip(Tensor::randn({4, 8}, rng), precision);
  }
}

TEST(QuantizeIntoTest, DequantParamsAgreeWithDoubleMathWithinBound) {
  common::Pcg32 rng(53);
  const Tensor batch = Tensor::randn({1, 64}, rng);
  for (const auto precision :
       {LatentPrecision::kFixed16, LatentPrecision::kFixed8}) {
    const std::vector<std::uint8_t> payload =
        core::quantize_latents(batch, precision);
    const Tensor dbl =
        core::dequantize_latents(payload, batch.shape(), precision);
    float lo = 0.0f, step = 0.0f;
    core::quantized_dequant_params(payload.data(), precision, &lo, &step);
    const std::size_t header = core::quantization_header_bytes(precision);
    float range = 0.0f;
    for (std::size_t i = 0; i < batch.numel(); ++i) {
      for (std::size_t j = 0; j < batch.numel(); ++j) {
        range = std::max(range, std::fabs(batch[i] - batch[j]));
      }
    }
    for (std::size_t i = 0; i < batch.numel(); ++i) {
      std::uint32_t code = payload[header + i * core::bytes_per_value(
                                                    precision)];
      if (precision == LatentPrecision::kFixed16) {
        code |= static_cast<std::uint32_t>(
                    payload[header + i * 2 + 1])
                << 8;
      }
      const float fused = lo + static_cast<float>(code) * step;
      // The fused float expression and the double-math dequantize differ
      // by at most ~1 ulp of the value range.
      ASSERT_NEAR(fused, dbl[i], 1e-5f * std::max(1.0f, range))
          << "code " << i;
    }
  }
  // kFloat32 payloads carry no affine header to read.
  float flo = 0.0f;
  float fstep = 0.0f;
  EXPECT_THROW(core::quantized_dequant_params(
                   nullptr, LatentPrecision::kFloat32, &flo, &fstep),
               std::invalid_argument);
}

TEST(GemmQuantizedTest, MatchesExplicitDequantThenPrepackedBitwise) {
  // The gemm_quantized helper on every backend: bitwise identical to
  // dequantizing the codes with x = lo + q*scale (single-float math) and
  // running gemm_prepacked on the float batch. Ragged m/k/n included.
  common::Pcg32 rng(54);
  struct Dims {
    std::size_t m, k, n;
  };
  const Dims dims[] = {{1, 16, 8}, {7, 128, 784}, {9, 33, 31}, {4, 256, 64}};
  for (const auto& d : dims) {
    std::vector<std::uint8_t> codes(d.m * d.k);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xFF);
    }
    std::vector<float> lo(d.m), scale(d.m);
    for (std::size_t i = 0; i < d.m; ++i) {
      lo[i] = -1.0f + 0.05f * static_cast<float>(i);
      scale[i] = (2.0f + 0.1f * static_cast<float>(i)) / 255.0f;
    }
    const tensor::QuantHeader qh{lo.data(), scale.data()};
    const Tensor w = Tensor::randn({d.n, d.k}, rng);  // dense (out, in)
    const Tensor bias = Tensor::randn({d.n}, rng);
    Tensor dequant({d.m, d.k});
    for (std::size_t i = 0; i < d.m; ++i) {
      for (std::size_t p = 0; p < d.k; ++p) {
        // The helper's TU is built with -ffp-contract=off; the volatile
        // keeps an FMA-enabled build of this TU from fusing the multiply
        // and the add either.
        const volatile float product =
            static_cast<float>(codes[i * d.k + p]) * scale[i];
        dequant.at(i, p) = lo[i] + product;
      }
    }
    for (const char* name : kAllBackends) {
      const tensor::Backend* backend = tensor::find_backend(name);
      const tensor::PackedWeights packed =
          backend->pack_b(w.data().data(), d.k, d.n, /*transpose_b=*/true);
      tensor::Epilogue epi;
      epi.bias = bias.data().data();
      epi.act = tensor::EpilogueAct::kSigmoid;
      Tensor from_codes({d.m, d.n}), from_floats({d.m, d.n});
      backend->gemm_quantized(codes.data(), qh, packed,
                              from_codes.data().data(), d.m, d.k, d.n, epi);
      backend->gemm_prepacked(dequant.data().data(), packed,
                              from_floats.data().data(), d.m, d.k, d.n, epi);
      for (std::size_t i = 0; i < from_codes.numel(); ++i) {
        ASSERT_EQ(from_codes[i], from_floats[i])
            << name << " element " << i << " at " << d.m << "x" << d.k << "x"
            << d.n;
      }
    }
  }
}

TEST(QuantizedInferTest, PlanQuantizedEntryMatchesDequantizedForward) {
  common::Pcg32 rng(55);
  std::vector<std::uint8_t> codes(5 * 16);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint8_t>((i * 71 + 3) & 0xFF);
  }
  std::vector<float> lo(5), scale(5);
  for (std::size_t i = 0; i < 5; ++i) {
    lo[i] = -0.5f + 0.2f * static_cast<float>(i);
    scale[i] = (1.0f + 0.3f * static_cast<float>(i)) / 255.0f;
  }
  const tensor::QuantHeader qh{lo.data(), scale.data()};
  Tensor dequant({5, 16});
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      dequant.at(i, j) =
          lo[i] + static_cast<float>(codes[i * 16 + j]) * scale[i];
    }
  }

  // Dense head: the plan must equal the float forward on the dequantized
  // batch bitwise — of the copy with bf16-rounded Dense weights, which the
  // plan's panels hold. A plan compiled for another backend runs the
  // unpacked f32 weights on this one and must produce the model's own
  // forward bits.
  {
    nn::Sequential model;
    model.emplace<nn::Dense>(16, 48, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Dense>(48, 32, rng);
    model.emplace<nn::Sigmoid>();
    const auto rounded = testutil::bf16_copy(model, [] {
      common::Pcg32 any(0);
      auto copy = std::make_unique<nn::Sequential>();
      copy->emplace<nn::Dense>(16, 48, any);
      copy->emplace<nn::ReLU>();
      copy->emplace<nn::Dense>(48, 32, any);
      copy->emplace<nn::Sigmoid>();
      return copy;
    });
    for (const char* name : kAllBackends) {
      const tensor::Backend* backend = tensor::find_backend(name);
      tensor::BackendScope scope(backend);
      const Tensor packed_expected =
          rounded->forward(dequant, /*training=*/false);
      const Tensor foreign_expected =
          model.forward(dequant, /*training=*/false);
      for (const char* compile_name : kAllBackends) {
        const Tensor& expected = std::string(compile_name) == name
                                     ? packed_expected
                                     : foreign_expected;
        const auto plan =
            nn::InferPlan::compile(model, tensor::find_backend(compile_name));
        nn::InferContext ctx;
        Tensor out;
        plan->run_quantized(codes.data(), qh, 5, 16, out, ctx);
        ASSERT_EQ(out.shape(), expected.shape());
        for (std::size_t i = 0; i < out.numel(); ++i) {
          ASSERT_EQ(out[i], expected[i])
              << name << " (plan for " << compile_name << ") element " << i;
        }
      }
    }
  }

  // Non-Dense head: the same equality holds.
  {
    nn::Sequential model;
    model.emplace<nn::ReLU>();
    model.emplace<nn::Dense>(16, 24, rng);
    model.emplace<nn::Sigmoid>();
    const auto rounded = testutil::bf16_copy(model, [] {
      common::Pcg32 any(0);
      auto copy = std::make_unique<nn::Sequential>();
      copy->emplace<nn::ReLU>();
      copy->emplace<nn::Dense>(16, 24, any);
      copy->emplace<nn::Sigmoid>();
      return copy;
    });
    nn::InferContext ctx;
    Tensor out;
    nn::InferPlan::compile(model)->run_quantized(codes.data(), qh, 5, 16, out,
                                                 ctx);
    const Tensor expected = rounded->forward(dequant, /*training=*/false);
    ASSERT_EQ(out.shape(), expected.shape());
    for (std::size_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], expected[i]) << "non-dense head element " << i;
    }
  }

  // All-identity chain: the pass is exactly the dequantization.
  {
    nn::Sequential model;
    model.emplace<nn::Identity>();
    nn::InferContext ctx;
    Tensor out;
    nn::InferPlan::compile(model)->run_quantized(codes.data(), qh, 5, 16, out,
                                                 ctx);
    ASSERT_EQ(out.shape(), dequant.shape());
    for (std::size_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], dequant[i]) << "identity chain element " << i;
    }
  }
}

TEST(QuantizedInferTest, EndToEndDecodeErrorWithinPropagatedBound) {
  // Decode a per-row-quantized batch through a Dense+Sigmoid decoder and
  // check the output error against decoding the original floats, bounded
  // by quantization_error_bound propagated through the layer: input error
  // <= bound * row range, amplified by at most the max weight-row L1 norm,
  // contracted by the sigmoid's 1/4 Lipschitz constant.
  common::Pcg32 rng(56);
  nn::Sequential model;
  auto& dense = model.emplace<nn::Dense>(16, 64, rng);
  model.emplace<nn::Sigmoid>();

  const Tensor latents = Tensor::randn({6, 16}, rng);
  std::vector<std::uint8_t> codes(6 * 16);
  std::vector<float> lo(6), scale(6);
  std::vector<float> row_range(6);
  std::vector<std::uint8_t> payload(
      core::quantized_payload_bytes(16, LatentPrecision::kFixed8));
  const std::size_t header =
      core::quantization_header_bytes(LatentPrecision::kFixed8);
  for (std::size_t r = 0; r < 6; ++r) {
    const Tensor row = latents.row_copy(r);
    core::quantize_latents_into(row, LatentPrecision::kFixed8, payload.data(),
                                payload.size());
    std::copy(payload.begin() + header, payload.end(), codes.begin() + r * 16);
    core::quantized_dequant_params(payload.data(), LatentPrecision::kFixed8,
                                   &lo[r], &scale[r]);
    float rlo = row[0], rhi = row[0];
    for (std::size_t j = 0; j < row.numel(); ++j) {
      rlo = std::min(rlo, row[j]);
      rhi = std::max(rhi, row[j]);
    }
    row_range[r] = rhi - rlo;
  }

  float max_row_l1 = 0.0f;
  const Tensor& w = dense.weight();  // (out, in)
  for (std::size_t o = 0; o < w.dim(0); ++o) {
    float l1 = 0.0f;
    for (std::size_t in = 0; in < w.dim(1); ++in) {
      l1 += std::fabs(w.at(o, in));
    }
    max_row_l1 = std::max(max_row_l1, l1);
  }

  const tensor::QuantHeader qh{lo.data(), scale.data()};
  nn::InferContext ctx;
  Tensor from_codes;
  nn::InferPlan::compile(model)->run_quantized(codes.data(), qh, 6, 16,
                                               from_codes, ctx);
  const Tensor from_floats = model.forward(latents, /*training=*/false);
  ASSERT_EQ(from_codes.shape(), from_floats.shape());
  const float per_unit =
      core::quantization_error_bound(LatentPrecision::kFixed8);
  for (std::size_t r = 0; r < 6; ++r) {
    // Sigmoid Lipschitz constant 1/4; small slack for float rounding.
    const float bound =
        0.25f * max_row_l1 * (per_unit * row_range[r] + 1e-5f) + 1e-5f;
    for (std::size_t j = 0; j < from_codes.dim(1); ++j) {
      ASSERT_NEAR(from_codes.at(r, j), from_floats.at(r, j), bound)
          << "row " << r << " col " << j;
    }
  }
}

// ---- serving runtime quantized submit ---------------------------------------

core::SystemConfig tenant_config() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = 64;
  cfg.orco.latent_dim = 16;
  cfg.orco.decoder_layers = 2;
  cfg.orco.seed = 42;
  cfg.field.device_count = 8;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

TEST(ServeQuantizedTest, MixedPrecisionBatchDecodesEachRowAsItsOwnFloats) {
  // One batch through the shard's single assembly loop: a float latent, a
  // kFixed8 and a kFixed16 payload share the decode, each payload
  // dequantized into its own row. Every row must decode bitwise as its own
  // floats decode alone; a truncated payload is refused without touching
  // its neighbours.
  serve::ServeConfig cfg;
  cfg.shard_count = 1;
  serve::ServerRuntime runtime(cfg);
  const auto tenant = std::make_shared<core::OrcoDcsSystem>(tenant_config());
  runtime.register_cluster(5, tenant);

  common::Pcg32 rng(57);
  std::vector<serve::PendingRequest> batch;
  std::vector<Tensor> own_floats;  // each well-formed row's float input
  const auto add = [&](serve::DecodeRequest request) {
    request.cluster = 5;
    request.id = batch.size() + 1;
    batch.emplace_back(std::move(request),
                       std::promise<serve::DecodeResponse>());
  };
  const auto quantized = [&](LatentPrecision precision) {
    serve::DecodeRequest request;
    request.payload =
        core::quantize_latents(Tensor::randn({16}, rng), precision);
    request.precision = precision;
    request.quantized = true;
    return request;
  };
  {
    serve::DecodeRequest request;
    request.latent = Tensor::randn({16}, rng);
    own_floats.push_back(request.latent.reshaped({1, 16}));
    add(std::move(request));
  }
  for (const auto precision :
       {LatentPrecision::kFixed8, LatentPrecision::kFixed16}) {
    serve::DecodeRequest request = quantized(precision);
    own_floats.push_back(
        core::dequantize_latents(request.payload, {1, 16}, precision));
    add(std::move(request));
  }
  serve::DecodeRequest truncated = quantized(LatentPrecision::kFixed8);
  truncated.payload.pop_back();
  add(std::move(truncated));

  std::vector<std::future<serve::DecodeResponse>> futures;
  for (auto& pending : batch) futures.push_back(pending.promise.get_future());
  runtime.shard(0).serve_batch(std::move(batch));

  for (std::size_t i = 0; i < own_floats.size(); ++i) {
    serve::DecodeResponse response = futures[i].get();
    ASSERT_EQ(response.status, serve::ResponseStatus::kOk) << response.detail;
    EXPECT_EQ(response.batch_size, 3u);
    const Tensor expected = tenant->edge().decode_inference(own_floats[i]);
    ASSERT_EQ(response.reconstruction.numel(), expected.numel());
    for (std::size_t j = 0; j < expected.numel(); ++j) {
      ASSERT_EQ(response.reconstruction[j], expected[j])
          << "row " << i << " col " << j;
    }
  }
  EXPECT_EQ(futures.back().get().status, serve::ResponseStatus::kBadRequest);
}

TEST(ServeQuantizedTest, RowWiseFallbackServesQuantizedPayloads) {
  // Quantized payloads are decoded by row-wise dequantize_latents_into —
  // identical to submitting the double-math dequantized floats. kFixed16
  // exercises the non-int8 wire precision through the same path.
  serve::ServeConfig cfg;
  cfg.shard_count = 1;
  serve::ServerRuntime runtime(cfg);
  const auto tenant = std::make_shared<core::OrcoDcsSystem>(tenant_config());
  runtime.register_cluster(3, tenant);
  runtime.start();

  common::Pcg32 rng(58);
  for (const auto precision :
       {LatentPrecision::kFixed8, LatentPrecision::kFixed16}) {
    const Tensor latent = Tensor::randn({16}, rng);
    const std::vector<std::uint8_t> payload =
        core::quantize_latents(latent, precision);
    serve::DecodeResponse response =
        runtime.submit(3, payload, precision).get();
    ASSERT_EQ(response.status, serve::ResponseStatus::kOk) << response.detail;
    const Tensor dequant =
        core::dequantize_latents(payload, {1, 16}, precision);
    const Tensor expected = tenant->edge().decode_inference(dequant);
    for (std::size_t j = 0; j < 64; ++j) {
      ASSERT_EQ(response.reconstruction[j], expected[j])
          << static_cast<int>(precision) << " col " << j;
    }
  }
  runtime.shutdown();
}

TEST(ServeQuantizedTest, MalformedQuantizedPayloadIsBadRequest) {
  serve::ServeConfig cfg;
  cfg.shard_count = 1;
  serve::ServerRuntime runtime(cfg);
  runtime.register_cluster(
      9, std::make_shared<core::OrcoDcsSystem>(tenant_config()));
  runtime.start();
  // 3 bytes short of quantized_payload_bytes(16, kFixed8).
  std::vector<std::uint8_t> bad(
      core::quantized_payload_bytes(16, LatentPrecision::kFixed8) - 3);
  serve::DecodeResponse response =
      runtime.submit(9, bad, LatentPrecision::kFixed8).get();
  EXPECT_EQ(response.status, serve::ResponseStatus::kBadRequest);
  runtime.shutdown();
}

}  // namespace
}  // namespace orco
