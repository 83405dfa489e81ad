// Numerical gradient checks for every trainable and routing layer.
//
// Each case builds a layer, runs the central-difference harness from
// gradcheck.h on random inputs, and asserts both parameter and input
// gradients match the analytic backward pass. This is the correctness
// anchor for the whole training stack.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/matmul.h"

#include "gradcheck.h"

namespace orco::nn {
namespace {

struct GradCase {
  std::string name;
  std::function<LayerPtr(common::Pcg32&)> make;
  tensor::Shape input_shape;
  // Composite float32 chains accumulate finite-difference noise on tiny
  // gradients, so they get a looser bound than single layers.
  float tolerance = 3e-2f;
  // Max pooling needs well-separated inputs: with N(0,1) values two window
  // entries can sit within eps of each other and the probe then flips the
  // winner, which is a property of the test, not a backward bug.
  bool separated_input = false;
};

void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

// Deterministic input whose values are spaced at least 0.15 apart.
tensor::Tensor separated_values(const tensor::Shape& shape,
                                common::Pcg32& rng) {
  const std::size_t n = tensor::shape_numel(shape);
  auto order = common::shuffled_indices(n, rng);
  tensor::Tensor out(shape);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 0.15f * static_cast<float>(order[i]) -
             0.075f * static_cast<float>(n);
  }
  return out;
}

class GradCheckSuite : public ::testing::TestWithParam<GradCase> {
 protected:
  void SetUp() override {
    // Serial GEMM keeps the finite-difference probes bit-stable.
    tensor::set_thread_gemm_parallelism(false);
  }
  void TearDown() override { tensor::set_thread_gemm_parallelism(true); }
};

TEST_P(GradCheckSuite, AnalyticMatchesNumeric) {
  const auto& param = GetParam();
  common::Pcg32 rng(0xabcdef);
  const auto layer = param.make(rng);
  const auto report =
      param.separated_input
          ? testutil::gradcheck_layer_with_input(
                *layer, separated_values(param.input_shape, rng), rng, 1e-2f,
                param.tolerance)
          : testutil::gradcheck_layer(*layer, param.input_shape, rng, 1e-2f,
                                      param.tolerance);
  EXPECT_TRUE(report.ok) << param.name << ": param rel err "
                         << report.max_param_rel_error << ", input rel err "
                         << report.max_input_rel_error;
}

std::vector<GradCase> all_cases() {
  std::vector<GradCase> cases;
  cases.push_back({"Dense_small",
                   [](common::Pcg32& rng) {
                     return std::make_unique<Dense>(5, 7, rng);
                   },
                   {3, 5}});
  cases.push_back({"Dense_wide",
                   [](common::Pcg32& rng) {
                     return std::make_unique<Dense>(12, 3, rng);
                   },
                   {2, 12}});
  cases.push_back({"Conv2d_basic",
                   [](common::Pcg32& rng) {
                     return std::make_unique<Conv2d>(2, 3, 3, 1, 1, 5, 5, rng);
                   },
                   {2, 2 * 5 * 5}});
  cases.push_back({"Conv2d_strided_nopad",
                   [](common::Pcg32& rng) {
                     return std::make_unique<Conv2d>(1, 2, 3, 2, 0, 7, 7, rng);
                   },
                   {2, 49}});
  cases.push_back({"Conv2d_rect_input",
                   [](common::Pcg32& rng) {
                     return std::make_unique<Conv2d>(3, 2, 2, 1, 0, 4, 6, rng);
                   },
                   {1, 3 * 4 * 6}});
  cases.push_back({"ConvTranspose2d_up2",
                   [](common::Pcg32& rng) {
                     return std::make_unique<ConvTranspose2d>(2, 2, 4, 2, 1, 3,
                                                              3, rng);
                   },
                   {2, 2 * 3 * 3}});
  cases.push_back({"ConvTranspose2d_stride1",
                   [](common::Pcg32& rng) {
                     return std::make_unique<ConvTranspose2d>(1, 2, 3, 1, 0, 4,
                                                              4, rng);
                   },
                   {1, 16}});
  cases.push_back({"MaxPool2d",
                   [](common::Pcg32&) {
                     return std::make_unique<MaxPool2d>(2, 6, 6, 2, 2);
                   },
                   {2, 2 * 36},
                   3e-2f,
                   /*separated_input=*/true});
  cases.push_back({"ReLU",
                   [](common::Pcg32&) { return std::make_unique<ReLU>(); },
                   {4, 9}});
  cases.push_back({"LeakyReLU",
                   [](common::Pcg32&) {
                     return std::make_unique<LeakyReLU>(0.1f);
                   },
                   {4, 9}});
  cases.push_back({"Sigmoid",
                   [](common::Pcg32&) { return std::make_unique<Sigmoid>(); },
                   {4, 9}});
  cases.push_back({"Tanh",
                   [](common::Pcg32&) { return std::make_unique<Tanh>(); },
                   {4, 9}});
  cases.push_back({"Identity",
                   [](common::Pcg32&) { return std::make_unique<Identity>(); },
                   {2, 6}});
  cases.push_back(
      {"Sequential_mlp",
       [](common::Pcg32& rng) {
         auto model = std::make_unique<Sequential>();
         model->emplace<Dense>(6, 10, rng);
         model->emplace<ReLU>();
         model->emplace<Dense>(10, 4, rng);
         model->emplace<Sigmoid>();
         return model;
       },
       {3, 6}});
  cases.push_back(
      {"Sequential_autoencoder",
       [](common::Pcg32& rng) {
         auto model = std::make_unique<Sequential>();
         model->emplace<Dense>(8, 3, rng);   // encoder
         model->emplace<Sigmoid>();
         model->emplace<Dense>(3, 8, rng);   // decoder
         model->emplace<Sigmoid>();
         return model;
       },
       {2, 8}});
  cases.push_back(
      {"Sequential_convnet",
       [](common::Pcg32& rng) {
         auto model = std::make_unique<Sequential>();
         model->emplace<Conv2d>(1, 2, 3, 1, 1, 6, 6, rng);
         model->emplace<ReLU>();
         model->emplace<MaxPool2d>(2, 6, 6, 2, 2);
         model->emplace<Dense>(2 * 9, 4, rng);
         return model;
       },
       {2, 36},
       2e-1f,
       /*separated_input=*/true});
  cases.push_back(
      {"Sequential_deconv",
       [](common::Pcg32& rng) {
         auto model = std::make_unique<Sequential>();
         model->emplace<Dense>(5, 2 * 3 * 3, rng);
         model->emplace<ReLU>();
         model->emplace<ConvTranspose2d>(2, 1, 4, 2, 1, 3, 3, rng);
         model->emplace<Sigmoid>();
         return model;
       },
       {2, 5},
       2e-1f});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLayers, GradCheckSuite,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<GradCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace orco::nn
