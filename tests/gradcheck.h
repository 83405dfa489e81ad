// Numerical gradient checking — every layer in tests/nn_gradcheck_test.cpp
// is validated against central finite differences through this harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace orco::testutil {

struct GradCheckReport {
  float max_param_rel_error = 0.0f;
  float max_input_rel_error = 0.0f;
  bool ok = false;
};

namespace detail {

inline float dot(const tensor::Tensor& a, const tensor::Tensor& b) {
  double acc = 0.0;
  const auto ad = a.data(), bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    acc += static_cast<double>(ad[i]) * bd[i];
  }
  return static_cast<float>(acc);
}

inline float rel_error(float analytic, float numeric) {
  const float denom =
      std::max(1e-4f, std::fabs(analytic) + std::fabs(numeric));
  return std::fabs(analytic - numeric) / denom;
}

}  // namespace detail

/// Checks d(sum(forward(x) * R))/dθ and /dx against central differences for
/// a caller-provided input and a fixed random projection R. The layer must
/// be deterministic in eval mode (training=false is used). Use inputs with
/// well-separated values for layers whose gradient is only piecewise smooth
/// (max pooling): a random input can put two window entries within eps of
/// each other, and the finite-difference probe then crosses the winner
/// boundary.
inline GradCheckReport gradcheck_layer_with_input(nn::Layer& layer,
                                                  tensor::Tensor input,
                                                  common::Pcg32& rng,
                                                  float eps = 1e-2f,
                                                  float tolerance = 3e-2f) {
  tensor::Tensor out = layer.forward(input, /*training=*/false);
  const tensor::Tensor projection = tensor::Tensor::randn(out.shape(), rng);

  // Analytic gradients of L = sum(forward(x) ⊙ R).
  layer.zero_grad();
  (void)layer.forward(input, false);
  const tensor::Tensor grad_input = layer.backward(projection);

  GradCheckReport report;

  // Snapshot analytic parameter gradients (backward accumulated them).
  std::vector<tensor::Tensor> analytic_param_grads;
  for (auto& p : layer.params()) analytic_param_grads.push_back(*p.grad);

  // Numeric parameter gradients via central differences.
  auto params = layer.params();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto& value = *params[pi].value;
    for (std::size_t j = 0; j < value.numel(); ++j) {
      const float saved = value[j];
      value[j] = saved + eps;
      const float plus = detail::dot(layer.forward(input, false), projection);
      value[j] = saved - eps;
      const float minus = detail::dot(layer.forward(input, false), projection);
      value[j] = saved;
      const float numeric = (plus - minus) / (2.0f * eps);
      const float analytic = analytic_param_grads[pi][j];
      report.max_param_rel_error = std::max(
          report.max_param_rel_error, detail::rel_error(analytic, numeric));
    }
  }

  // Numeric input gradients.
  for (std::size_t j = 0; j < input.numel(); ++j) {
    const float saved = input[j];
    input[j] = saved + eps;
    const float plus = detail::dot(layer.forward(input, false), projection);
    input[j] = saved - eps;
    const float minus = detail::dot(layer.forward(input, false), projection);
    input[j] = saved;
    const float numeric = (plus - minus) / (2.0f * eps);
    report.max_input_rel_error =
        std::max(report.max_input_rel_error,
                 detail::rel_error(grad_input[j], numeric));
  }

  report.ok = report.max_param_rel_error <= tolerance &&
              report.max_input_rel_error <= tolerance;
  return report;
}

/// The same check on a random input of `input_shape`.
inline GradCheckReport gradcheck_layer(nn::Layer& layer,
                                       const tensor::Shape& input_shape,
                                       common::Pcg32& rng, float eps = 1e-2f,
                                       float tolerance = 3e-2f) {
  return gradcheck_layer_with_input(
      layer, tensor::Tensor::randn(input_shape, rng), rng, eps, tolerance);
}

}  // namespace orco::testutil
