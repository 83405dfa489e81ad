#include "nn/activations.h"

#include <cmath>

#include "common/check.h"

namespace orco::nn {

namespace {

/// Shared elementwise infer_into body: resizes `out` (no-op at steady
/// state) and maps `f` index-aligned, which is alias-safe — activations may
/// compute in place when the caller ping-pongs onto the same buffer.
template <typename F>
void map_into(const Tensor& input, Tensor& out, F&& f) {
  out.resize_like(input);
  const auto in = input.data();
  auto od = out.data();
  for (std::size_t i = 0; i < in.size(); ++i) od[i] = f(in[i]);
}

}  // namespace

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  return infer(input);
}

void ReLU::infer_into(const Tensor& input, Tensor& out,
                      InferContext& /*ctx*/) const {
  map_into(input, out, [](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor ReLU::backward(const Tensor& grad_output) {
  ORCO_CHECK(grad_output.shape() == input_.shape(), "ReLU backward mismatch");
  Tensor out = grad_output;
  const auto in = input_.data();
  auto od = out.data();
  // A select, not a branch, so it vectorizes: +0 where input <= 0 (±0
  // included), the gradient elsewhere (a NaN input keeps it).
  for (std::size_t i = 0; i < od.size(); ++i) {
    od[i] = in[i] <= 0.0f ? 0.0f : od[i];
  }
  return out;
}

LeakyReLU::LeakyReLU(float alpha) : alpha_(alpha) {
  ORCO_CHECK(alpha >= 0.0f && alpha < 1.0f, "LeakyReLU alpha out of range");
}

Tensor LeakyReLU::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  return infer(input);
}

void LeakyReLU::infer_into(const Tensor& input, Tensor& out,
                           InferContext& /*ctx*/) const {
  const float a = alpha_;
  map_into(input, out, [a](float v) { return v > 0.0f ? v : a * v; });
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  ORCO_CHECK(grad_output.shape() == input_.shape(),
             "LeakyReLU backward mismatch");
  Tensor out = grad_output;
  const auto in = input_.data();
  auto od = out.data();
  for (std::size_t i = 0; i < od.size(); ++i) {
    if (in[i] <= 0.0f) od[i] *= alpha_;
  }
  return out;
}

Tensor Sigmoid::forward(const Tensor& input, bool /*training*/) {
  output_ = infer(input);
  return output_;
}

void Sigmoid::infer_into(const Tensor& input, Tensor& out,
                         InferContext& /*ctx*/) const {
  map_into(input, out, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  ORCO_CHECK(grad_output.shape() == output_.shape(),
             "Sigmoid backward mismatch");
  Tensor out = grad_output;
  const auto y = output_.data();
  auto od = out.data();
  for (std::size_t i = 0; i < od.size(); ++i) od[i] *= y[i] * (1.0f - y[i]);
  return out;
}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  output_ = infer(input);
  return output_;
}

void Tanh::infer_into(const Tensor& input, Tensor& out,
                      InferContext& /*ctx*/) const {
  map_into(input, out, [](float v) { return std::tanh(v); });
}

Tensor Tanh::backward(const Tensor& grad_output) {
  ORCO_CHECK(grad_output.shape() == output_.shape(), "Tanh backward mismatch");
  Tensor out = grad_output;
  const auto y = output_.data();
  auto od = out.data();
  for (std::size_t i = 0; i < od.size(); ++i) od[i] *= 1.0f - y[i] * y[i];
  return out;
}

Tensor Identity::forward(const Tensor& input, bool /*training*/) {
  return input;
}

void Identity::infer_into(const Tensor& input, Tensor& out,
                          InferContext& /*ctx*/) const {
  map_into(input, out, [](float v) { return v; });
}

Tensor Identity::backward(const Tensor& grad_output) { return grad_output; }

std::optional<tensor::EpilogueAct> activation_epilogue(const Layer& layer,
                                                       float& leaky_alpha) {
  if (dynamic_cast<const Identity*>(&layer)) return tensor::EpilogueAct::kNone;
  if (dynamic_cast<const ReLU*>(&layer)) return tensor::EpilogueAct::kReLU;
  if (const auto* leaky = dynamic_cast<const LeakyReLU*>(&layer)) {
    leaky_alpha = leaky->alpha();
    return tensor::EpilogueAct::kLeakyReLU;
  }
  if (dynamic_cast<const Sigmoid*>(&layer)) return tensor::EpilogueAct::kSigmoid;
  if (dynamic_cast<const Tanh*>(&layer)) return tensor::EpilogueAct::kTanh;
  return std::nullopt;
}

LayerPtr make_activation(Activation kind) {
  switch (kind) {
    case Activation::kIdentity:  return std::make_unique<Identity>();
    case Activation::kReLU:      return std::make_unique<ReLU>();
    case Activation::kLeakyReLU: return std::make_unique<LeakyReLU>();
    case Activation::kSigmoid:   return std::make_unique<Sigmoid>();
    case Activation::kTanh:      return std::make_unique<Tanh>();
  }
  throw std::invalid_argument("unknown activation kind");
}

}  // namespace orco::nn
