// Elementwise activation layers.
#pragma once

#include <optional>

#include "nn/layer.h"
#include "tensor/backend.h"

namespace orco::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;
  std::string name() const override { return "ReLU"; }
  std::size_t output_features(std::size_t f) const override { return f; }

 private:
  Tensor input_;
};

class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float alpha = 0.01f);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;
  std::string name() const override { return "LeakyReLU"; }
  std::size_t output_features(std::size_t f) const override { return f; }

  float alpha() const noexcept { return alpha_; }

 private:
  float alpha_;
  Tensor input_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;
  std::string name() const override { return "Sigmoid"; }
  std::size_t output_features(std::size_t f) const override { return f; }

 private:
  Tensor output_;  // sigmoid' = y(1-y), so cache the output
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;
  std::string name() const override { return "Tanh"; }
  std::size_t output_features(std::size_t f) const override { return f; }

 private:
  Tensor output_;
};

/// Pass-through; useful as a configurable "no activation" slot.
class Identity : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;
  /// Pass-through at inference: InferPlan::compile drops it entirely.
  bool infer_is_identity() const override { return true; }
  std::string name() const override { return "Identity"; }
  std::size_t output_features(std::size_t f) const override { return f; }
};

/// Activation kinds for config-driven model construction.
enum class Activation { kIdentity, kReLU, kLeakyReLU, kSigmoid, kTanh };

/// Factory for an activation layer.
LayerPtr make_activation(Activation kind);

/// If `layer` is one of the elementwise activations above, returns the
/// GEMM-epilogue equivalent (Identity -> kNone) and fills `leaky_alpha` for
/// LeakyReLU; nullopt otherwise. InferPlan::compile uses this to fuse a
/// Dense/Conv2d layer with its following activation into one backend pass.
std::optional<tensor::EpilogueAct> activation_epilogue(const Layer& layer,
                                                       float& leaky_alpha);

}  // namespace orco::nn
