// Additive Gaussian noise layer — OrcoDCS eq. (2): Ŷ = Y + N(0, σ²).
//
// Noise is injected only when training; at inference the layer is identity.
// The gradient passes through unchanged (the noise term is constant w.r.t.
// the parameters), which is exactly how denoising autoencoders train.
#pragma once

#include <algorithm>

#include "common/rng.h"
#include "nn/layer.h"

namespace orco::nn {

class GaussianNoise : public Layer {
 public:
  /// `sigma` is the standard deviation σ (the paper sweeps σ² in Fig. 7).
  GaussianNoise(float sigma, common::Pcg32 rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Identity at inference, like forward(training=false).
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& /*ctx*/) const override {
    if (&out == &input) return;
    out.resize_like(input);
    std::copy(input.data().begin(), input.data().end(), out.data().begin());
  }
  /// Noise is train-only: InferPlan::compile drops the layer outright.
  bool infer_is_identity() const override { return true; }
  std::string name() const override { return "GaussianNoise"; }
  std::size_t output_features(std::size_t f) const override { return f; }

  float sigma() const noexcept { return sigma_; }
  void set_sigma(float sigma);

 private:
  float sigma_;
  common::Pcg32 rng_;
};

}  // namespace orco::nn
