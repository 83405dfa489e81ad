// Transposed (fractionally-strided) convolution — the upsampling block of
// the DCSNet decoder and of deep OrcoDCS decoder variants.
//
// Implemented as the exact adjoint of Conv2d's im2col lowering:
//   forward  = col2im(W^T x)          (conv's backward-input pass)
//   backward = W im2col(grad_out)     (conv's forward pass)
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace orco::nn {

class ConvTranspose2d : public Layer {
 public:
  /// Output spatial size: OH = (in_h - 1) * stride + kernel - 2 * pad.
  ConvTranspose2d(std::size_t in_channels, std::size_t out_channels,
                  std::size_t kernel, std::size_t stride, std::size_t pad,
                  std::size_t in_h, std::size_t in_w, common::Pcg32& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "ConvTranspose2d"; }
  std::size_t output_features(std::size_t input_features) const override;
  std::size_t forward_flops(std::size_t batch) const override {
    return 2 * batch * in_channels_ * in_h_ * in_w_ * out_channels_ *
           geom_.kernel_h * geom_.kernel_w;
  }

  std::size_t out_h() const noexcept { return out_h_; }
  std::size_t out_w() const noexcept { return out_w_; }

  /// One Wᵀ·x column slab (outC*K*K rows × input spatial), reused across
  /// the batch.
  std::size_t infer_scratch_floats() const override {
    return w_.dim(1) * in_h_ * in_w_;
  }

 private:
  std::size_t in_channels_, out_channels_;
  std::size_t in_h_, in_w_, out_h_, out_w_;
  tensor::Conv2dGeometry geom_;  // geometry of the *output* side
  Tensor w_;   // (inC, outC*KH*KW)
  Tensor b_;   // (outC)
  Tensor gw_, gb_;  // empty until the first backward()
  Tensor input_;
};

}  // namespace orco::nn
