// 2-D convolution via im2col + GEMM.
//
// Used by the DCSNet baseline decoder (4 conv layers) and the follow-up
// 2-layer CNN classifier. Inputs/outputs are rank-2 (batch, C*H*W) rows;
// the layer owns its spatial geometry and validates feature counts.
#pragma once

#include "nn/layer.h"
#include "tensor/backend.h"
#include "tensor/im2col.h"

namespace orco::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t pad,
         std::size_t in_h, std::size_t in_w, common::Pcg32& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;

  /// act(W·cols + b) per sample in one fused pass of the current backend on
  /// the f32 filter (bias per output channel row), the im2col columns
  /// living in the context's scratch arena and the GEMM writing each
  /// sample's output row in place. infer_into() is infer_fused_into(kNone);
  /// InferPlan runs this entry on its compile backend, with a following
  /// activation layer folded into `act`. The filter is never prepacked: a
  /// plan reads it live, as it reads every bias.
  void infer_fused_into(const Tensor& input, Tensor& out,
                        tensor::EpilogueAct act, float leaky_alpha,
                        InferContext& ctx) const override;

  std::vector<ParamView> params() override;
  std::string name() const override { return "Conv2d"; }
  std::size_t output_features(std::size_t input_features) const override;
  std::size_t forward_flops(std::size_t batch) const override {
    return 2 * batch * out_channels_ * geom_.out_h() * geom_.out_w() *
           geom_.in_channels * geom_.kernel_h * geom_.kernel_w;
  }

  std::size_t out_h() const { return geom_.out_h(); }
  std::size_t out_w() const { return geom_.out_w(); }
  std::size_t out_channels() const noexcept { return out_channels_; }

  /// One im2col column slab, reused across the batch.
  std::size_t infer_scratch_floats() const override {
    return geom_.in_channels * geom_.kernel_h * geom_.kernel_w *
           geom_.out_h() * geom_.out_w();
  }

 private:
  tensor::Conv2dGeometry geom_;
  std::size_t out_channels_;
  Tensor w_;   // (outC, inC*KH*KW)
  Tensor b_;   // (outC)
  Tensor gw_, gb_;  // empty until the first backward()
  Tensor input_;  // cached (B, inC*H*W); im2col recomputed in backward
};

}  // namespace orco::nn
