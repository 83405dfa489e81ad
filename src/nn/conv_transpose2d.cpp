#include "nn/conv_transpose2d.h"

#include <algorithm>

#include "common/check.h"
#include "nn/init.h"
#include "tensor/matmul.h"

namespace orco::nn {

ConvTranspose2d::ConvTranspose2d(std::size_t in_channels,
                                 std::size_t out_channels, std::size_t kernel,
                                 std::size_t stride, std::size_t pad,
                                 std::size_t in_h, std::size_t in_w,
                                 common::Pcg32& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      in_h_(in_h),
      in_w_(in_w),
      w_({in_channels, out_channels * kernel * kernel}),
      b_({out_channels}) {
  ORCO_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
             "ConvTranspose2d: bad hyperparameters");
  ORCO_CHECK((in_h - 1) * stride + kernel >= 2 * pad,
             "ConvTranspose2d: padding too large");
  out_h_ = (in_h - 1) * stride + kernel - 2 * pad;
  out_w_ = (in_w - 1) * stride + kernel - 2 * pad;
  geom_ = tensor::Conv2dGeometry{out_channels, out_h_, out_w_,
                                 kernel,       kernel, stride, pad};
  // The adjoint geometry must map the output back onto the input grid.
  ORCO_ENSURE(geom_.out_h() == in_h && geom_.out_w() == in_w,
              "ConvTranspose2d geometry inconsistent");
  he_normal(w_, in_channels, rng);
}

Tensor ConvTranspose2d::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  return infer(input);
}

void ConvTranspose2d::infer_into(const Tensor& input, Tensor& out,
                                 InferContext& ctx) const {
  const std::size_t in_feats = in_channels_ * in_h_ * in_w_;
  ORCO_CHECK(input.rank() == 2 && input.dim(1) == in_feats,
             "ConvTranspose2d expects (batch, " << in_feats << "), got "
                                                << tensor::shape_to_string(
                                                       input.shape()));
  ORCO_CHECK(&out != &input, "ConvTranspose2d cannot infer in place");
  const std::size_t batch = input.dim(0);
  const std::size_t out_feats = out_channels_ * out_h_ * out_w_;
  const std::size_t spatial = in_h_ * in_w_;
  const std::size_t col_rows = w_.dim(1);  // outC*K*K
  out.resize(batch, out_feats);
  const auto& backend = tensor::current_backend();
  // Column scratch from the context arena, reused across the batch. The
  // bias sweep stays AFTER col2im (not folded into the zero-fill) so the
  // per-element summation order — and therefore every bit of the result —
  // matches the training-path forward exactly.
  tensor::WorkspaceScope scope(ctx.scratch());
  const std::size_t col_floats = col_rows * spatial;
  float* cols = ctx.scratch().alloc(col_floats);
  for (std::size_t s = 0; s < batch; ++s) {
    // cols = Wᵀ·x with x the sample row viewed as (inC, H*W) — straight off
    // the input span, no per-sample copy or materialised transpose.
    std::fill(cols, cols + col_floats, 0.0f);  // gemm_tn accumulates
    backend.gemm_tn(w_.data().data(), input.row(s).data(), cols, col_rows,
                    in_channels_, spatial);
    auto yd = out.row(s);
    std::fill(yd.begin(), yd.end(), 0.0f);  // col2im accumulates
    tensor::col2im({cols, col_floats}, geom_, yd);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float bias = b_[oc];
      for (std::size_t p = 0; p < out_h_ * out_w_; ++p) {
        yd[oc * out_h_ * out_w_ + p] += bias;
      }
    }
  }
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  const std::size_t batch = input_.dim(0);
  const std::size_t out_feats = out_channels_ * out_h_ * out_w_;
  ORCO_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
                 grad_output.dim(1) == out_feats,
             "ConvTranspose2d backward shape mismatch");
  ensure_grad(gw_, w_.shape());
  ensure_grad(gb_, b_.shape());
  Tensor grad_input({batch, input_.dim(1)});
  for (std::size_t s = 0; s < batch; ++s) {
    // Gradient w.r.t. output image -> columns (adjoint of col2im is im2col).
    const Tensor gcols = tensor::im2col(grad_output.row(s), geom_);
    Tensor x({in_channels_, in_h_ * in_w_},
             std::vector<float>(input_.row(s).begin(), input_.row(s).end()));
    // dX = W gcols ; dW += x gcols^T ; db += per-channel sums of grad_out.
    const Tensor gx = tensor::matmul(w_, gcols);
    grad_input.set_outer(s, gx.reshaped({input_.dim(1)}));
    gw_ += tensor::matmul_nt(x, gcols);
    const auto go = grad_output.row(s);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      double acc = 0.0;
      for (std::size_t p = 0; p < out_h_ * out_w_; ++p) {
        acc += go[oc * out_h_ * out_w_ + p];
      }
      gb_[oc] += static_cast<float>(acc);
    }
  }
  return grad_input;
}

std::vector<ParamView> ConvTranspose2d::params() {
  return {{"weight", &w_, &gw_}, {"bias", &b_, &gb_}};
}

std::size_t ConvTranspose2d::output_features(
    std::size_t input_features) const {
  const std::size_t in_feats = in_channels_ * in_h_ * in_w_;
  ORCO_CHECK(input_features == in_feats,
             "ConvTranspose2d chain mismatch: got "
                 << input_features << ", expected " << in_feats);
  return out_channels_ * out_h_ * out_w_;
}

}  // namespace orco::nn
