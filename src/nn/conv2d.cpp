#include "nn/conv2d.h"

#include "common/check.h"
#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/matmul.h"

namespace orco::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               std::size_t in_h, std::size_t in_w, common::Pcg32& rng)
    : geom_{in_channels, in_h, in_w, kernel, kernel, stride, pad},
      out_channels_(out_channels),
      w_({out_channels, in_channels * kernel * kernel}),
      b_({out_channels}) {
  ORCO_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
             "Conv2d: bad hyperparameters");
  // Validate geometry eagerly so misconfigured models fail at build time.
  (void)geom_.out_h();
  (void)geom_.out_w();
  he_normal(w_, in_channels * kernel * kernel, rng);
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  return infer(input);
}

void Conv2d::infer_into(const Tensor& input, Tensor& out,
                        InferContext& ctx) const {
  infer_fused_into(input, out, tensor::EpilogueAct::kNone, 0.01f, ctx);
}

void Conv2d::infer_fused_into(const Tensor& input, Tensor& out,
                              tensor::EpilogueAct act, float leaky_alpha,
                              InferContext& ctx) const {
  const std::size_t in_feats = geom_.in_channels * geom_.in_h * geom_.in_w;
  ORCO_CHECK(input.rank() == 2 && input.dim(1) == in_feats,
             "Conv2d expects (batch, " << in_feats << "), got "
                                       << tensor::shape_to_string(input.shape()));
  ORCO_CHECK(&out != &input, "Conv2d cannot infer in place");
  const std::size_t batch = input.dim(0);
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::size_t col_rows =
      geom_.in_channels * geom_.kernel_h * geom_.kernel_w;
  const std::size_t spatial = oh * ow;
  out.resize(batch, out_channels_ * spatial);
  const auto& backend = tensor::current_backend();
  tensor::Epilogue epi;
  epi.bias = b_.data().data();
  epi.bias_per_row = true;  // one bias per output channel row
  epi.act = act;
  epi.leaky_alpha = leaky_alpha;
  // One arena slab of column scratch, reused for every sample in the batch
  // and released on scope exit; the (outC, OH*OW) GEMM result lands
  // directly in the sample's output row — no per-sample Tensor, no
  // set_outer copy.
  tensor::WorkspaceScope scope(ctx.scratch());
  const std::size_t col_floats = col_rows * spatial;
  float* cols = ctx.scratch().alloc(col_floats);
  const std::uint64_t flops = 2ull * out_channels_ * col_rows * spatial;
  for (std::size_t s = 0; s < batch; ++s) {
    {
      OBS_SCOPED_SPAN(obs::KernelOp::kIm2col, 0);
      tensor::im2col_into(input.row(s), geom_, {cols, col_floats});
    }
    OBS_SCOPED_SPAN(obs::KernelOp::kGemmFused, flops);
    backend.gemm_fused(w_.data().data(), cols, out.row(s).data(),
                       out_channels_, col_rows, spatial,
                       /*transpose_b=*/false, epi);
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::size_t batch = input_.dim(0);
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  ORCO_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
                 grad_output.dim(1) == out_channels_ * oh * ow,
             "Conv2d backward shape mismatch");
  ensure_grad(gw_, w_.shape());
  ensure_grad(gb_, b_.shape());
  Tensor grad_input({batch, input_.dim(1)});
  for (std::size_t s = 0; s < batch; ++s) {
    const Tensor cols = tensor::im2col(input_.row(s), geom_);
    Tensor gy({out_channels_, oh * ow},
              std::vector<float>(grad_output.row(s).begin(),
                                 grad_output.row(s).end()));
    // dW += dY cols^T ; db += spatial sums ; dCols = W^T dY -> col2im.
    gw_ += tensor::matmul_nt(gy, cols);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      double acc = 0.0;
      const auto r = gy.row(oc);
      for (const auto v : r) acc += v;
      gb_[oc] += static_cast<float>(acc);
    }
    const Tensor gcols = tensor::matmul_tn(w_, gy);
    tensor::col2im(gcols, geom_, grad_input.row(s));
  }
  return grad_input;
}

std::vector<ParamView> Conv2d::params() {
  return {{"weight", &w_, &gw_}, {"bias", &b_, &gb_}};
}

std::size_t Conv2d::output_features(std::size_t input_features) const {
  const std::size_t in_feats = geom_.in_channels * geom_.in_h * geom_.in_w;
  ORCO_CHECK(input_features == in_feats,
             "Conv2d chain mismatch: got " << input_features << ", expected "
                                           << in_feats);
  return out_channels_ * geom_.out_h() * geom_.out_w();
}

}  // namespace orco::nn
