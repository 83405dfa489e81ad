#include "nn/dense.h"

#include "common/check.h"
#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/matmul.h"

namespace orco::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             common::Pcg32& rng)
    : in_(in_features),
      out_(out_features),
      w_({out_features, in_features}),
      b_({out_features}) {
  ORCO_CHECK(in_features > 0 && out_features > 0,
             "Dense dims must be positive, got " << in_features << " -> "
                                                 << out_features);
  xavier_uniform(w_, in_features, out_features, rng);
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  return infer(input);
}

void Dense::infer_into(const Tensor& input, Tensor& out,
                       InferContext& ctx) const {
  infer_fused_into(input, out, tensor::EpilogueAct::kNone, 0.01f, ctx);
}

void Dense::infer_fused_into(const Tensor& input, Tensor& out,
                             tensor::EpilogueAct act, float leaky_alpha,
                             InferContext& /*ctx*/) const {
  ORCO_CHECK(input.rank() == 2 && input.dim(1) == in_,
             "Dense expects (batch, " << in_ << "), got "
                                      << tensor::shape_to_string(input.shape()));
  ORCO_CHECK(&out != &input, "Dense cannot infer in place");
  const std::size_t batch = input.dim(0);
  out.resize(batch, out_);
  tensor::Epilogue epi;
  epi.bias = b_.data().data();
  epi.bias_per_row = false;
  epi.act = act;
  epi.leaky_alpha = leaky_alpha;
  // y = x·Wᵀ with W stored (out, in): W is the transposed-B operand.
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmFused, 2ull * batch * in_ * out_);
  tensor::current_backend().gemm_fused(input.data().data(), w_.data().data(),
                                       out.data().data(), batch, in_, out_,
                                       /*transpose_b=*/true, epi);  // (B, out)
}

void Dense::infer_packed_into(const Tensor& input, Tensor& out,
                              const tensor::PackedWeights& packed,
                              tensor::EpilogueAct act,
                              float leaky_alpha) const {
  ORCO_CHECK(input.rank() == 2 && input.dim(1) == in_,
             "Dense expects (batch, " << in_ << "), got "
                                      << tensor::shape_to_string(input.shape()));
  ORCO_CHECK(&out != &input, "Dense cannot infer in place");
  const std::size_t batch = input.dim(0);
  out.resize(batch, out_);
  tensor::Epilogue epi;
  epi.bias = b_.data().data();
  epi.bias_per_row = false;
  epi.act = act;
  epi.leaky_alpha = leaky_alpha;
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmPrepacked, 2ull * batch * in_ * out_);
  packed.owner->gemm_prepacked(input.data().data(), packed, out.data().data(),
                               batch, in_, out_, epi);
}

std::shared_ptr<const tensor::PackedWeights> Dense::plan_pack(
    const tensor::Backend& backend, std::uint64_t& version_out) const {
  version_out = weight_version_.load(std::memory_order_acquire);
  // y = x·Wᵀ with W stored (out, in): W is the transposed-B operand.
  return std::make_shared<tensor::PackedWeights>(
      backend.pack_b(w_.data().data(), in_, out_, /*transpose_b=*/true));
}

void Dense::check_grad_output(const Tensor& grad_output) const {
  ORCO_CHECK(grad_output.rank() == 2 && grad_output.dim(1) == out_ &&
                 grad_output.dim(0) == input_.dim(0),
             "Dense backward shape mismatch");
}

Tensor Dense::backward(const Tensor& grad_output) {
  check_grad_output(grad_output);
  // dW += dY^T X ; db += column sums of dY ; dX = dY W. gemm_tn
  // accumulates dW straight into the gradient, with no product temporary.
  const std::size_t batch = grad_output.dim(0);
  ensure_grad(gw_, w_.shape());
  {
    OBS_SCOPED_SPAN(obs::KernelOp::kGemmTN, 2ull * batch * in_ * out_);
    tensor::current_backend().gemm_tn(grad_output.data().data(),
                                      input_.data().data(), gw_.data().data(),
                                      out_, batch, in_);
  }
  accumulate_bias_grad(grad_output);
  return input_grad(grad_output);
}

Tensor Dense::input_grad(const Tensor& grad_output) const {
  check_grad_output(grad_output);
  return tensor::matmul(grad_output, w_);
}

void Dense::accumulate_bias_grad(const Tensor& grad_output) {
  check_grad_output(grad_output);
  ensure_grad(gb_, b_.shape());
  for (std::size_t i = 0; i < grad_output.dim(0); ++i) {
    const auto r = grad_output.row(i);
    for (std::size_t j = 0; j < out_; ++j) gb_[j] += r[j];
  }
}

void Dense::step_weight(const Tensor& grad_output,
                        const tensor::SgdUpdate& update, float* velocity) {
  check_grad_output(grad_output);
  const std::size_t batch = grad_output.dim(0);
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmTN, 2ull * batch * in_ * out_);
  tensor::current_backend().gemm_tn_sgd(
      grad_output.data().data(), input_.data().data(), w_.data().data(),
      velocity, out_, batch, in_, update);
  invalidate_weight_cache();
}

std::vector<ParamView> Dense::params() {
  // The views hand out mutable weight pointers (optimizers, model_io
  // loading); conservatively bump the weight version.
  invalidate_weight_cache();
  return {{"weight", &w_, &gw_}, {"bias", &b_, &gb_}};
}

std::size_t Dense::output_features(std::size_t input_features) const {
  ORCO_CHECK(input_features == in_, "Dense chain mismatch: got "
                                        << input_features << ", expected "
                                        << in_);
  return out_;
}

}  // namespace orco::nn
