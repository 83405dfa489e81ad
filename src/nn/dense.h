// Fully-connected layer: y = x W^T + b.
//
// This is the paper's encoder building block: OrcoDCS's encoder is exactly
// one Dense layer (eq. 1), sized so that each IoT device owns one column of
// the weight matrix (see core/encoder_share.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "nn/layer.h"
#include "tensor/backend.h"

namespace orco::nn {

class Dense : public Layer {
 public:
  /// Weight is (out_features, in_features); bias (out_features).
  /// Weights are Xavier-uniform initialised from `rng`.
  Dense(std::size_t in_features, std::size_t out_features, common::Pcg32& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;

  /// backward()'s three parts one at a time, for the batch of the last
  /// forward() — nn::Sgd::backward_step's Dense step. dL/dX = dY·W from
  /// the current weight:
  Tensor input_grad(const Tensor& grad_output) const;
  /// dY's column sums accumulated into the bias gradient (sized,
  /// zero-filled, at first use):
  void accumulate_bias_grad(const Tensor& grad_output);
  /// and the weight stepped by `update` straight out of dW = dYᵀ·X
  /// (tensor::Backend::gemm_tn_sgd; `velocity` is null without momentum),
  /// so the weight gradient is neither allocated, read nor written.
  void step_weight(const Tensor& grad_output, const tensor::SgdUpdate& update,
                   float* velocity);
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;

  /// act(x·Wᵀ + b) in one fused backend pass on the unpacked weight — GEMM,
  /// bias and activation applied while output tiles are hot, written
  /// straight into `out`. infer_into() and the training forward() are
  /// infer_fused_into(kNone); InferPlan folds a following activation layer
  /// into `act`.
  void infer_fused_into(const Tensor& input, Tensor& out,
                        tensor::EpilogueAct act, float leaky_alpha,
                        InferContext& ctx) const override;

  /// act(x·Wᵀ + b) against caller-supplied packed panels — the InferPlan
  /// executor entry. `packed` must have been produced by plan_pack() (or
  /// pack_b) for this layer's current weights; the GEMM runs on
  /// `packed.owner` against the panels' bf16 weights, bitwise-identical to
  /// the gemm_fused path on the same backend with the weight rounded by
  /// tensor::to_bf16.
  void infer_packed_into(const Tensor& input, Tensor& out,
                         const tensor::PackedWeights& packed,
                         tensor::EpilogueAct act, float leaky_alpha) const;

  /// Packs this layer's weight for `backend` and reports the weight version
  /// the panels captured — the compile-time half of InferPlan's pre-attached
  /// kernels, and the only place the layer's weight is packed.
  std::shared_ptr<const tensor::PackedWeights> plan_pack(
      const tensor::Backend& backend, std::uint64_t& version_out) const;

  /// Monotonic weight generation; bumped by invalidate_weight_cache() and
  /// every mutable accessor. InferPlan::weights_stale compares this against
  /// the version its panels captured.
  std::uint64_t weight_version() const noexcept {
    return weight_version_.load(std::memory_order_acquire);
  }

  void invalidate_weight_cache() override {
    weight_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::vector<ParamView> params() override;
  std::string name() const override { return "Dense"; }
  std::size_t output_features(std::size_t input_features) const override;
  std::size_t forward_flops(std::size_t batch) const override {
    return 2 * batch * in_ * out_;
  }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  /// Direct access for the orchestrator, which splits the encoder weight
  /// into per-device columns and reassembles gradients. The non-const
  /// accessors conservatively bump the weight version — a caller asking
  /// for a mutable weight may be about to edit it.
  Tensor& weight() noexcept {
    invalidate_weight_cache();
    return w_;
  }
  const Tensor& weight() const noexcept { return w_; }
  Tensor& bias() noexcept {
    invalidate_weight_cache();
    return b_;
  }
  const Tensor& bias() const noexcept { return b_; }
  /// Parameter gradients: empty until the first backward() (see
  /// ParamView), then shaped like weight() and bias(). Sgd::backward_step
  /// sizes only the bias gradient: an SGD-trained weight carries none.
  Tensor& weight_grad() noexcept { return gw_; }
  Tensor& bias_grad() noexcept { return gb_; }

 private:
  /// Checks that dY is (batch of the last forward(), out_features).
  void check_grad_output(const Tensor& grad_output) const;

  std::size_t in_, out_;
  Tensor w_, b_;
  Tensor gw_, gb_;  // empty until first used
  Tensor input_;  // cached for backward
  std::atomic<std::uint64_t> weight_version_{1};
};

}  // namespace orco::nn
