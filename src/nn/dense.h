// Fully-connected layer: y = x W^T + b.
//
// This is the paper's encoder building block: OrcoDCS's encoder is exactly
// one Dense layer (eq. 1), sized so that each IoT device owns one column of
// the weight matrix (see core/encoder_share.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

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
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;

  /// act(x·Wᵀ + b) in one fused backend pass — GEMM, bias and activation
  /// applied while output tiles are hot, written straight into `out`.
  /// infer_into() is infer_fused_into(kNone); Sequential::infer_into
  /// peepholes a following activation layer into `act`.
  void infer_fused_into(const Tensor& input, Tensor& out,
                        tensor::EpilogueAct act, float leaky_alpha,
                        InferContext& ctx) const override;

  /// act(dequant(codes)·Wᵀ + b) straight from uint8 latent codes with
  /// per-row affine headers `qh` — the int8 uplink decode head. Routes
  /// through Backend::gemm_quantized against this layer's packed weights
  /// (packed on first use even when prepack is off: the quantized kernel
  /// only takes panel weights).
  void infer_quantized_into(const std::uint8_t* codes,
                            const tensor::QuantHeader& qh, std::size_t batch,
                            Tensor& out, tensor::EpilogueAct act,
                            float leaky_alpha, InferContext& ctx) const;

  /// act(x·Wᵀ + b) against caller-supplied packed panels — the InferPlan
  /// executor entry: no prepack-cache probe, no version check, no lock.
  /// `packed` must have been produced by plan_pack() (or pack_b) for this
  /// layer's current weights; the GEMM runs on `packed.owner`, which is
  /// bitwise-identical to the gemm_fused path on the same backend.
  void infer_packed_into(const Tensor& input, Tensor& out,
                         const tensor::PackedWeights& packed,
                         tensor::EpilogueAct act, float leaky_alpha) const;

  /// infer_quantized_into() against caller-supplied packed panels (the
  /// plan-compiled int8 head): same kernel, no per-call cache probe.
  void infer_quantized_packed_into(const std::uint8_t* codes,
                                   const tensor::QuantHeader& qh,
                                   std::size_t batch, Tensor& out,
                                   const tensor::PackedWeights& packed,
                                   tensor::EpilogueAct act,
                                   float leaky_alpha) const;

  /// Packs this layer's weight for `backend` and reports the weight version
  /// the panels captured — the compile-time half of InferPlan's pre-attached
  /// kernels. Shares the layer's own prepack cache when it already holds
  /// this (backend, version) generation, so plan compilation and serving
  /// never pack the same weights twice.
  std::shared_ptr<const tensor::PackedWeights> plan_pack(
      const tensor::Backend& backend, std::uint64_t& version_out) const;

  /// Monotonic weight generation; bumped by invalidate_weight_cache() and
  /// every mutable accessor. InferPlan::weights_stale compares this against
  /// the version its panels captured.
  std::uint64_t weight_version() const noexcept {
    return weight_version_.load(std::memory_order_acquire);
  }

  /// When enabled, infer()/infer_fused() cache the current backend's
  /// packed weight panels keyed on a weight version and reuse them across
  /// calls (see Layer::set_weight_prepack for the invalidation contract).
  /// The training forward() never reads the cache.
  void set_weight_prepack(bool enabled) override { prepack_ = enabled; }
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
  /// accessors conservatively invalidate the packed-weight cache — a
  /// caller asking for a mutable weight may be about to edit it.
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
  Tensor& weight_grad() noexcept { return gw_; }
  Tensor& bias_grad() noexcept { return gb_; }

 private:
  /// Current backend's packed weight panels, repacked lazily whenever the
  /// weight version or the selected backend changed since the last call.
  std::shared_ptr<const tensor::PackedWeights> packed_weights() const;

  /// act(x·Wᵀ + b) through the current backend's gemm_fused on the
  /// unpacked weight — the training forward and the prepack-off inference.
  void fused_into(const Tensor& input, Tensor& out, tensor::EpilogueAct act,
                  float leaky_alpha) const;

  std::size_t in_, out_;
  Tensor w_, b_, gw_, gb_;
  Tensor input_;  // cached for backward
  bool prepack_ = false;
  std::atomic<std::uint64_t> weight_version_{1};
  mutable common::Mutex pack_mu_;
  mutable std::shared_ptr<const tensor::PackedWeights> packed_
      ORCO_GUARDED_BY(pack_mu_);
  mutable std::uint64_t packed_version_ ORCO_GUARDED_BY(pack_mu_) = 0;
};

}  // namespace orco::nn
