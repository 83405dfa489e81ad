// Sequential layer container — the model type used for encoders, decoders,
// DCSNet and the classifier.
#pragma once

#include <memory>
#include <utility>

#include "nn/layer.h"

namespace orco::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference for further wiring. Extends the
  /// flattened inference chain: a nested Sequential contributes its leaf
  /// layers in order, so nested chains must be fully built before being
  /// added to an outer chain.
  Layer& add(LayerPtr layer);

  /// Constructs a layer in place and appends it.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;

  /// One-off whole-chain inference: compiles an InferPlan for the current
  /// backend (packing every weight) and runs it once. Anything that decodes
  /// more than once compiles the plan itself and calls InferPlan::run, which
  /// is allocation-free after warmup (see nn/infer_plan.h).
  void infer_into(const Tensor& input, Tensor& out,
                  InferContext& ctx) const override;

  void invalidate_weight_cache() override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Sequential"; }

  /// Validates the whole chain for `input_features`, returning the final
  /// feature count. Throws if any adjacent pair disagrees.
  std::size_t output_features(std::size_t input_features) const override;

  std::size_t size() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// The inference-time view of the chain: nested Sequential containers
  /// flattened to their leaf layers in order (identity layers included).
  /// This is what InferPlan::compile walks.
  const std::vector<const Layer*>& inference_chain() const noexcept {
    return flat_;
  }

  /// Total trainable scalar count (for overhead accounting).
  std::size_t parameter_count();

  std::size_t forward_flops(std::size_t batch) const override;

 private:
  std::vector<LayerPtr> layers_;
  // Flattened leaf view of layers_ (nested Sequentials expanded), extended
  // in add() — the only structural mutation point.
  std::vector<const Layer*> flat_;
};

}  // namespace orco::nn
