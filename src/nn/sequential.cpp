#include "nn/sequential.h"

#include "common/check.h"
#include "nn/infer_plan.h"

namespace orco::nn {

Layer& Sequential::add(LayerPtr layer) {
  ORCO_CHECK(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
  const Layer* added = layers_.back().get();
  if (const auto* seq = dynamic_cast<const Sequential*>(added)) {
    // The nested chain is already flat (it was rebuilt on its own adds);
    // splice its leaves so a compiled plan never calls into a container.
    flat_.insert(flat_.end(), seq->flat_.begin(), seq->flat_.end());
  } else {
    flat_.push_back(added);
  }
  return *layers_.back();
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(x, training);
  return x;
}

void Sequential::infer_into(const Tensor& input, Tensor& out,
                            InferContext& ctx) const {
  InferPlan::compile(*this)->run(input, out, ctx);
}

void Sequential::invalidate_weight_cache() {
  for (auto& l : layers_) l->invalidate_weight_cache();
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<ParamView> Sequential::params() {
  std::vector<ParamView> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (auto& p : layers_[i]->params()) {
      p.name = "layer" + std::to_string(i) + "." + layers_[i]->name() + "." +
               p.name;
      out.push_back(p);
    }
  }
  return out;
}

std::size_t Sequential::output_features(std::size_t input_features) const {
  std::size_t f = input_features;
  for (const auto& l : layers_) f = l->output_features(f);
  return f;
}

Layer& Sequential::layer(std::size_t i) {
  ORCO_CHECK(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  ORCO_CHECK(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->numel();
  return n;
}

std::size_t Sequential::forward_flops(std::size_t batch) const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->forward_flops(batch);
  return n;
}

}  // namespace orco::nn
