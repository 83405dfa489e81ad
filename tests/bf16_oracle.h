// The oracle for every prepacked-weight path: Backend::pack_b rounds each
// weight to bf16 (tensor::to_bf16), so a prepacked GEMM equals the
// unpacked one on the rounded weight, and a compiled InferPlan equals
// Sequential::forward(x, /*training=*/false) on a copy of the model whose
// Dense weights — not their biases, not Conv2d filters — are rounded.
// Tests keep comparing bitwise; only the reference moves.
#pragma once

#include <memory>

#include "nn/dense.h"
#include "nn/model_io.h"
#include "nn/sequential.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace orco::testutil {

/// `w` with every element rounded to bf16 and widened back.
inline tensor::Tensor bf16_rounded(const tensor::Tensor& w) {
  tensor::Tensor out = w;
  for (float& v : out.data()) v = tensor::from_bf16(tensor::to_bf16(v));
  return out;
}

/// Rounds every Dense weight under `layer` (nested chains included) in
/// place; biases and every other layer stay f32.
inline void round_dense_weights(nn::Layer& layer) {
  if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
    dense->weight() = bf16_rounded(dense->weight());
  } else if (auto* chain = dynamic_cast<nn::Sequential*>(&layer)) {
    for (std::size_t i = 0; i < chain->size(); ++i) {
      round_dense_weights(chain->layer(i));
    }
  }
}

/// A copy of `model` with its Dense weights rounded. `build` returns a
/// model of the same architecture (any weights); the copy takes `model`'s
/// parameters, so it also follows weights mutated after construction.
template <class Build>
std::unique_ptr<nn::Sequential> bf16_copy(nn::Sequential& model,
                                          Build build) {
  std::unique_ptr<nn::Sequential> copy = build();
  nn::load_params(*copy, nn::save_params(model));
  round_dense_weights(*copy);
  return copy;
}

}  // namespace orco::testutil
