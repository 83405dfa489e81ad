// Free-function tensor ops shared by losses, metrics and datasets.
#pragma once

#include "tensor/tensor.h"

namespace orco::tensor {

/// Row-wise softmax of a rank-2 tensor (numerically stabilised).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a rank-2 tensor.
Tensor log_softmax_rows(const Tensor& logits);

/// Per-row argmax of a rank-2 tensor (batch of logits -> predicted classes).
std::vector<std::size_t> argmax_rows(const Tensor& t);

/// Clamps all elements into [lo, hi].
Tensor clamp(const Tensor& t, float lo, float hi);

/// Mean of (a-b)^2 over all elements.
float mse(const Tensor& a, const Tensor& b);

}  // namespace orco::tensor
