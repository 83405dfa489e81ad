#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace orco::tensor {

Tensor softmax_rows(const Tensor& logits) {
  ORCO_CHECK(logits.rank() == 2, "softmax_rows requires rank 2");
  Tensor out = logits;
  const std::size_t rows = logits.dim(0), cols = logits.dim(1);
  for (std::size_t i = 0; i < rows; ++i) {
    auto r = out.row(i);
    const float m = *std::max_element(r.begin(), r.end());
    double sum = 0.0;
    for (auto& v : r) {
      v = std::exp(v - m);
      sum += v;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (auto& v : r) v *= inv;
  }
  (void)cols;
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  ORCO_CHECK(logits.rank() == 2, "log_softmax_rows requires rank 2");
  Tensor out = logits;
  const std::size_t rows = logits.dim(0);
  for (std::size_t i = 0; i < rows; ++i) {
    auto r = out.row(i);
    const float m = *std::max_element(r.begin(), r.end());
    double sum = 0.0;
    for (const auto v : r) sum += std::exp(static_cast<double>(v - m));
    const float lse = m + static_cast<float>(std::log(sum));
    for (auto& v : r) v -= lse;
  }
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& t) {
  ORCO_CHECK(t.rank() == 2, "argmax_rows requires rank 2");
  std::vector<std::size_t> out(t.dim(0));
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    const auto r = t.row(i);
    out[i] = static_cast<std::size_t>(
        std::distance(r.begin(), std::max_element(r.begin(), r.end())));
  }
  return out;
}

Tensor clamp(const Tensor& t, float lo, float hi) {
  ORCO_CHECK(lo <= hi, "clamp: lo > hi");
  return t.map([lo, hi](float v) { return std::clamp(v, lo, hi); });
}

float mse(const Tensor& a, const Tensor& b) {
  ORCO_CHECK(a.shape() == b.shape(), "mse shape mismatch");
  ORCO_CHECK(a.numel() > 0, "mse of empty tensors");
  double acc = 0.0;
  const auto ad = a.data(), bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    const double d = static_cast<double>(ad[i]) - bd[i];
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

}  // namespace orco::tensor
