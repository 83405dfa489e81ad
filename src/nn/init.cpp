#include "nn/init.h"

#include <cmath>

#include "common/check.h"

namespace orco::nn {

void xavier_uniform(tensor::Tensor& w, std::size_t fan_in, std::size_t fan_out,
                    common::Pcg32& rng) {
  ORCO_CHECK(fan_in + fan_out > 0, "xavier_uniform fan sum must be positive");
  const float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  tensor::fill_uniform(w.data(), rng, -a, a);
}

void he_normal(tensor::Tensor& w, std::size_t fan_in, common::Pcg32& rng) {
  ORCO_CHECK(fan_in > 0, "he_normal fan_in must be positive");
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, stddev));
}

}  // namespace orco::nn
