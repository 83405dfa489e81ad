// Weight initialisers (Glorot/He). Deterministic given the caller's RNG:
// each consumes the generator's draws in element order, so a model's
// weights are a function of its seed alone.
#pragma once

#include "common/rng.h"
#include "tensor/tensor.h"

namespace orco::nn {

/// Glorot/Xavier uniform: U[-a, a], a = sqrt(6 / (fan_in + fan_out)); the
/// bound itself can come out (Pcg32::uniform). Fills through
/// tensor::fill_uniform: 64 Ki-value chunks, each from a jumped copy of
/// `rng`, on the pool when the calling thread's pool switch is on. Values
/// and `rng`'s state afterwards equal the serial loop's bit for bit.
void xavier_uniform(tensor::Tensor& w, std::size_t fan_in, std::size_t fan_out,
                    common::Pcg32& rng);

/// He/Kaiming normal: N(0, sqrt(2 / fan_in)). Preferred before ReLU.
/// Serial: Box-Muller's rejection of u1 == 0 makes the number of draws per
/// value data-dependent, so no chunk's first draw is known in advance.
void he_normal(tensor::Tensor& w, std::size_t fan_in, common::Pcg32& rng);

}  // namespace orco::nn
