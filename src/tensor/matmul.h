// Tensor-level GEMM entry points: the layers' backward passes call the
// three plain products, and bench/micro_ops times the two fused Dense
// entries. Layer inference calls the Backend directly. Every call routes
// through the pluggable kernel backend selected via tensor/backend.h
// (reference ikj kernel or the packed-panel simd kernel). Large problems
// split across the global thread pool unless the calling thread turned
// that off (tensor/backend.h, set_thread_gemm_parallelism); small ones run
// inline on the calling thread. Either way every value is the same.
#pragma once

#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace orco::tensor {

/// C = A (m x k) * B (k x n). Returns a new (m x n) tensor.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T (k x m -> m x k) * B (k x n).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A (m x k) * B^T (n x k -> k x n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = act(A (m x k) * B^T + bias), with B row-major (n x k) and bias of
/// length n added per output column — the Dense layer in one fused pass
/// (GEMM, bias and activation applied while output tiles are hot) instead
/// of matmul-then-bias-then-activation.
Tensor gemm_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias,
                     EpilogueAct act = EpilogueAct::kNone,
                     float leaky_alpha = 0.01f);

/// C = act(A (m x k) * W + bias) with W prepacked by pack_b on the current
/// backend (logical k x n) — the Dense serving path without the per-call
/// panel packing. Bitwise identical to gemm_bias_act on the unpacked
/// weight. Throws if the pack came from a different backend.
Tensor gemm_bias_act_prepacked(const Tensor& a, const PackedWeights& w,
                               const Tensor& bias,
                               EpilogueAct act = EpilogueAct::kNone,
                               float leaky_alpha = 0.01f);

}  // namespace orco::tensor
