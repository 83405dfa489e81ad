#include "tensor/matmul.h"

#include "common/check.h"
#include "obs/profile.h"

namespace orco::tensor {

namespace {

/// FLOPs of an (m x k) * (k x n) multiply-accumulate GEMM.
std::uint64_t gemm_flops(std::size_t m, std::size_t k, std::size_t n) {
  return 2ull * m * k * n;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  ORCO_CHECK(a.rank() == 2 && b.rank() == 2,
             "matmul requires rank-2 operands, got "
                 << shape_to_string(a.shape()) << " x "
                 << shape_to_string(b.shape()));
  const std::size_t m = a.dim(0), k = a.dim(1);
  ORCO_CHECK(b.dim(0) == k, "matmul inner dim mismatch: "
                                << shape_to_string(a.shape()) << " x "
                                << shape_to_string(b.shape()));
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  OBS_SCOPED_SPAN(obs::KernelOp::kGemm, gemm_flops(m, k, n));
  current_backend().gemm(a.data().data(), b.data().data(), c.data().data(), m,
                         k, n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  ORCO_CHECK(a.rank() == 2 && b.rank() == 2,
             "matmul_tn requires rank-2 operands, got "
                 << shape_to_string(a.shape()) << " x "
                 << shape_to_string(b.shape()));
  const std::size_t k = a.dim(0), m = a.dim(1);
  ORCO_CHECK(b.dim(0) == k, "matmul_tn inner dim mismatch: "
                                << shape_to_string(a.shape()) << " x "
                                << shape_to_string(b.shape()));
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmTN, gemm_flops(m, k, n));
  current_backend().gemm_tn(a.data().data(), b.data().data(), c.data().data(),
                            m, k, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  ORCO_CHECK(a.rank() == 2 && b.rank() == 2,
             "matmul_nt requires rank-2 operands, got "
                 << shape_to_string(a.shape()) << " x "
                 << shape_to_string(b.shape()));
  const std::size_t m = a.dim(0), k = a.dim(1);
  ORCO_CHECK(b.dim(1) == k, "matmul_nt inner dim mismatch: "
                                << shape_to_string(a.shape()) << " x "
                                << shape_to_string(b.shape()));
  const std::size_t n = b.dim(0);
  Tensor c({m, n});
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmNT, gemm_flops(m, k, n));
  current_backend().gemm_nt(a.data().data(), b.data().data(), c.data().data(),
                            m, k, n);
  return c;
}

Tensor gemm_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias,
                     EpilogueAct act, float leaky_alpha) {
  ORCO_CHECK(a.rank() == 2 && b.rank() == 2,
             "gemm_bias_act requires rank-2 operands, got "
                 << shape_to_string(a.shape()) << " x "
                 << shape_to_string(b.shape()));
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  ORCO_CHECK(b.dim(1) == k, "gemm_bias_act inner dim mismatch: "
                                << shape_to_string(a.shape()) << " x "
                                << shape_to_string(b.shape()) << "^T");
  ORCO_CHECK(bias.rank() == 1 && bias.dim(0) == n,
             "gemm_bias_act bias must be rank-1 of length "
                 << n << ", got " << shape_to_string(bias.shape()));
  Tensor c({m, n});
  Epilogue epi;
  epi.bias = bias.data().data();
  epi.bias_per_row = false;
  epi.act = act;
  epi.leaky_alpha = leaky_alpha;
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmFused, gemm_flops(m, k, n));
  current_backend().gemm_fused(a.data().data(), b.data().data(),
                               c.data().data(), m, k, n,
                               /*transpose_b=*/true, epi);
  return c;
}

Tensor gemm_bias_act_prepacked(const Tensor& a, const PackedWeights& w,
                               const Tensor& bias, EpilogueAct act,
                               float leaky_alpha) {
  ORCO_CHECK(a.rank() == 2, "gemm_bias_act_prepacked requires rank-2 input, "
                                << "got " << shape_to_string(a.shape()));
  const std::size_t m = a.dim(0), k = a.dim(1), n = w.cols;
  ORCO_CHECK(w.rows == k, "gemm_bias_act_prepacked inner dim mismatch: "
                              << shape_to_string(a.shape()) << " x packed "
                              << w.rows << "x" << w.cols);
  ORCO_CHECK(bias.rank() == 1 && bias.dim(0) == n,
             "gemm_bias_act_prepacked bias must be rank-1 of length "
                 << n << ", got " << shape_to_string(bias.shape()));
  Tensor c({m, n});
  Epilogue epi;
  epi.bias = bias.data().data();
  epi.bias_per_row = false;
  epi.act = act;
  epi.leaky_alpha = leaky_alpha;
  OBS_SCOPED_SPAN(obs::KernelOp::kGemmPrepacked, gemm_flops(m, k, n));
  current_backend().gemm_prepacked(a.data().data(), w, c.data().data(), m, k,
                                   n, epi);
  return c;
}

}  // namespace orco::tensor
