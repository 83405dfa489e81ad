// Unit tests for src/tensor: Tensor, GEMM, im2col/col2im, free ops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/im2col.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace orco::tensor {
namespace {

TEST(ShapeTest, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 0u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(TensorTest, ZeroInitialisedConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (const auto v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, FillConstruction) {
  Tensor t({4}, 2.5f);
  for (const auto v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorTest, DataConstructionValidatesSize) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(TensorTest, From2dLaysOutRowMajor) {
  const Tensor t = Tensor::from2d({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.at(1, 0), 4.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
}

TEST(TensorTest, From2dRejectsRagged) {
  EXPECT_THROW(Tensor::from2d({{1, 2}, {3}}), std::invalid_argument);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  common::Pcg32 a(11), b(11);
  const Tensor x = Tensor::randn({16}, a);
  const Tensor y = Tensor::randn({16}, b);
  EXPECT_TRUE(x.allclose(y, 0.0f));
}

TEST(TensorTest, ReshapePreservesDataAndValidates) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  t.reshape({2, 3});
  EXPECT_EQ(t.at(1, 2), 6.0f);
  EXPECT_THROW(t.reshape({7}), std::invalid_argument);
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, AtBoundsChecking) {
  Tensor t({2, 2});
  EXPECT_THROW((void)t.at(2, 0), std::invalid_argument);
  Tensor t4({1, 2, 3, 4});
  EXPECT_NO_THROW((void)t4.at(0, 1, 2, 3));
  EXPECT_THROW((void)t4.at(1, 0, 0, 0), std::invalid_argument);
}

TEST(TensorTest, RowSpanViewsUnderlyingStorage) {
  Tensor t = Tensor::from2d({{1, 2}, {3, 4}});
  auto r = t.row(1);
  r[0] = 9.0f;
  EXPECT_EQ(t.at(1, 0), 9.0f);
}

TEST(TensorTest, SliceRows) {
  const Tensor t = Tensor::from2d({{1, 2}, {3, 4}, {5, 6}});
  const Tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.dim(0), 2u);
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
  EXPECT_THROW((void)t.slice_rows(2, 1), std::invalid_argument);
}

TEST(TensorTest, SliceAndSetOuter) {
  Tensor t({2, 3});
  Tensor row({3}, std::vector<float>{7, 8, 9});
  t.set_outer(1, row);
  const Tensor got = t.slice_outer(1);
  EXPECT_TRUE(got.allclose(row));
  EXPECT_THROW(t.set_outer(2, row), std::invalid_argument);
}

TEST(TensorTest, ElementwiseArithmetic) {
  const Tensor a = Tensor::from({1, 2, 3});
  const Tensor b = Tensor::from({4, 5, 6});
  EXPECT_TRUE((a + b).allclose(Tensor::from({5, 7, 9})));
  EXPECT_TRUE((b - a).allclose(Tensor::from({3, 3, 3})));
  EXPECT_TRUE((a * b).allclose(Tensor::from({4, 10, 18})));
  EXPECT_TRUE((a * 2.0f).allclose(Tensor::from({2, 4, 6})));
  EXPECT_TRUE((a + 1.0f).allclose(Tensor::from({2, 3, 4})));
}

TEST(TensorTest, CompoundAssignmentAndAxpy) {
  Tensor a = Tensor::from({1, 2});
  a += Tensor::from({1, 1});
  a -= Tensor::from({0, 1});
  a *= 3.0f;
  EXPECT_TRUE(a.allclose(Tensor::from({6, 6})));
  a.add_scaled(Tensor::from({1, 2}), 0.5f);
  EXPECT_TRUE(a.allclose(Tensor::from({6.5f, 7.0f})));
}

TEST(TensorTest, ShapeMismatchThrows) {
  const Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW((void)(a + b), std::invalid_argument);
}

TEST(TensorTest, Reductions) {
  const Tensor t = Tensor::from({-1, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 4.0f);
  EXPECT_FLOAT_EQ(t.mean(), 4.0f / 3.0f);
  EXPECT_FLOAT_EQ(t.min(), -1.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_EQ(t.argmax(), 1u);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(14.0f), 1e-5f);
}

TEST(TensorTest, MapAndApply) {
  Tensor t = Tensor::from({1, -2});
  const Tensor m = t.map([](float v) { return v * v; });
  EXPECT_TRUE(m.allclose(Tensor::from({1, 4})));
  t.apply([](float v) { return -v; });
  EXPECT_TRUE(t.allclose(Tensor::from({-1, 2})));
}

TEST(TensorTest, Transpose) {
  const Tensor t = Tensor::from2d({{1, 2, 3}, {4, 5, 6}});
  const Tensor tt = t.transposed();
  EXPECT_EQ(tt.dim(0), 3u);
  EXPECT_EQ(tt.at(2, 1), 6.0f);
  EXPECT_TRUE(tt.transposed().allclose(t));
}

TEST(TensorTest, AllcloseRespectsTolerance) {
  const Tensor a = Tensor::from({1.0f});
  const Tensor b = Tensor::from({1.0001f});
  EXPECT_TRUE(a.allclose(b, 1e-3f));
  EXPECT_FALSE(a.allclose(b, 1e-6f));
  EXPECT_FALSE(a.allclose(Tensor({2})));
}

// ---- GEMM -----------------------------------------------------------------

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(MatmulTest, KnownSmallProduct) {
  const Tensor a = Tensor::from2d({{1, 2}, {3, 4}});
  const Tensor b = Tensor::from2d({{5, 6}, {7, 8}});
  EXPECT_TRUE(matmul(a, b).allclose(Tensor::from2d({{19, 22}, {43, 50}})));
}

TEST(MatmulTest, MatchesNaiveOnRandom) {
  common::Pcg32 rng(21);
  const Tensor a = Tensor::randn({17, 23}, rng);
  const Tensor b = Tensor::randn({23, 11}, rng);
  EXPECT_TRUE(matmul(a, b).allclose(naive_matmul(a, b), 1e-3f));
}

TEST(MatmulTest, TransposedVariants) {
  common::Pcg32 rng(22);
  const Tensor a = Tensor::randn({7, 9}, rng);
  const Tensor b = Tensor::randn({7, 5}, rng);
  // a^T (9x7) * b (7x5)
  EXPECT_TRUE(matmul_tn(a, b).allclose(naive_matmul(a.transposed(), b), 1e-3f));
  const Tensor c = Tensor::randn({5, 9}, rng);
  // a (7x9) * c^T (9x5)
  EXPECT_TRUE(matmul_nt(a, c).allclose(naive_matmul(a, c.transposed()), 1e-3f));
}

TEST(MatmulTest, AccumulateAddsIntoExisting) {
  const Tensor a = Tensor::from2d({{1, 0}, {0, 1}});
  const Tensor b = Tensor::from2d({{2, 3}, {4, 5}});
  Tensor c({2, 2}, 1.0f);
  matmul_accumulate(a, b, c);
  EXPECT_TRUE(c.allclose(Tensor::from2d({{3, 4}, {5, 6}})));
}

TEST(MatmulTest, DimensionMismatchThrows) {
  EXPECT_THROW((void)matmul(Tensor({2, 3}), Tensor({4, 2})),
               std::invalid_argument);
  EXPECT_THROW((void)matmul(Tensor({6}), Tensor({6, 1})),
               std::invalid_argument);
}

/// Runs `gemm` (writing into its argument) once with pooled GEMMs off and
/// once on, and reports whether the two results agree bit for bit.
template <typename Gemm>
bool pooled_equals_serial(std::size_t m, std::size_t n, Gemm&& gemm) {
  std::vector<float> serial(m * n, 0.5f), pooled(m * n, 0.5f);
  set_gemm_parallelism(false);
  gemm(serial.data());
  set_gemm_parallelism(true);
  gemm(pooled.data());
  return std::memcmp(serial.data(), pooled.data(),
                     serial.size() * sizeof(float)) == 0;
}

TEST(MatmulTest, ParallelMatchesSerial) {
  common::Pcg32 rng(23);
  // The Backend contract: thread count never changes a value. 256x600x280
  // is 43M multiply-adds, above the pool's 2^25 threshold, so the second
  // product really splits across the pool.
  {
    const Tensor a = Tensor::randn({256, 600}, rng);
    const Tensor b = Tensor::randn({600, 280}, rng);
    set_gemm_parallelism(false);
    const Tensor serial = matmul(a, b);
    set_gemm_parallelism(true);
    EXPECT_TRUE(serial.allclose(matmul(a, b), 0.0f));
  }
  // Shapes the pooled split cuts differently: a few rows, part of a row
  // block, a 2-D grid and several row blocks over few strips (row parts);
  // n never a whole number of strips and k spanning several k panels.
  // Every shape but m = 1 clears the pool's 2^25 multiply-add threshold;
  // at test-sized memory a single row stays below it and runs inline.
  struct Shape3 {
    std::size_t m, n, k;
  };
  const Shape3 shapes[] = {{1, 1001, 4200},  {8, 1001, 4200},
                           {64, 1001, 530},  {127, 1001, 270},
                           {256, 64, 2100},  {700, 45, 1100}};
  Epilogue epi;
  epi.act = EpilogueAct::kLeakyReLU;
  for (const Backend* backend : {&reference_backend(), &simd_backend()}) {
    for (const Shape3& shape : shapes) {
      const std::size_t m = shape.m, n = shape.n, k = shape.k;
      SCOPED_TRACE(backend->name() + " m=" + std::to_string(m) +
                   " n=" + std::to_string(n) + " k=" + std::to_string(k));
      const Tensor a = Tensor::randn({m, k}, rng);    // A, and Aᵀ's source
      const Tensor b = Tensor::randn({k, n}, rng);    // B
      const Tensor bt = Tensor::randn({n, k}, rng);   // Bᵀ's source
      const Tensor at = Tensor::randn({k, m}, rng);   // Aᵀ's source
      const Tensor bias = Tensor::randn({n}, rng);
      epi.bias = bias.data().data();
      const float* pa = a.data().data();
      const float* pb = b.data().data();
      const float* pbt = bt.data().data();
      EXPECT_TRUE(pooled_equals_serial(m, n, [&](float* c) {
        backend->gemm(pa, pb, c, m, k, n);
      }));
      EXPECT_TRUE(pooled_equals_serial(m, n, [&](float* c) {
        backend->gemm_nt(pa, pbt, c, m, k, n);
      }));
      EXPECT_TRUE(pooled_equals_serial(m, n, [&](float* c) {
        backend->gemm_tn(at.data().data(), pb, c, m, k, n);
      }));
      EXPECT_TRUE(pooled_equals_serial(m, n, [&](float* c) {
        backend->gemm_fused(pa, pbt, c, m, k, n, /*transpose_b=*/true, epi);
      }));
      const PackedWeights packed_b =
          backend->pack_b(pbt, k, n, /*transpose_b=*/true);
      EXPECT_TRUE(pooled_equals_serial(m, n, [&](float* c) {
        backend->gemm_prepacked(pa, packed_b, c, m, k, n, epi);
      }));
      const PackedWeights packed_a = backend->pack_a(pa, m, k);
      EXPECT_TRUE(pooled_equals_serial(m, n, [&](float* c) {
        backend->gemm_prepacked(pb, packed_a, c, m, k, n, epi);
      }));
    }
  }
}

TEST(MatvecTest, MatchesMatmul) {
  common::Pcg32 rng(24);
  const Tensor w = Tensor::randn({6, 4}, rng);
  const Tensor x = Tensor::randn({4}, rng);
  const Tensor y = matvec(w, x);
  const Tensor y2 = matmul(w, x.reshaped({4, 1}));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(y[i], y2.at(i, 0), 1e-4f);
}

// ---- im2col ----------------------------------------------------------------

TEST(Im2colTest, GeometryOutputDims) {
  Conv2dGeometry g{1, 5, 5, 3, 3, 1, 0};
  EXPECT_EQ(g.out_h(), 3u);
  EXPECT_EQ(g.out_w(), 3u);
  Conv2dGeometry strided{1, 5, 5, 3, 3, 2, 1};
  EXPECT_EQ(strided.out_h(), 3u);
}

TEST(Im2colTest, IdentityKernelExtractsPixels) {
  // 1x1 kernel: columns are exactly the flattened image.
  Conv2dGeometry g{1, 2, 2, 1, 1, 1, 0};
  const std::vector<float> img = {1, 2, 3, 4};
  const Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.dim(0), 1u);
  EXPECT_EQ(cols.dim(1), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2colTest, KnownPatchExtraction) {
  // 3x3 image, 2x2 kernel, stride 1, no pad: 4 patches.
  Conv2dGeometry g{1, 3, 3, 2, 2, 1, 0};
  const std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.dim(0), 4u);   // 1*2*2
  EXPECT_EQ(cols.dim(1), 4u);   // 2*2 output positions
  // Patch at (0,0): rows are kernel positions (kh,kw) in order.
  EXPECT_EQ(cols.at(0, 0), 1.0f);  // (0,0)
  EXPECT_EQ(cols.at(1, 0), 2.0f);  // (0,1)
  EXPECT_EQ(cols.at(2, 0), 4.0f);  // (1,0)
  EXPECT_EQ(cols.at(3, 0), 5.0f);  // (1,1)
  // Patch at (1,1) (last output position).
  EXPECT_EQ(cols.at(0, 3), 5.0f);
  EXPECT_EQ(cols.at(3, 3), 9.0f);
}

TEST(Im2colTest, PaddingYieldsZeros) {
  Conv2dGeometry g{1, 2, 2, 3, 3, 1, 1};
  const std::vector<float> img = {1, 2, 3, 4};
  const Tensor cols = im2col(img, g);
  // Top-left output position, kernel element (0,0) reads padded zero.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Kernel centre (1,1) over output (0,0) reads pixel (0,0).
  EXPECT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Im2colTest, Col2imIsAdjointOfIm2col) {
  // <im2col(x), C> == <x, col2im(C)> for random x and C — the defining
  // adjoint property that makes conv backward correct.
  common::Pcg32 rng(31);
  const Conv2dGeometry g{2, 6, 5, 3, 3, 2, 1};
  const Tensor x = Tensor::randn({2 * 6 * 5}, rng);
  const Tensor cols = im2col(x.data(), g);
  const Tensor c = Tensor::randn(cols.shape(), rng);

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * c[i];
  }
  Tensor folded({2 * 6 * 5});
  col2im(c, g, folded.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * folded[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2colTest, SizeMismatchThrows) {
  Conv2dGeometry g{1, 4, 4, 3, 3, 1, 0};
  const std::vector<float> wrong(7);
  EXPECT_THROW((void)im2col(wrong, g), std::invalid_argument);
}

// ---- free ops ---------------------------------------------------------------

TEST(OpsTest, SoftmaxRowsSumToOne) {
  common::Pcg32 rng(41);
  const Tensor logits = Tensor::randn({5, 9}, rng, 0.0f, 3.0f);
  const Tensor p = softmax_rows(logits);
  for (std::size_t i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (const auto v : p.row(i)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  const Tensor a = Tensor::from2d({{1, 2, 3}});
  const Tensor b = Tensor::from2d({{1001, 1002, 1003}});
  EXPECT_TRUE(softmax_rows(a).allclose(softmax_rows(b), 1e-5f));
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  common::Pcg32 rng(42);
  const Tensor logits = Tensor::randn({3, 7}, rng);
  const Tensor lsm = log_softmax_rows(logits);
  const Tensor sm = softmax_rows(logits);
  for (std::size_t i = 0; i < lsm.numel(); ++i) {
    EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-4f);
  }
}

TEST(OpsTest, ArgmaxRows) {
  const Tensor t = Tensor::from2d({{1, 5, 2}, {9, 0, 3}});
  const auto am = argmax_rows(t);
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);
}

TEST(OpsTest, ClampBoundsValues) {
  const Tensor t = Tensor::from({-2, 0.5f, 7});
  EXPECT_TRUE(clamp(t, 0.0f, 1.0f).allclose(Tensor::from({0, 0.5f, 1})));
  EXPECT_THROW((void)clamp(t, 1.0f, 0.0f), std::invalid_argument);
}

TEST(OpsTest, MseKnownValue) {
  const Tensor a = Tensor::from({0, 0});
  const Tensor b = Tensor::from({3, 4});
  EXPECT_FLOAT_EQ(mse(a, b), 12.5f);
}

TEST(OpsTest, ConcatRows) {
  const Tensor a = Tensor::from2d({{1, 2}});
  const Tensor b = Tensor::from2d({{3, 4}, {5, 6}});
  const Tensor c = concat_rows({a, b});
  EXPECT_EQ(c.dim(0), 3u);
  EXPECT_EQ(c.at(2, 1), 6.0f);
  EXPECT_THROW((void)concat_rows({a, Tensor({1, 3})}), std::invalid_argument);
}

TEST(OpsTest, ConcatRowsRejectsMalformedInput) {
  EXPECT_THROW((void)concat_rows({}), std::invalid_argument);
  // Rank mismatches anywhere in the list, including the first part.
  EXPECT_THROW((void)concat_rows({Tensor::from({1, 2, 3})}),
               std::invalid_argument);
  const Tensor a = Tensor::from2d({{1, 2}});
  EXPECT_THROW((void)concat_rows({a, Tensor::from({1, 2})}),
               std::invalid_argument);
}

TEST(OpsTest, StackRowsSingleInputFastPath) {
  // Regression for the single-part fast path: the sole tensor is copied
  // straight through (no zero-init + overwrite), for both accepted ranks,
  // and malformed single parts are still rejected.
  const Tensor flat = Tensor::from({1, 2, 3});
  const Tensor s1 = stack_rows({flat});
  ASSERT_EQ(s1.rank(), 2u);
  EXPECT_EQ(s1.dim(0), 1u);
  EXPECT_EQ(s1.dim(1), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(s1[i], flat[i]);

  const Tensor row = Tensor::from2d({{4, 5, 6}});
  const Tensor s2 = stack_rows({row});
  ASSERT_EQ(s2.rank(), 2u);
  EXPECT_EQ(s2.dim(0), 1u);
  EXPECT_EQ(s2.dim(1), 3u);
  EXPECT_EQ(s2.at(0, 2), 6.0f);

  // A rank-2 multi-row sole part is malformed, same as on the general path.
  EXPECT_THROW((void)stack_rows({Tensor({2, 3})}), std::invalid_argument);
}

TEST(TensorTest, RowCopyExtractsOneRow) {
  const Tensor t = Tensor::from2d({{1, 2, 3}, {4, 5, 6}});
  const Tensor r = t.row_copy(1);
  ASSERT_EQ(r.rank(), 1u);
  ASSERT_EQ(r.numel(), 3u);
  EXPECT_EQ(r[0], 4.0f);
  EXPECT_EQ(r[2], 6.0f);
  EXPECT_THROW((void)t.row_copy(2), std::invalid_argument);
  EXPECT_THROW((void)Tensor::from({1, 2}).row_copy(0), std::invalid_argument);
}

TEST(TensorTest, ResizeChangesNumelAndReusesCapacity) {
  Tensor t({4, 8});
  t.fill(7.0f);
  const float* before = t.data().data();
  t.resize({2, 8});  // shrink: storage kept
  EXPECT_EQ(t.numel(), 16u);
  EXPECT_EQ(t.data().data(), before);
  EXPECT_EQ(t[0], 7.0f);
  t.resize({4, 8});  // regrow within capacity: storage kept
  EXPECT_EQ(t.numel(), 32u);
  EXPECT_EQ(t.data().data(), before);
  t.resize({16, 16});  // genuine growth
  EXPECT_EQ(t.numel(), 256u);
  EXPECT_EQ(t.dim(0), 16u);
}

TEST(OpsTest, StackRowsRejectsMalformedInput) {
  EXPECT_THROW((void)stack_rows({}), std::invalid_argument);
  EXPECT_THROW((void)stack_rows({Tensor{}}), std::invalid_argument);
  const Tensor a = Tensor::from({1, 2, 3});
  // Width mismatch and a rank-2 multi-row part are both rejected.
  EXPECT_THROW((void)stack_rows({a, Tensor::from({1, 2})}),
               std::invalid_argument);
  EXPECT_THROW((void)stack_rows({a, Tensor({2, 3})}), std::invalid_argument);
  const Tensor s = stack_rows({a, Tensor::from({4, 5, 6})});
  EXPECT_EQ(s.dim(0), 2u);
  EXPECT_EQ(s.at(1, 2), 6.0f);
}

}  // namespace
}  // namespace orco::tensor
