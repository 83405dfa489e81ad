// The "simd" backend: the packed-panel machinery of tensor/gemm_panels.h
// with the micro-kernel written in explicit SIMD intrinsics — FMA register
// tiles instead of trusting the auto-vectorizer.
//
// The instruction set is dispatched at COMPILE time, best tier available:
//
//   AVX-512F        8×32 tile: 16 zmm accumulators, one broadcast + two
//                   fused multiply-adds per row per k step. A bf16 k step
//                   is 64 B of B: one look-ahead hint per line.
//   AVX2 + FMA      6×16 tile: 12 ymm accumulators (+2 B, +1 broadcast
//                   stays within the 16-register file). 32 B per bf16 k
//                   step: two hints per line.
//   NEON (aarch64)  8×8 tile: 16 float32x4 accumulators. 16 B per bf16 k
//                   step: four hints per line.
//   otherwise       a 4×32 scalar tile — builds with -DORCO_DISABLE_SIMD
//                   (or no SIMD target flags at all) still link and pass,
//                   just without the speedup. 64 B per bf16 k step, like
//                   AVX-512.
//
// Every tier calls detail::prefetch_panel once per k step: on bf16 pack_b
// panels it hints the cache to fetch the stream kPanelLookAheadBytes (4 KB)
// ahead, so a decode's weight reads overlap DRAM latency instead of
// exposing it; on float strips packed on the fly it does nothing. A hint
// loads nothing, so no value changes.
//
// Each tier's IsaPacking hands pack_b_panel (gemm_panels.h) its block move
// for a transposed B, into float strips or bf16 panels: AVX-512 transposes
// 16×16 blocks, AVX2 8×8 blocks. NEON and the scalar tier have none and
// pack through the portable loop, which also packs every fringe. The panels
// hold the same bytes either way (tensor_backend_test checks them against
// an index-formula oracle).
//
// This file is compiled with the host's native flags when
// ORCO_NATIVE_KERNELS is on (the CMake default), so __AVX512F__/__AVX2__/
// __ARM_NEON reflect the build machine; cross-building for a generic x86-64
// target lands on the scalar tier automatically.
//
// Numerical contract: panel_run makes each output element ONE
// reduction chain in ascending k seeded from C — batched-vs-single,
// prepacked-vs-on-the-fly (on the bf16-rounded weight: pack_b panels are
// bf16, widened exactly by each tier's load_b before the same FMA) and all
// three layouts agree BITWISE within this backend. No tier uses a bf16
// dot-product instruction (vdpbf16ps, AMX): those pair products and
// reorder the accumulation. Versus "reference" the FMA tiers keep products
// unrounded before each add, so the comparison is ULP-bounded rather than
// bitwise; the scalar tier runs reference's separate mul+add and stays
// bitwise with it (tensor_backend_test pins both). The epilogue runs outside
// the FMA chain, once per tile, on detail::apply_act's expressions, so fused
// activations match nn/activations.h exactly.
#include "tensor/backend.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "tensor/gemm_panels.h"

#if !defined(ORCO_DISABLE_SIMD) && defined(__AVX512F__)
#include <immintrin.h>
#elif !defined(ORCO_DISABLE_SIMD) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#elif !defined(ORCO_DISABLE_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace orco::tensor {

namespace {

#if !defined(ORCO_DISABLE_SIMD) && defined(__AVX512F__)

constexpr const char* kIsa = "avx512";
constexpr std::size_t kIsaMr = 8;    // 8 rows × 2 zmm = 16 accumulators
constexpr std::size_t kIsaNr = 32;   // two 16-lane vectors
constexpr std::size_t kIsaMc = 128;  // row block (multiple of kIsaMr)

// 16 B panel lanes as f32. A bf16 lane is zero-extended to 32 bits and
// shifted into the high half: exact.
inline __m512 load_b(const float* p) { return _mm512_loadu_ps(p); }
// GCC 12's avx512fintrin.h seeds the unmasked intrinsics used from here to
// the end of IsaPacking from a self-initialised "undefined" vector and then
// warns that it is (or may be) used uninitialised (GCC bug 105593); every
// lane is overwritten.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
inline __m512 load_b(const std::uint16_t* p) {
  const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
}

// 16 f32 lanes as panel elements. A bf16 lane is rounded by to_bf16's
// integer recipe (add 0x7fff plus the kept lsb, keep the high half; a NaN
// keeps its high half with the quiet bit set), then narrowed by vpmovdw:
// the same bits as the scalar function, subnormals included.
inline void store_panel(float* p, __m512 v) { _mm512_storeu_ps(p, v); }
inline void store_panel(std::uint16_t* p, __m512 v) {
  const __m512i bits = _mm512_castps_si512(v);
  const __m512i high = _mm512_srli_epi32(bits, 16);
  const __mmask16 nan = _mm512_cmpgt_epi32_mask(
      _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff)),
      _mm512_set1_epi32(0x7f800000));
  const __m512i round = _mm512_add_epi32(
      _mm512_set1_epi32(0x7fff),
      _mm512_and_si512(high, _mm512_set1_epi32(1)));
  const __m512i rounded = _mm512_srli_epi32(_mm512_add_epi32(bits, round), 16);
  const __m512i quiet = _mm512_or_si512(high, _mm512_set1_epi32(0x0040));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(p),
      _mm512_cvtepi32_epi16(_mm512_mask_blend_epi32(nan, rounded, quiet)));
}

// pack_b_panel's block move (gemm_panels.h): a 16x16 transpose through
// zmm registers.
struct IsaPacking {
  static constexpr std::size_t kTransposeB = 16;

  template <class BElem>
  static void transpose_b(const float* src, std::size_t lds, BElem* dst,
                          std::size_t ldd) {
    __m512 r[16];
    __m512 u[16];
    for (std::size_t i = 0; i < 16; ++i) r[i] = _mm512_loadu_ps(src + i * lds);
    // Per 128-bit lane L, u[4g + q] = rows 4g..4g+3 at column 4L + q.
    for (std::size_t g = 0; g < 4; ++g) {
      const __m512* rg = r + 4 * g;
      const __m512 t0 = _mm512_unpacklo_ps(rg[0], rg[1]);
      const __m512 t1 = _mm512_unpackhi_ps(rg[0], rg[1]);
      const __m512 t2 = _mm512_unpacklo_ps(rg[2], rg[3]);
      const __m512 t3 = _mm512_unpackhi_ps(rg[2], rg[3]);
      u[4 * g + 0] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * g + 1] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      u[4 * g + 2] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * g + 3] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    }
    // Output row 4L + q joins lane L of u[q], u[4+q], u[8+q], u[12+q].
    for (std::size_t q = 0; q < 4; ++q) {
      const __m512 x_lo = _mm512_shuffle_f32x4(u[q], u[4 + q], 0x44);
      const __m512 x_hi = _mm512_shuffle_f32x4(u[q], u[4 + q], 0xee);
      const __m512 y_lo = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0x44);
      const __m512 y_hi = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0xee);
      store_panel(dst + (0 + q) * ldd, _mm512_shuffle_f32x4(x_lo, y_lo, 0x88));
      store_panel(dst + (4 + q) * ldd, _mm512_shuffle_f32x4(x_lo, y_lo, 0xdd));
      store_panel(dst + (8 + q) * ldd, _mm512_shuffle_f32x4(x_hi, y_hi, 0x88));
      store_panel(dst + (12 + q) * ldd,
                  _mm512_shuffle_f32x4(x_hi, y_hi, 0xdd));
    }
  }
};
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// One Rows×32 tile over a packed k panel, accumulating straight into C
// (ldc-strided, full column width only). ~1 broadcast + 2 FMAs per row per
// k step; B is streamed once per tile from the packed panel. Rows is a
// template parameter so partial row tiles (a batch-1 serving decode) keep
// only the accumulators they need instead of paying the full kIsaMr tile.
template <std::size_t Rows, class BElem>
void isa_ukernel(const float* ap, const BElem* bp, std::size_t kc, float* c,
                 std::size_t ldc) {
  __m512 acc[Rows][2];
  for (std::size_t i = 0; i < Rows; ++i) {
    acc[i][0] = _mm512_loadu_ps(c + i * ldc);
    acc[i][1] = _mm512_loadu_ps(c + i * ldc + 16);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    detail::prefetch_panel(bp + p * kIsaNr);
    const __m512 b0 = load_b(bp + p * kIsaNr);
    const __m512 b1 = load_b(bp + p * kIsaNr + 16);
    const float* a = ap + p * kIsaMr;  // panel stride is kIsaMr regardless
    for (std::size_t i = 0; i < Rows; ++i) {
      const __m512 ai = _mm512_set1_ps(a[i]);
      acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
    }
  }
  for (std::size_t i = 0; i < Rows; ++i) {
    _mm512_storeu_ps(c + i * ldc, acc[i][0]);
    _mm512_storeu_ps(c + i * ldc + 16, acc[i][1]);
  }
}

#elif !defined(ORCO_DISABLE_SIMD) && defined(__AVX2__) && defined(__FMA__)

constexpr const char* kIsa = "avx2";
constexpr std::size_t kIsaMr = 6;   // 6 rows × 2 ymm = 12 accumulators,
constexpr std::size_t kIsaNr = 16;  // +2 B + 1 broadcast fits 16 ymm regs
constexpr std::size_t kIsaMc = 96;  // row block (multiple of kIsaMr)

// 8 B panel lanes as f32; a bf16 lane widens exactly as in the AVX-512
// tier, with the 256-bit zero-extend and shift.
inline __m256 load_b(const float* p) { return _mm256_loadu_ps(p); }
inline __m256 load_b(const std::uint16_t* p) {
  const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

// 8 f32 lanes as panel elements, rounded as in the AVX-512 tier; every
// 32-bit lane holds at most 0xffff, so the saturating pack is exact.
inline void store_panel(float* p, __m256 v) { _mm256_storeu_ps(p, v); }
inline void store_panel(std::uint16_t* p, __m256 v) {
  const __m256i bits = _mm256_castps_si256(v);
  const __m256i high = _mm256_srli_epi32(bits, 16);
  const __m256i nan = _mm256_cmpgt_epi32(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff)),
      _mm256_set1_epi32(0x7f800000));
  const __m256i round = _mm256_add_epi32(
      _mm256_set1_epi32(0x7fff),
      _mm256_and_si256(high, _mm256_set1_epi32(1)));
  const __m256i rounded = _mm256_srli_epi32(_mm256_add_epi32(bits, round), 16);
  const __m256i quiet = _mm256_or_si256(high, _mm256_set1_epi32(0x0040));
  const __m256i h = _mm256_blendv_epi8(rounded, quiet, nan);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm_packus_epi32(_mm256_castsi256_si128(h),
                                    _mm256_extracti128_si256(h, 1)));
}

// pack_b_panel's block move (gemm_panels.h): an 8x8 transpose through ymm
// registers.
struct IsaPacking {
  static constexpr std::size_t kTransposeB = 8;

  template <class BElem>
  static void transpose_b(const float* src, std::size_t lds, BElem* dst,
                          std::size_t ldd) {
    __m256 r[8];
    __m256 u[8];
    for (std::size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
    // Per 128-bit lane L, u[4g + q] = rows 4g..4g+3 at column 4L + q.
    for (std::size_t g = 0; g < 2; ++g) {
      const __m256* rg = r + 4 * g;
      const __m256 t0 = _mm256_unpacklo_ps(rg[0], rg[1]);
      const __m256 t1 = _mm256_unpackhi_ps(rg[0], rg[1]);
      const __m256 t2 = _mm256_unpacklo_ps(rg[2], rg[3]);
      const __m256 t3 = _mm256_unpackhi_ps(rg[2], rg[3]);
      u[4 * g + 0] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * g + 1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      u[4 * g + 2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * g + 3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (std::size_t q = 0; q < 4; ++q) {
      store_panel(dst + q * ldd, _mm256_permute2f128_ps(u[q], u[4 + q], 0x20));
      store_panel(dst + (4 + q) * ldd,
                  _mm256_permute2f128_ps(u[q], u[4 + q], 0x31));
    }
  }
};

template <std::size_t Rows, class BElem>
void isa_ukernel(const float* ap, const BElem* bp, std::size_t kc, float* c,
                 std::size_t ldc) {
  __m256 acc[Rows][2];
  for (std::size_t i = 0; i < Rows; ++i) {
    acc[i][0] = _mm256_loadu_ps(c + i * ldc);
    acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    detail::prefetch_panel(bp + p * kIsaNr);
    const __m256 b0 = load_b(bp + p * kIsaNr);
    const __m256 b1 = load_b(bp + p * kIsaNr + 8);
    const float* a = ap + p * kIsaMr;  // panel stride is kIsaMr regardless
    for (std::size_t i = 0; i < Rows; ++i) {
      const __m256 ai = _mm256_set1_ps(a[i]);
      acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
    }
  }
  for (std::size_t i = 0; i < Rows; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}

#elif !defined(ORCO_DISABLE_SIMD) && defined(__ARM_NEON)

constexpr const char* kIsa = "neon";
constexpr std::size_t kIsaMr = 8;    // 8 rows × 2 q-regs = 16 accumulators
constexpr std::size_t kIsaNr = 8;    // two 4-lane vectors
constexpr std::size_t kIsaMc = 128;  // row block (multiple of kIsaMr)

// 4 B panel lanes as f32; a bf16 lane is widened by a long shift left of
// 16 (exact).
inline float32x4_t load_b(const float* p) { return vld1q_f32(p); }
inline float32x4_t load_b(const std::uint16_t* p) {
  return vreinterpretq_f32_u32(vshll_n_u16(vld1_u16(p), 16));
}

// No block move: pack_b_panel's portable loop packs every panel.
struct IsaPacking {
  static constexpr std::size_t kTransposeB = 0;
};

template <std::size_t Rows, class BElem>
void isa_ukernel(const float* ap, const BElem* bp, std::size_t kc, float* c,
                 std::size_t ldc) {
  float32x4_t acc[Rows][2];
  for (std::size_t i = 0; i < Rows; ++i) {
    acc[i][0] = vld1q_f32(c + i * ldc);
    acc[i][1] = vld1q_f32(c + i * ldc + 4);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    detail::prefetch_panel(bp + p * kIsaNr);
    const float32x4_t b0 = load_b(bp + p * kIsaNr);
    const float32x4_t b1 = load_b(bp + p * kIsaNr + 4);
    const float* a = ap + p * kIsaMr;  // panel stride is kIsaMr regardless
    for (std::size_t i = 0; i < Rows; ++i) {
      const float32x4_t ai = vdupq_n_f32(a[i]);
      acc[i][0] = vfmaq_f32(acc[i][0], ai, b0);
      acc[i][1] = vfmaq_f32(acc[i][1], ai, b1);
    }
  }
  for (std::size_t i = 0; i < Rows; ++i) {
    vst1q_f32(c + i * ldc, acc[i][0]);
    vst1q_f32(c + i * ldc + 4, acc[i][1]);
  }
}

#else

constexpr const char* kIsa = "scalar-fallback";
constexpr std::size_t kIsaMr = 4;   // 4 rows × 32 columns: the inner loop
constexpr std::size_t kIsaNr = 32;  // auto-vectorizes over j
constexpr std::size_t kIsaMc = 64;  // row block (multiple of kIsaMr)

// No block move: pack_b_panel's portable loop packs every panel.
struct IsaPacking {
  static constexpr std::size_t kTransposeB = 0;
};

// The reference kernel's reduction expression, acc += a * b with the
// product rounded before the add (this TU is built with -ffp-contract=off),
// in ascending k: each output element's chain is the reference ikj
// kernel's, so this tier stays bitwise-equal to "reference". A bf16 panel
// is widened by detail::widen (std::bit_cast of the value shifted up 16
// bits).
template <std::size_t Rows, class BElem>
void isa_ukernel(const float* ap, const BElem* bp, std::size_t kc, float* c,
                 std::size_t ldc) {
  float acc[Rows][kIsaNr];
  for (std::size_t i = 0; i < Rows; ++i) {
    for (std::size_t j = 0; j < kIsaNr; ++j) acc[i][j] = c[i * ldc + j];
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kIsaMr;  // panel stride is kIsaMr regardless
    const BElem* b = bp + p * kIsaNr;
    detail::prefetch_panel(b);
    for (std::size_t ii = 0; ii < Rows; ++ii) {
      const float aip = a[ii];
      for (std::size_t jj = 0; jj < kIsaNr; ++jj) {
        acc[ii][jj] += aip * detail::widen(b[jj]);
      }
    }
  }
  for (std::size_t i = 0; i < Rows; ++i) {
    for (std::size_t j = 0; j < kIsaNr; ++j) c[i * ldc + j] = acc[i][j];
  }
}

#endif

// Runtime row count -> compile-time Rows instantiation, per B element
// type. rows is always in [1, kIsaMr] (panel_run never emits an empty
// tile).
template <class BElem>
using RowKernel = void (*)(const float*, const BElem*, std::size_t, float*,
                           std::size_t);

template <class BElem, std::size_t... R>
constexpr std::array<RowKernel<BElem>, sizeof...(R)> make_row_kernels(
    std::index_sequence<R...>) {
  return {&isa_ukernel<R + 1, BElem>...};
}

template <class BElem>
void run_rows(std::size_t rows, const float* ap, const BElem* bp,
              std::size_t kc, float* c, std::size_t ldc) {
  static constexpr std::array<RowKernel<BElem>, kIsaMr> kKernels =
      make_row_kernels<BElem>(std::make_index_sequence<kIsaMr>{});
  kKernels[rows - 1](ap, bp, kc, c, ldc);
}

// act(v + bias) over a rows x cols block of C at output position (row0,
// col0), with the activation fixed at compile time: each element runs
// detail::apply_act's expression for Act, so the values are the unfused
// sweep's. The loops hold no branch, so the vectorizer turns bias plus
// None, ReLU or LeakyReLU into vector adds, compares and blends; sigmoid
// and tanh still call std::exp / std::tanh per element.
template <EpilogueAct Act>
void epilogue_block(float* c, std::size_t ldc, std::size_t rows,
                    std::size_t cols, const Epilogue& epi, std::size_t row0,
                    std::size_t col0) {
  const float alpha = epi.leaky_alpha;
  for (std::size_t ii = 0; ii < rows; ++ii) {
    float* ci = c + ii * ldc;
    if (epi.bias == nullptr) {
      for (std::size_t jj = 0; jj < cols; ++jj) {
        ci[jj] = detail::apply_act(ci[jj], Act, alpha);
      }
    } else if (epi.bias_per_row) {
      const float b = epi.bias[row0 + ii];
      for (std::size_t jj = 0; jj < cols; ++jj) {
        ci[jj] = detail::apply_act(ci[jj] + b, Act, alpha);
      }
    } else {
      const float* b = epi.bias + col0;
      for (std::size_t jj = 0; jj < cols; ++jj) {
        ci[jj] = detail::apply_act(ci[jj] + b[jj], Act, alpha);
      }
    }
  }
}

// The tile epilogue: one switch on the activation per tile, not per element.
void apply_tile_epilogue(float* c, std::size_t ldc, std::size_t rows,
                         std::size_t cols, const Epilogue& epi,
                         std::size_t row0, std::size_t col0) {
  switch (epi.act) {
    case EpilogueAct::kNone:
      return epilogue_block<EpilogueAct::kNone>(c, ldc, rows, cols, epi, row0,
                                                col0);
    case EpilogueAct::kReLU:
      return epilogue_block<EpilogueAct::kReLU>(c, ldc, rows, cols, epi, row0,
                                                col0);
    case EpilogueAct::kLeakyReLU:
      return epilogue_block<EpilogueAct::kLeakyReLU>(c, ldc, rows, cols, epi,
                                                     row0, col0);
    case EpilogueAct::kSigmoid:
      return epilogue_block<EpilogueAct::kSigmoid>(c, ldc, rows, cols, epi,
                                                   row0, col0);
    case EpilogueAct::kTanh:
      return epilogue_block<EpilogueAct::kTanh>(c, ldc, rows, cols, epi, row0,
                                                col0);
  }
}

struct SimdTraits : IsaPacking {
  static constexpr std::size_t kMr = kIsaMr;
  static constexpr std::size_t kNr = kIsaNr;
  static constexpr std::size_t kKc = 256;   // k panel: kKc*kNr B floats in L1
  static constexpr std::size_t kMc = kIsaMc;
  static constexpr std::size_t kNc = 1024;  // col panel: packed B bound

  // Full-width tiles run the intrinsic kernel straight on C with exactly
  // `rows` accumulator rows (a batch-1 serving decode pays for one row, not
  // kMr); narrow column fringes run it on a stack buffer seeded from C
  // (zeros on the padding) and write back clipped. Either way the
  // per-element reduction is the same FMA chain, so interior and fringe
  // stay mutually consistent. Both then run the one tile epilogue on C
  // while the tile is still hot.
  template <class BElem>
  static void tile(const float* ap, const BElem* bp, std::size_t kc, float* c,
                   std::size_t ldc, std::size_t rows, std::size_t cols,
                   const Epilogue* epi, std::size_t row0, std::size_t col0) {
    if (cols == kNr) {
      run_rows(rows, ap, bp, kc, c, ldc);
    } else {
      float tmp[kMr * kNr];
      for (std::size_t ii = 0; ii < rows; ++ii) {
        for (std::size_t jj = 0; jj < kNr; ++jj) {
          tmp[ii * kNr + jj] = jj < cols ? c[ii * ldc + jj] : 0.0f;
        }
      }
      run_rows(rows, ap, bp, kc, tmp, kNr);
      for (std::size_t ii = 0; ii < rows; ++ii) {
        std::copy_n(tmp + ii * kNr, cols, c + ii * ldc);
      }
    }
    if (epi) apply_tile_epilogue(c, ldc, rows, cols, *epi, row0, col0);
  }
};

class SimdBackend final : public Backend {
 public:
  std::string name() const override { return "simd"; }

  void gemm(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n) const override {
    detail::panel_run<SimdTraits>({a, k, false}, b, n, false, c, m, k, n,
                                  nullptr, nullptr);
  }

  void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const override {
    detail::panel_run<SimdTraits>({a, k, false}, b, k, true, c, m, k, n,
                                  nullptr, nullptr);
  }

  void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const override {
    detail::panel_run<SimdTraits>({a, m, true}, b, n, false, c, m, k, n,
                                  nullptr, nullptr);
  }

  // gemm_tn's walk with the step fused into every tile. A k past one k
  // panel (a batch over kKc) would need each tile's partial sums kept
  // across panels, so it takes the base scratch-gradient path instead.
  void gemm_tn_sgd(const float* a, const float* b, float* w, float* v,
                   std::size_t m, std::size_t k, std::size_t n,
                   const SgdUpdate& update) const override {
    if (k == 0 || k > SimdTraits::kKc) {
      Backend::gemm_tn_sgd(a, b, w, v, m, k, n, update);
      return;
    }
    const detail::TileSgd sgd{w, v, update};
    detail::panel_run<SimdTraits>({a, m, true}, b, n, false, nullptr, m, k, n,
                                  nullptr, nullptr, &sgd);
  }

  void gemm_fused(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool transpose_b,
                  const Epilogue& epilogue) const override {
    std::fill(c, c + m * n, 0.0f);
    detail::panel_run<SimdTraits>({a, k, false}, b, transpose_b ? k : n,
                                  transpose_b, c, m, k, n, &epilogue, nullptr);
  }

  PackedWeights pack_b(const float* b, std::size_t k, std::size_t n,
                       bool transpose_b) const override {
    PackedWeights packed;
    detail::pack_b_full<SimdTraits>(this, b, k, n, transpose_b, packed);
    return packed;
  }

  void gemm_prepacked(const float* a, const PackedWeights& packed, float* c,
                      std::size_t m, std::size_t k, std::size_t n,
                      const Epilogue& epilogue) const override {
    ORCO_CHECK(packed.owner == this,
               "PackedWeights were packed by a different backend");
    ORCO_CHECK(packed.rows == k && packed.cols == n,
               "prepacked B is " << packed.rows << "x" << packed.cols
                                 << ", GEMM wants " << k << "x" << n);
    std::fill(c, c + m * n, 0.0f);
    detail::panel_run<SimdTraits, std::uint16_t>(
        {a, k, false}, nullptr, 0, false, c, m, k, n, &epilogue,
        packed.bf16.data());
  }
};

}  // namespace

const Backend& simd_backend() {
  static const SimdBackend backend;
  return backend;
}

const char* simd_isa() { return kIsa; }

}  // namespace orco::tensor
