// Packed-panel GEMM machinery — the cache-tiling skeleton the simd backend
// (backend_simd.cpp) instantiates.
//
// The driver and the packing routines are templated over a Traits type so
// each ISA tier picks its own register-tile geometry while reusing one
// panel walk:
//
//   struct Traits {
//     static constexpr std::size_t kMr;  // micro-tile rows
//     static constexpr std::size_t kNr;  // micro-tile cols
//     static constexpr std::size_t kKc;  // k panel depth
//     static constexpr std::size_t kMc;  // row block per packed A panel
//     static constexpr std::size_t kNc;  // col panel width
//     // One kMr x kNr output tile accumulated over a packed k panel:
//     // must seed the accumulators from C (zero on the fringe past
//     // rows/cols), reduce the panel in ascending k order, apply `epi`
//     // when non-null (the driver passes it only on the last k panel) and
//     // write back clipped to rows x cols. BElem is the B panel's element
//     // type: float for strips packed on the fly, std::uint16_t (bf16) for
//     // pack_b panels, widened exactly to f32 before each multiply-add.
//     // Once per k step the kernel passes that step's B row to
//     // prefetch_panel: on a bf16 panel it hints the cache to fetch the
//     // stream kPanelLookAheadBytes (a constexpr 4 KB, not a setting)
//     // ahead, at an address formed as std::uintptr_t that may lie past
//     // the panels (a prefetch never faults and loads nothing); the float
//     // overload compiles to nothing. AVX2 (32 B per k step) and NEON
//     // (16 B) thus give a 64-byte line 2-4 hints.
//     template <class BElem>
//     static void tile(const float* ap, const BElem* bp, std::size_t kc,
//                      float* c, std::size_t ldc, std::size_t rows,
//                      std::size_t cols, const Epilogue* epi,
//                      std::size_t row0, std::size_t col0);
//
//     // An in-register transpose for pack_b_panel; 0 leaves the whole
//     // pack to its portable loop.
//     static constexpr std::size_t kTransposeB;  // T, or 0
//     // Moves the T x T block src[r * lds + c] to dst[c * ldd + r] as
//     // to_panel<BElem> values (to_bf16's integer recipe on a bf16 panel).
//     template <class BElem>
//     static void transpose_b(const float* src, std::size_t lds, BElem* dst,
//                             std::size_t ldd);
//   };
//
// The packed layout is a pure function of (kMr, kNr, kKc, kMc, kNc): the
// transpose only moves whole blocks of it through registers, and the
// portable loop packs the fringes (and everything on tiers without one),
// so the panels are the same bytes either way. PackedWeights::owner keeps
// panels from reaching another backend.
//
// Numerical contract (inherited by every instantiation): each output
// element is ONE sequential reduction chain in ascending k order — the
// driver seeds tiles from C and visits k panels in order — so results are
// independent of m, n, tile position and thread count. Whether a tier
// agrees bitwise with the reference ikj kernel is then decided solely by
// its tile() arithmetic (the scalar tier's separate mul+add does; the FMA
// tiers' fused multiply-add does not). A bf16 panel feeds that chain the
// value from_bf16(to_bf16(w)) for each weight w, so a prepacked GEMM
// equals the on-the-fly GEMM on the bf16-rounded B bitwise. The look-ahead
// hint loads nothing and changes no value.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/thread_pool.h"
#include "tensor/backend.h"
#include "tensor/workspace.h"

namespace orco::tensor::detail {

/// The pool a GEMM of m·n·k multiply-adds splits across, or nullptr when
/// the problem is small or the calling thread disabled parallelism
/// (set_thread_gemm_parallelism). Defined in backend.cpp.
common::ThreadPool* gemm_pool(std::size_t m, std::size_t n, std::size_t k);

constexpr std::size_t round_up(std::size_t v, std::size_t t) {
  return (v + t - 1) / t * t;
}

/// Epilogue activation — must mirror nn/activations.h exactly: fusing an
/// activation into the GEMM epilogue may not change a single value versus
/// the standalone layer.
inline float apply_act(float v, EpilogueAct act, float alpha) {
  switch (act) {
    case EpilogueAct::kNone:      return v;
    case EpilogueAct::kReLU:      return v > 0.0f ? v : 0.0f;
    case EpilogueAct::kLeakyReLU: return v > 0.0f ? v : alpha * v;
    case EpilogueAct::kSigmoid:   return 1.0f / (1.0f + std::exp(-v));
    case EpilogueAct::kTanh:      return std::tanh(v);
  }
  return v;
}

/// The left GEMM operand: f32 row-major (m x k), or its transpose source
/// (k x m) when `trans`. panel_task packs it on the fly.
struct AView {
  const float* f32 = nullptr;
  std::size_t lda = 0;
  bool trans = false;
};

/// Packs A[i0:i0+mc, p0:p0+kc] into kMr-interleaved panels: panel ip holds
/// kMr consecutive rows laid out [p][ii], zero-padded past mc. Row p of a
/// transposed A's (k x m) source holds a panel's rows side by side, so that
/// branch copies one contiguous run per k step.
template <std::size_t MR>
void pack_a_panel(const AView& a, std::size_t i0, std::size_t p0,
                  std::size_t mc, std::size_t kc, float* ap) {
  for (std::size_t ip = 0; ip < mc; ip += MR) {
    float* dst = ap + (ip / MR) * (MR * kc);
    const std::size_t rows = mc - ip < MR ? mc - ip : MR;
    if (a.trans) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = a.f32 + (p0 + p) * a.lda + i0 + ip;
        float* row = dst + p * MR;
        for (std::size_t ii = 0; ii < rows; ++ii) row[ii] = src[ii];
        for (std::size_t ii = rows; ii < MR; ++ii) row[ii] = 0.0f;
      }
      continue;
    }
    for (std::size_t ii = 0; ii < MR; ++ii) {
      if (ii < rows) {
        const float* src = a.f32 + (i0 + ip + ii) * a.lda + p0;
        for (std::size_t p = 0; p < kc; ++p) dst[p * MR + ii] = src[p];
      } else {
        for (std::size_t p = 0; p < kc; ++p) dst[p * MR + ii] = 0.0f;
      }
    }
  }
}

/// A B panel element from an f32 weight: the weight itself in a float
/// strip, to_bf16 of it in a bf16 panel.
template <class BElem>
BElem to_panel(float v) {
  if constexpr (std::is_same_v<BElem, float>) {
    return v;
  } else {
    return to_bf16(v);
  }
}

/// A B panel element as the f32 the micro-kernel multiplies: exact.
inline float widen(float v) { return v; }
inline float widen(std::uint16_t h) { return from_bf16(h); }

/// How far past the current k step a micro-kernel asks for a bf16 panel
/// stream. In serving order a task's pack_b panels are one contiguous
/// stream (strips in column order within a k panel, then k panels in
/// order), so one hint per k step keeps a steady distance ahead of the
/// loads; left to the hardware prefetcher, the stream falls behind once a
/// k step carries ~10 FMAs (batch 5) instead of 2. Fixed by a sweep on a
/// 4-vCPU Sapphire Rapids KVM guest (GCC 12.2, simd avx512): four threads
/// each decoding batch 5 through 512->1792->1792->3072 plans, decodes/s:
///   none 833-872, 256 B 885-931, 512 B 913-977, 1 KB 993-1056,
///   2 KB 1183-1200, 4 KB 1215-1301, 8 KB 1263-1265, 16 KB 1250-1283.
/// Past 4 KB it is flat: six alternating pairs in a later window read
/// 1566-1634 at 4 KB and 1582-1704 at 8 KB. An L2-only hint was no better.
inline constexpr std::size_t kPanelLookAheadBytes = 4096;

/// Hints the cache to fetch the bf16 panel stream kPanelLookAheadBytes past
/// `b` (read, high locality). Near the end of a panel set, or for a whole
/// set shorter than the distance, the address lies past the buffer: it is
/// formed as an integer, because pointer arithmetic there would be UB,
/// while a prefetch never faults. The 2-4 hints per line on AVX2 and NEON
/// are left unthinned: the AVX2 tier still decodes as fast as AVX-512
/// with them (README, "Prepacked weights").
inline void prefetch_panel(const std::uint16_t* b) {
  const std::uintptr_t ahead =
      reinterpret_cast<std::uintptr_t>(b) + kPanelLookAheadBytes;
  // Nothing dereferences the cast's result, so it has no provenance to
  // lose.
  // NOLINTNEXTLINE(performance-no-int-to-ptr)
  __builtin_prefetch(reinterpret_cast<const void*>(ahead), /*rw=*/0,
                     /*locality=*/3);
}
/// Float strips are packed on the fly, just written and still cached.
inline void prefetch_panel(const float*) {}

/// Packs B[p0:p0+kc, j0:j0+nc] (or the transpose-source equivalent when
/// `trans`, with `b` stored (n x k)) into kNr-interleaved panels: panel jp
/// holds kNr consecutive columns laid out [p][jj], zero-padded past nc.
/// A transposed source's whole kTransposeB x kTransposeB blocks go through
/// Traits::transpose_b; the loop packs the k tail of those columns, the
/// remaining columns and the padding, and everything when kTransposeB is 0.
template <class Traits, class BElem>
void pack_b_panel(const float* b, std::size_t ldb, bool trans, std::size_t p0,
                  std::size_t j0, std::size_t kc, std::size_t nc, BElem* bp) {
  constexpr std::size_t NR = Traits::kNr;
  constexpr std::size_t T = Traits::kTransposeB;
  if (!trans) {
    // Eight rows at a time cross every strip: the eight source rows are
    // read front to back and each strip receives one contiguous run. One
    // strip at a time (rows ldb apart) and one row at a time (a write into
    // every strip) both timed slower on the training dX shapes.
    for (std::size_t pb = 0; pb < kc; pb += 8) {
      const std::size_t pe = kc - pb < 8 ? kc : pb + 8;
      for (std::size_t jp = 0; jp < nc; jp += NR) {
        const std::size_t cols = nc - jp < NR ? nc - jp : NR;
        for (std::size_t p = pb; p < pe; ++p) {
          const float* src = b + (p0 + p) * ldb + j0 + jp;
          BElem* row = bp + (jp / NR) * (NR * kc) + p * NR;
          for (std::size_t jj = 0; jj < cols; ++jj) {
            row[jj] = to_panel<BElem>(src[jj]);
          }
          for (std::size_t jj = cols; jj < NR; ++jj) row[jj] = BElem{0};
        }
      }
    }
    return;
  }
  for (std::size_t jp = 0; jp < nc; jp += NR) {
    BElem* dst = bp + (jp / NR) * (NR * kc);
    const std::size_t cols = nc - jp < NR ? nc - jp : NR;
    std::size_t jfull = 0;
    std::size_t pfull = 0;
    if constexpr (T != 0) {
      jfull = cols / T * T;
      pfull = kc / T * T;
      for (std::size_t jb = 0; jb < jfull; jb += T) {
        const float* src = b + (j0 + jp + jb) * ldb + p0;
        for (std::size_t p = 0; p < pfull; p += T) {
          Traits::transpose_b(src + p, ldb, dst + p * NR + jb, NR);
        }
      }
    }
    for (std::size_t jj = 0; jj < NR; ++jj) {
      if (jj < cols) {
        const float* src = b + (j0 + jp + jj) * ldb + p0;
        for (std::size_t p = jj < jfull ? pfull : 0; p < kc; ++p) {
          dst[p * NR + jj] = to_panel<BElem>(src[p]);
        }
      } else {
        for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = BElem{0};
      }
    }
  }
}

/// Elements a pack_b-produced panel set holds for (k, n): one per weight
/// plus the zero padding of each column panel's last kNr strip. They are
/// bf16, so the panels take 2 bytes per element.
template <class Traits>
std::size_t packed_b_elems(std::size_t k, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t pc = 0; pc < k; pc += Traits::kKc) {
    const std::size_t kc = k - pc < Traits::kKc ? k - pc : Traits::kKc;
    for (std::size_t jc = 0; jc < n; jc += Traits::kNc) {
      const std::size_t nc = n - jc < Traits::kNc ? n - jc : Traits::kNc;
      total += round_up(nc, Traits::kNr) * kc;
    }
  }
  return total;
}

/// Fills a PackedWeights with bf16 B panels in (pc, jc) order: every kNr
/// strip holds to_bf16 of the floats pack_b_panel would produce for it per
/// call, at the offset panel_task indexes it by.
template <class Traits>
void pack_b_full(const Backend* owner, const float* b, std::size_t k,
                 std::size_t n, bool transpose_b, PackedWeights& packed) {
  packed.owner = owner;
  packed.rows = k;
  packed.cols = n;
  const std::size_t ldb = transpose_b ? k : n;
  packed.bf16.resize(packed_b_elems<Traits>(k, n));
  std::size_t off = 0;
  for (std::size_t pc = 0; pc < k; pc += Traits::kKc) {
    const std::size_t kc = k - pc < Traits::kKc ? k - pc : Traits::kKc;
    for (std::size_t jc = 0; jc < n; jc += Traits::kNc) {
      const std::size_t nc = n - jc < Traits::kNc ? n - jc : Traits::kNc;
      pack_b_panel<Traits>(b, ldb, transpose_b, pc, jc, kc, nc,
                           packed.bf16.data() + off);
      off += round_up(nc, Traits::kNr) * kc;
    }
  }
}

/// How panel_run splits C across the pool: `rows` parts of whole row
/// blocks times `cols` parts of whole column strips.
struct TaskGrid {
  std::size_t rows = 1;
  std::size_t cols = 1;
};

/// Among grids of at most `workers` tasks, the one whose largest task
/// covers the fewest C elements, so no worker is left with a lopsided
/// share. Ties keep fewer row parts: every row part packs its own copy of
/// the B strips it covers.
inline TaskGrid choose_grid(std::size_t workers, std::size_t m, std::size_t n,
                            std::size_t row_blocks, std::size_t block_rows,
                            std::size_t strips, std::size_t strip_cols) {
  TaskGrid best;
  std::size_t best_area = m * n;
  for (std::size_t r = 1; r <= workers && r <= row_blocks; ++r) {
    const std::size_t c = workers / r < strips ? workers / r : strips;
    const std::size_t task_rows = (row_blocks + r - 1) / r * block_rows;
    const std::size_t task_cols = (strips + c - 1) / c * strip_cols;
    const std::size_t area =
        (task_rows < m ? task_rows : m) * (task_cols < n ? task_cols : n);
    if (area < best_area) {
      best = {r, c};
      best_area = area;
    }
  }
  return best;
}

/// The SGD step Backend::gemm_tn_sgd fuses into the walk in place of C:
/// the weights (and velocities, null without momentum) the product's
/// gradient steps, both m x n row-major.
struct TileSgd {
  float* w = nullptr;
  float* v = nullptr;
  SgdUpdate update;
};

/// The fused SGD epilogue of one micro-tile at (row0, col0): the tile's
/// gradient accumulates over its only k panel in a kMr x kNr buffer seeded
/// with +0 — the chain a zeroed C seeds — and sgd_update steps the
/// rows x cols weights under it. The full-width kernel also fills the
/// padding columns, which the zero-padded B strip makes zero and nothing
/// reads.
template <class Traits, class BElem>
void sgd_tile(const float* ap, const BElem* bp, std::size_t kc,
              const TileSgd& sgd, std::size_t n, std::size_t rows,
              std::size_t cols, std::size_t row0, std::size_t col0) {
  constexpr std::size_t kNr = Traits::kNr;
  alignas(64) float grad[Traits::kMr * kNr] = {};
  Traits::tile(ap, bp, kc, grad, kNr, rows, kNr, nullptr, row0, col0);
  for (std::size_t ii = 0; ii < rows; ++ii) {
    const std::size_t off = (row0 + ii) * n + col0;
    sgd_update(grad + ii * kNr, sgd.w + off,
               sgd.v != nullptr ? sgd.v + off : nullptr, cols, sgd.update);
  }
}

/// One task of the panel walk: C[i0:i1, j0:j1] (i0 a multiple of kMc, j0
/// of kNr) over every k panel in ascending order. Per k panel the task
/// packs B in kNc-wide chunks of its own kNr strips, then for each kMc row
/// block packs A into kMr strips and runs Traits::tile() on every
/// micro-tile. A non-null packed_b points at a pack_b_full layout and is
/// indexed in place: within k panel pc, column j's kNr strip sits j*kc
/// elements past the panel base (kNc is whole strips, so panel boundaries
/// add no gaps). BElem is packed_b's element type — bf16 (std::uint16_t)
/// for pack_b panels; B packed on the fly from `b` is always float. `epi` is
/// applied on the last k panel only. With `sgd` there is no C: k must fit
/// one k panel, and every tile runs sgd_tile instead, in row-stripe order.
template <class Traits, class BElem>
void panel_task(const AView& a, const float* b, std::size_t ldb, bool tb,
                float* c, std::size_t k, std::size_t n, const Epilogue* epi,
                const BElem* packed_b, std::size_t i0, std::size_t i1,
                std::size_t j0, std::size_t j1, const TileSgd* sgd) {
  constexpr std::size_t kMr = Traits::kMr;
  constexpr std::size_t kNr = Traits::kNr;
  constexpr std::size_t kKc = Traits::kKc;
  constexpr std::size_t kMc = Traits::kMc;
  constexpr std::size_t kNc = Traits::kNc;
  // Packing buffers sized for the task's largest panels, out of a
  // per-thread arena: its 64-byte-aligned allocations keep the micro-
  // kernel's full-vector panel loads off cache-line splits wherever the
  // heap put the storage. reset() also coalesces the arena to one slab.
  thread_local Workspace pack_ws;
  pack_ws.reset();
  const std::size_t kc_max = k < kKc ? k : kKc;
  float* const ap =
      pack_ws.alloc(round_up(i1 - i0 < kMc ? i1 - i0 : kMc, kMr) * kc_max);
  float* const bp_buf =
      packed_b != nullptr
          ? nullptr
          : pack_ws.alloc(round_up(j1 - j0 < kNc ? j1 - j0 : kNc, kNr) *
                          kc_max);
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = k - pc < kKc ? k - pc : kKc;
    const Epilogue* tile_epi = pc + kc == k ? epi : nullptr;
    for (std::size_t jc = j0; jc < j1; jc += kNc) {
      const std::size_t nc = j1 - jc < kNc ? j1 - jc : kNc;
      const BElem* bp = packed_b;
      if (bp != nullptr) {
        bp += round_up(n, kNr) * pc + jc * kc;
      } else if constexpr (std::is_same_v<BElem, float>) {
        pack_b_panel<Traits>(b, ldb, tb, pc, jc, kc, nc, bp_buf);
        bp = bp_buf;
      }
      for (std::size_t ic = i0; ic < i1; ic += kMc) {
        const std::size_t mc = i1 - ic < kMc ? i1 - ic : kMc;
        pack_a_panel<kMr>(a, ic, pc, mc, kc, ap);
        if (sgd != nullptr) {
          // Along each kMr-row stripe, strip after strip, so consecutive
          // tiles step contiguous runs of w and v. Down each strip (the
          // order below) every tile's rows lie n floats apart in matrices
          // far larger than the cache: on GTSRB's 3072x64x1792 that order
          // took 17.9-24.1 ms on one core, this one 11.6-16.7 ms.
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            const std::size_t rows = mc - ir < kMr ? mc - ir : kMr;
            const float* apan = ap + (ir / kMr) * (kMr * kc);
            for (std::size_t jr = 0; jr < nc; jr += kNr) {
              const std::size_t cols = nc - jr < kNr ? nc - jr : kNr;
              sgd_tile<Traits>(apan, bp + (jr / kNr) * (kNr * kc), kc, *sgd,
                               n, rows, cols, ic + ir, jc + jr);
            }
          }
          continue;
        }
        for (std::size_t jr = 0; jr < nc; jr += kNr) {
          const BElem* bpan = bp + (jr / kNr) * (kNr * kc);
          const std::size_t cols = nc - jr < kNr ? nc - jr : kNr;
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            const std::size_t rows = mc - ir < kMr ? mc - ir : kMr;
            Traits::tile(ap + (ir / kMr) * (kMr * kc), bpan, kc,
                         c + (ic + ir) * n + jc + jr, n, rows, cols, tile_epi,
                         ic + ir, jc + jr);
          }
        }
      }
    }
  }
}

/// The GEMM driver. C is split once into a TaskGrid of row-block ×
/// column-strip tasks sized to the pool (one task — the whole of C, run
/// inline — when gemm_pool declines), and each task runs panel_task over
/// its own rectangle. Tasks write disjoint parts of C and each walks the k
/// panels in ascending order, so the split never changes a value. Callers
/// passing pack_b panels name BElem = std::uint16_t; it is never deduced,
/// so a null packed_b stays a float operand. A non-null `sgd` (with a
/// null c, 0 < k <= kKc) steps its weights in place of writing C, on the
/// same task split.
template <class Traits, class BElem = float>
void panel_run(const AView& a, const float* b, std::size_t ldb, bool tb,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const Epilogue* epi,
               const std::type_identity_t<BElem>* packed_b,
               const TileSgd* sgd = nullptr) {
  constexpr std::size_t kMr = Traits::kMr;
  constexpr std::size_t kNr = Traits::kNr;
  constexpr std::size_t kMc = Traits::kMc;
  static_assert(kMc % kMr == 0, "row blocks must be whole micro-tiles");
  static_assert(Traits::kNc % kNr == 0, "col panels must be whole strips");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (epi) apply_epilogue(c, m, n, *epi);
    return;
  }
  const std::size_t row_blocks = (m + kMc - 1) / kMc;
  const std::size_t strips = (n + kNr - 1) / kNr;
  common::ThreadPool* pool = gemm_pool(m, n, k);
  const TaskGrid grid =
      pool == nullptr ? TaskGrid{}
                      : choose_grid(pool->size(), m, n, row_blocks, kMc,
                                    strips, kNr);
  auto run_tasks = [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t r = t / grid.cols;
      const std::size_t s = t % grid.cols;
      const std::size_t i0 = row_blocks * r / grid.rows * kMc;
      const std::size_t i1 = row_blocks * (r + 1) / grid.rows * kMc;
      const std::size_t j0 = strips * s / grid.cols * kNr;
      const std::size_t j1 = strips * (s + 1) / grid.cols * kNr;
      panel_task<Traits, BElem>(a, b, ldb, tb, c, k, n, epi, packed_b, i0,
                                i1 < m ? i1 : m, j0, j1 < n ? j1 : n, sgd);
    }
  };
  common::parallel_for(pool, 0, grid.rows * grid.cols, /*grain=*/2,
                       run_tasks);
}

}  // namespace orco::tensor::detail
