// Pluggable kernel backends for the GEMM-shaped hot paths.
//
// Every dense layer, im2col convolution, orchestrated training round and
// serving decode in the repository reduces to one of three row-major GEMM
// layouts (NN, NT, TN) plus an optional fused epilogue (bias + activation).
// A Backend implements those kernels; the rest of the codebase calls them
// through the free functions in tensor/matmul.h, which route to
// current_backend().
//
// Two backends are registered:
//   "reference" — the original ikj streaming kernel; the trusted baseline
//                 every parity test compares against.
//   "simd"      — cache-tiled, packed-panel, register-blocked GEMM
//                 (tensor/gemm_panels.h) with an explicitly-SIMD FMA
//                 register micro-kernel, ISA-dispatched at compile time
//                 (AVX-512 → AVX2+FMA → NEON → a scalar tier bitwise-equal
//                 to "reference"; see backend_simd.cpp and simd_isa()).
//
// Selection, most specific wins:
//   1. A BackendScope installed on the current thread (the serving runtime
//      installs one per ServeConfig, EdgeServer/Orchestrator per
//      OrcoConfig).
//   2. The process default, settable with set_backend().
//   3. The ORCO_BACKEND environment variable, read once on first use. An
//      unknown name falls back loudly to "reference" (warning log,
//      backend.env_invalid counter) instead of crashing the process.
//   4. The reference backend.
//
// Whichever way the default is chosen, the obs gauge orco_backend_active
// publishes the selected registry index (0=reference, 1=simd).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace orco::common {
class ThreadPool;
}

namespace orco::tensor {

/// Activation applied by a fused GEMM epilogue. Semantics match the
/// nn/activations.h layers exactly (same expressions, same std:: calls) so
/// fusing an activation into the GEMM cannot change a single value.
enum class EpilogueAct { kNone, kReLU, kLeakyReLU, kSigmoid, kTanh };

/// Fused epilogue description: out = act(accumulated + bias).
struct Epilogue {
  const float* bias = nullptr;  // nullable; length n (per column) or m (per row)
  bool bias_per_row = false;    // false: bias[j] per output column (dense);
                                // true:  bias[i] per output row (im2col conv)
  EpilogueAct act = EpilogueAct::kNone;
  float leaky_alpha = 0.01f;    // only read when act == kLeakyReLU
};

class Backend;

/// Rounds `f` to bfloat16 (the high 16 bits of an IEEE-754 binary32),
/// round-to-nearest-even, in software: ties go to the even bf16; a NaN
/// stays a (quiet) NaN with its sign, even one whose payload sits only in
/// the low 16 bits, which plain truncation would turn into Inf; ±Inf and ±0
/// stay exact; finite values that round past the largest bf16 become ±Inf;
/// subnormals are rounded, never flushed. Every backend's pack_b rounds
/// through this one function (never vcvtneps2bf16, which flushes
/// subnormals).
inline std::uint16_t to_bf16(float f) {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  }
  const std::uint32_t round = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>((bits + round) >> 16);
}

/// Widens a bfloat16 back to float32: exact, a 16-bit shift.
inline float from_bf16(std::uint16_t h) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(h) << 16);
}

/// Weight panels prepacked into a backend's internal GEMM layout, produced
/// by Backend::pack_b / pack_a and consumed by Backend::gemm_prepacked.
/// The layout is backend-specific, so a PackedWeights may only be used with
/// the backend that created it (`owner`). Packing is worth it exactly when
/// one immutable matrix (a serving decoder's weights) meets many small
/// activation batches: the per-call panel-packing cost — which dominates
/// batch<=4 decode — is paid once instead of per GEMM.
///
/// A packed B operand holds every weight rounded to bf16 (to_bf16): the
/// panel backend (simd) stores it in `bf16`, 2 bytes per weight plus the
/// zero padding of the last kNr strip, and widens each value back to f32
/// inside the micro-kernel; the base pack_b (reference) keeps its
/// row-major f32 layout in `data` and stores the rounded values there. A
/// packed A operand (pack_a, the Conv2d filter) stays exact f32 in `data`.
struct PackedWeights {
  const Backend* owner = nullptr;
  char side = 'B';       // 'B': packed right operand; 'A': packed left operand
  std::size_t rows = 0;  // logical rows of the packed matrix (k for B, m for A)
  std::size_t cols = 0;  // logical cols of the packed matrix (n for B, k for A)
  std::vector<float> data;          // f32 storage: A panels, base-layout B
  std::vector<std::uint16_t> bf16;  // bf16 B panels of the panel backend
};

/// Per-row affine dequantization parameters for gemm_quantized: row i of
/// the uint8 operand decodes as x = row_lo[i] + q * row_scale[i]. Per-row
/// because a batch stacks requests that each carry their own [min, max]
/// header from core/quantization.
struct QuantHeader {
  const float* row_lo = nullptr;     // [m]
  const float* row_scale = nullptr;  // [m]
};

/// A kernel backend. All matrices are dense row-major float32; the gemm*
/// kernels ACCUMULATE into c (callers zero it for a plain product), while
/// gemm_fused OVERWRITES c with act(a·b + bias) in one pass.
///
/// Numerical contract: for a fixed backend the value of each output element
/// depends only on its own row of A and column of B, reduced in ascending
/// k order — never on m, n, tile position or thread count. The serving
/// runtime relies on this: a latent decoded in a coalesced batch must equal
/// the same latent decoded alone, bitwise. The one deliberate value change
/// is pack_b's bf16 rounding of a prepacked weight (see gemm_prepacked);
/// GEMMs on unpacked operands (every training GEMM) stay exact f32.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  /// c (m×n) += a (m×k) · b (k×n).
  virtual void gemm(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) const = 0;

  /// c (m×n) += a (m×k) · bᵀ, with b stored row-major (n×k). This is the
  /// dense-layer layout: y = x·Wᵀ with W (out×in).
  virtual void gemm_nt(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n) const = 0;

  /// c (m×n) += aᵀ · b, with a stored row-major (k×m).
  virtual void gemm_tn(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n) const = 0;

  /// c (m×n) = act(a (m×k) · b + bias) in one pass; b is (k×n) row-major,
  /// or (n×k) when transpose_b. Overwrites c. The base implementation is
  /// the unfused fallback (zero, gemm, epilogue sweep); backends override
  /// it to apply the epilogue while output tiles are still cache-hot.
  virtual void gemm_fused(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n,
                          bool transpose_b, const Epilogue& epilogue) const;

  /// Packs the right-hand GEMM operand — b (k×n) row-major, or (n×k)
  /// row-major when transpose_b (the Dense weight layout) — into this
  /// backend's panel format for repeated gemm_prepacked calls against
  /// varying left operands, rounding every weight with to_bf16. The panel
  /// backend stores bf16 panels (half the bytes every later GEMM streams);
  /// the base implementation materialises plain row-major (k×n) f32 holding
  /// the rounded values, which also removes the per-call transpose of the
  /// reference NT path.
  virtual PackedWeights pack_b(const float* b, std::size_t k, std::size_t n,
                               bool transpose_b) const;

  /// Packs the left-hand GEMM operand a (m×k row-major) — the im2col
  /// convolution layout, where the filter matrix is the reused operand.
  /// Exact: A panels stay f32.
  virtual PackedWeights pack_a(const float* a, std::size_t m,
                               std::size_t k) const;

  /// c (m×n) = act(A·B + bias) with one operand prepacked by THIS backend:
  /// `other` is the unpacked operand — A (m×k) when packed.side == 'B',
  /// B (k×n) when packed.side == 'A'. Overwrites c. Bitwise identical to
  /// the equivalent gemm_fused call on this backend: on the unpacked A for
  /// a packed A, and on the bf16-rounded B (each weight w replaced by
  /// from_bf16(to_bf16(w))) for a packed B. The micro-kernel widens each
  /// bf16 value exactly and runs the unchanged f32 FMA chain — never a
  /// paired-product bf16 dot instruction (vdpbf16ps, AMX), which would
  /// reorder the accumulation.
  virtual void gemm_prepacked(const float* other, const PackedWeights& packed,
                              float* c, std::size_t m, std::size_t k,
                              std::size_t n, const Epilogue& epilogue) const;

  /// c (m×n) = act(dequant(a_q)·B + bias) from uint8 codes: a_q is (m×k)
  /// row-major quantized with per-row affine headers `qh`, `packed` a
  /// pack_b-produced right operand of this backend. Dequantizes a_q with
  /// x = lo + q*scale in float, each product rounded before the add, into
  /// thread-local scratch, then calls gemm_prepacked. That is not
  /// core::dequantize_latents_into's expression (lo + q/maxq*range in
  /// double, then rounded to float), so the two may differ in the last
  /// bit.
  void gemm_quantized(const std::uint8_t* a_q, const QuantHeader& qh,
                      const PackedWeights& packed, float* c, std::size_t m,
                      std::size_t k, std::size_t n,
                      const Epilogue& epilogue) const;
};

/// The original ikj streaming kernel (always available).
const Backend& reference_backend();

/// The packed-panel GEMM with explicitly-SIMD FMA micro-kernels (always
/// available: builds without SIMD support degrade to a scalar tier — see
/// simd_isa()).
const Backend& simd_backend();

/// Which instruction set the simd backend was compiled for: "avx512",
/// "avx2", "neon", or "scalar-fallback" (no SIMD available or
/// ORCO_DISABLE_SIMD defined).
const char* simd_isa();

/// Looks a backend up by name; nullptr when unknown.
const Backend* find_backend(const std::string& name);

/// Config-string resolution: empty -> nullptr ("inherit"), known name ->
/// the backend, unknown name -> std::invalid_argument listing the
/// registered names. EdgeServer and ServerRuntime resolve their config
/// fields through this.
const Backend* resolve_backend(const std::string& name);

/// Registered backend names, in registration order.
std::vector<std::string> backend_names();

/// ORCO_BACKEND-style resolution with loud fallback: null/empty -> the
/// reference backend; a known name -> that backend; an unknown name ->
/// warning log + backend.env_invalid counter + the reference backend
/// (never throws — a stale env var must not crash every replica). Exposed
/// separately from the env read so tests can exercise the policy.
const Backend& backend_from_env_value(const char* value);

/// Sets the process-default backend. Throws std::invalid_argument for an
/// unknown name.
void set_backend(const std::string& name);

/// The backend the calling thread should use right now: innermost
/// BackendScope if any, else the process default (ORCO_BACKEND env or
/// "reference").
const Backend& current_backend();

/// RAII thread-local backend override. A null backend makes the scope a
/// no-op (inherit whatever is already selected) so per-config plumbing can
/// pass "not configured" straight through.
class BackendScope {
 public:
  explicit BackendScope(const Backend* backend);
  ~BackendScope();

  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  const Backend* prev_;
};

/// Applies `epilogue` to every element of c (m×n) in place — the unfused
/// fallback sweep, also used when k == 0.
void apply_epilogue(float* c, std::size_t m, std::size_t n,
                    const Epilogue& epilogue);

/// Enables/disables thread-pool parallelism for GEMMs and the optimizer's
/// elementwise sweeps (default on). A pooled GEMM splits C into disjoint
/// row-block × column-strip tasks, each reducing its elements in the same
/// ascending-k chain, so the switch never changes a value — it exists for
/// scheduling-sensitive measurements and for tests that pin exactly that.
void set_gemm_parallelism(bool enabled);
bool gemm_parallelism();

/// Per-thread opt-out from pooled parallelism: kernels invoked from a
/// thread that disabled it run inline on that thread instead of borrowing
/// the shared pool's workers. train::TrainerRuntime turns this off on its
/// (deprioritized) worker threads so background fine-tuning compute
/// inherits their scheduling priority — routed through the normal-priority
/// pool it would preempt serve decode batches and head-of-line-block the
/// pool queue; serve::ServerRuntime turns it off on its shard workers,
/// which already occupy the cores. Values are unchanged either way.
/// Default on.
void set_thread_gemm_parallelism(bool enabled);
bool thread_gemm_parallelism();

/// The shared pool an elementwise sweep over `count` values (an optimizer
/// step, zeroing gradients) should split across, or nullptr to run it
/// inline: small sweeps, and threads or processes that turned pooled
/// parallelism off above. The sweep has no reduction, so splitting it
/// never changes a value.
common::ThreadPool* elementwise_pool(std::size_t count);

}  // namespace orco::tensor
