#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/gemm_panels.h"

namespace orco::tensor {

namespace {

std::atomic<bool> g_parallel{true};
thread_local bool t_parallel = true;

// Minimum multiply-adds (m·n·k) before a GEMM splits across the pool,
// about 1 ms on one core. Waking sleeping workers costs ~0.1 ms on a
// 4-vCPU VM, and when the host deschedules a worker mid-task the whole
// GEMM waits for it: on a contended host, splitting the MNIST training
// GEMMs (64x456x784, 23M, and smaller) made those rounds ~40% slower, while
// every GTSRB one (59M and up) still gained ~1.8x.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 25;

// Minimum elements before an elementwise sweep (an SGD step, zeroing a
// gradient) splits across the pool, by the same reasoning: ~1M floats.
constexpr std::size_t kElementwiseThreshold = std::size_t{1} << 20;

// The shared pool when this thread may use it, else nullptr.
common::ThreadPool* enabled_pool() {
  return g_parallel.load() && t_parallel ? &common::ThreadPool::global()
                                         : nullptr;
}

using detail::apply_act;
using detail::gemm_pool;

// ---------------------------------------------------------------------------
// Reference backend: the original ikj streaming kernel. The k-loop is
// hoisted outside the j-loop so B is streamed row-wise — cache-friendly
// without explicit tiling — and the inner loop is branch-free so it
// auto-vectorizes.
// ---------------------------------------------------------------------------

void ref_gemm_rows(const float* a, const float* b, float* c, std::size_t r0,
                   std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t i = r0; i < r1; ++i) {
    float* ci = c + i * n;
    const float* ai = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      const float* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

class ReferenceBackend final : public Backend {
 public:
  std::string name() const override { return "reference"; }

  void gemm(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n) const override {
    common::parallel_for(gemm_pool(m, n, k), 0, m, /*grain=*/8,
                         [&](std::size_t lo, std::size_t hi) {
                           ref_gemm_rows(a, b, c, lo, hi, k, n);
                         });
  }

  // The transposed layouts materialise the transpose and stream, keeping
  // the hot loop contiguous — the reduction order (ascending k) matches
  // gemm(), so all three layouts agree bitwise with each other and with the
  // blocked backend.
  void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const override {
    std::vector<float> bt(k * n);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
    }
    gemm(a, bt.data(), c, m, k, n);
  }

  void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const override {
    std::vector<float> at(m * k);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < k; ++p) at[i * k + p] = a[p * m + i];
    }
    gemm(at.data(), b, c, m, k, n);
  }
};

// ---------------------------------------------------------------------------
// Blocked backend: packed-panel, cache-tiled, register-blocked GEMM,
// instantiated from the shared machinery in tensor/gemm_panels.h.
//
//   - k is split into kKc panels, n into kNc panels; the active B panel is
//     packed into kNr-wide column strips so the micro-kernel streams it
//     contiguously from L1/L2.
//   - rows are split into kMc blocks; each block's A panel is packed into
//     kMr-tall row strips (zero-padded), so the micro-kernel is branch-free.
//   - the kMr×kNr micro-kernel keeps the output tile in registers across
//     the whole k panel: ~1 load per 2·kMr·kNr flops instead of the
//     reference kernel's load+store of the C row every k step. Plain loops
//     with constant trip counts — the compiler vectorizes the j dimension.
//
// Per-element reduction stays in ascending k order (one accumulator per
// output element, panels visited in order), so results match the reference
// kernel bitwise and are independent of batch shape and tile position.
// (The simd backend in backend_simd.cpp swaps only the tile() arithmetic
// for explicit FMA intrinsics — everything else here is shared.)
// ---------------------------------------------------------------------------

struct BlockedTraits {
  static constexpr std::size_t kMr = 4;    // micro-tile rows
  static constexpr std::size_t kNr = 32;   // micro-tile cols (4 lanes of 8)
  static constexpr std::size_t kKc = 256;  // k panel: kKc*kNr B floats in L1
  static constexpr std::size_t kMc = 64;   // row block per packed A panel
  static constexpr std::size_t kNc = 1024; // col panel: packed B bound

  template <class BElem>
  static void tile(const float* ap, const BElem* bp, std::size_t kc, float* c,
                   std::size_t ldc, std::size_t rows, std::size_t cols,
                   const Epilogue* epi, std::size_t row0, std::size_t col0) {
    detail::generic_tile<kMr, kNr>(ap, bp, kc, c, ldc, rows, cols, epi, row0,
                                   col0);
  }
};

class BlockedBackend final : public Backend {
 public:
  std::string name() const override { return "blocked"; }

  void gemm(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n) const override {
    detail::panel_run<BlockedTraits>({a, k, false}, b, n, false, c, m, k, n,
                                     nullptr, nullptr, nullptr);
  }

  void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const override {
    detail::panel_run<BlockedTraits>({a, k, false}, b, k, true, c, m, k, n,
                                     nullptr, nullptr, nullptr);
  }

  void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const override {
    detail::panel_run<BlockedTraits>({a, m, true}, b, n, false, c, m, k, n,
                                     nullptr, nullptr, nullptr);
  }

  void gemm_fused(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool transpose_b,
                  const Epilogue& epilogue) const override {
    std::fill(c, c + m * n, 0.0f);
    detail::panel_run<BlockedTraits>({a, k, false}, b, transpose_b ? k : n,
                                     transpose_b, c, m, k, n, &epilogue,
                                     nullptr, nullptr);
  }

  // Prepacking stores every strip as to_bf16 of the floats the on-the-fly
  // path packs for it, and panel_task indexes the strips in place — the
  // micro-kernel widens them back exactly, so the result matches
  // pack-on-the-fly on the bf16-rounded weight bitwise.
  PackedWeights pack_b(const float* b, std::size_t k, std::size_t n,
                       bool transpose_b) const override {
    PackedWeights packed;
    detail::pack_b_full<BlockedTraits>(this, b, k, n, transpose_b, packed);
    return packed;
  }

  PackedWeights pack_a(const float* a, std::size_t m,
                       std::size_t k) const override {
    PackedWeights packed;
    detail::pack_a_full<BlockedTraits>(this, a, m, k, packed);
    return packed;
  }

  void gemm_prepacked(const float* other, const PackedWeights& packed,
                      float* c, std::size_t m, std::size_t k, std::size_t n,
                      const Epilogue& epilogue) const override {
    ORCO_CHECK(packed.owner == this,
               "PackedWeights were packed by a different backend");
    std::fill(c, c + m * n, 0.0f);
    if (packed.side == 'B') {
      ORCO_CHECK(packed.rows == k && packed.cols == n,
                 "prepacked B is " << packed.rows << "x" << packed.cols
                                   << ", GEMM wants " << k << "x" << n);
      detail::panel_run<BlockedTraits, std::uint16_t>(
          {other, k, false}, nullptr, 0, false, c, m, k, n, &epilogue,
          nullptr, packed.bf16.data());
    } else {
      ORCO_CHECK(packed.rows == m && packed.cols == k,
                 "prepacked A is " << packed.rows << "x" << packed.cols
                                   << ", GEMM wants " << m << "x" << k);
      detail::panel_run<BlockedTraits>({}, other, n, false, c, m, k, n,
                                       &epilogue, packed.data.data(), nullptr);
    }
  }

  // Dequantizes while packing A panels (x = lo[i] + q*scale[i], the same
  // float expression as core::dequantize_latents_into), so the int8 decode
  // path reduces in exactly the order the f32 path would after an explicit
  // dequantize — batched-vs-single bitwise equality carries over.
  void gemm_quantized(const std::uint8_t* a_q, const QuantHeader& qh,
                      const PackedWeights& packed, float* c, std::size_t m,
                      std::size_t k, std::size_t n,
                      const Epilogue& epilogue) const override {
    ORCO_CHECK(packed.owner == this,
               "PackedWeights were packed by a different backend");
    ORCO_CHECK(packed.side == 'B', "gemm_quantized needs a packed B operand");
    ORCO_CHECK(packed.rows == k && packed.cols == n,
               "prepacked B is " << packed.rows << "x" << packed.cols
                                 << ", GEMM wants " << k << "x" << n);
    std::fill(c, c + m * n, 0.0f);
    detail::AView av;
    av.lda = k;
    av.q8 = a_q;
    av.q_lo = qh.row_lo;
    av.q_scale = qh.row_scale;
    detail::panel_run<BlockedTraits, std::uint16_t>(
        av, nullptr, 0, false, c, m, k, n, &epilogue, nullptr,
        packed.bf16.data());
  }
};

std::atomic<const Backend*> g_default{nullptr};
thread_local const Backend* t_scope = nullptr;

struct RegistryEntry {
  const char* name;
  const Backend& (*get)();
};

// The single source of truth for registered backends; lookups, name
// listings, error messages and the orco_backend_active gauge value all
// derive from it.
constexpr RegistryEntry kRegistry[] = {
    {"reference", reference_backend},
    {"blocked", blocked_backend},
    {"simd", simd_backend},
};

std::string registry_names_joined() {
  std::string out;
  for (const auto& entry : kRegistry) {
    if (!out.empty()) out += ", ";
    out += entry.name;
  }
  return out;
}

// Publishes which backend is the process default as a metric (exported as
// orco_backend_active), so an operator can see from the metrics endpoint
// which kernels a deployment actually selected (the registry index:
// 0=reference, 1=blocked, 2=simd).
void publish_active_gauge(const Backend* backend) {
  int index = 0;
  for (std::size_t i = 0; i < std::size(kRegistry); ++i) {
    if (&kRegistry[i].get() == backend) {
      index = static_cast<int>(i);
      break;
    }
  }
  obs::global_registry().gauge("backend.active")->set(index);
}

}  // namespace

const Backend& backend_from_env_value(const char* value) {
  if (value == nullptr || *value == '\0') return reference_backend();
  if (const Backend* backend = find_backend(value)) return *backend;
  // An unknown name must not take the process down (a stale deployment env
  // var would crash every replica at startup) — but it must not be silent
  // either: log, count, and let orco_backend_active expose the fallback.
  ORCO_LOG_WARN("ORCO_BACKEND=\"" << value
                                  << "\" is not a registered kernel backend"
                                  << " (have: " << registry_names_joined()
                                  << "); falling back to \"reference\"");
  obs::global_registry().counter("backend.env_invalid")->inc();
  return reference_backend();
}

void Backend::gemm_fused(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         bool transpose_b, const Epilogue& epilogue) const {
  std::fill(c, c + m * n, 0.0f);
  if (k > 0) {
    if (transpose_b) {
      gemm_nt(a, b, c, m, k, n);
    } else {
      gemm(a, b, c, m, k, n);
    }
  }
  apply_epilogue(c, m, n, epilogue);
}

// Base prepacking: materialise the bf16-rounded operand row-major in f32
// so the prepacked GEMM is a plain gemm_fused with transpose_b == false.
// For the reference backend that equals gemm_fused on the rounded weight
// bitwise (its NT path materialises the same transpose per call) and
// removes the per-call transpose.
PackedWeights Backend::pack_b(const float* b, std::size_t k, std::size_t n,
                              bool transpose_b) const {
  PackedWeights packed;
  packed.owner = this;
  packed.side = 'B';
  packed.rows = k;
  packed.cols = n;
  packed.data.resize(k * n);
  const auto rounded = [](float w) { return from_bf16(to_bf16(w)); };
  if (transpose_b) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) {
        packed.data[p * n + j] = rounded(b[j * k + p]);
      }
    }
  } else {
    std::transform(b, b + k * n, packed.data.begin(), rounded);
  }
  return packed;
}

PackedWeights Backend::pack_a(const float* a, std::size_t m,
                              std::size_t k) const {
  PackedWeights packed;
  packed.owner = this;
  packed.side = 'A';
  packed.rows = m;
  packed.cols = k;
  packed.data.assign(a, a + m * k);
  return packed;
}

void Backend::gemm_prepacked(const float* other, const PackedWeights& packed,
                             float* c, std::size_t m, std::size_t k,
                             std::size_t n, const Epilogue& epilogue) const {
  ORCO_CHECK(packed.owner == this,
             "PackedWeights were packed by a different backend");
  if (packed.side == 'B') {
    ORCO_CHECK(packed.rows == k && packed.cols == n,
               "prepacked B is " << packed.rows << "x" << packed.cols
                                 << ", GEMM wants " << k << "x" << n);
    gemm_fused(other, packed.data.data(), c, m, k, n, /*transpose_b=*/false,
               epilogue);
  } else {
    ORCO_CHECK(packed.rows == m && packed.cols == k,
               "prepacked A is " << packed.rows << "x" << packed.cols
                                 << ", GEMM wants " << m << "x" << k);
    gemm_fused(packed.data.data(), other, c, m, k, n, /*transpose_b=*/false,
               epilogue);
  }
}

// Base quantized path: dequantize the codes row-wise into thread-local
// scratch with the same expression the panel-fused overrides use
// (x = lo + q*scale in float), then run the ordinary prepacked GEMM. Exact
// same values as the fused paths — only slower, so backends without a
// fused int8 pack (reference) stay correct for free.
void Backend::gemm_quantized(const std::uint8_t* a_q, const QuantHeader& qh,
                             const PackedWeights& packed, float* c,
                             std::size_t m, std::size_t k, std::size_t n,
                             const Epilogue& epilogue) const {
  ORCO_CHECK(packed.side == 'B', "gemm_quantized needs a packed B operand");
  thread_local std::vector<float> dequant;
  dequant.resize(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint8_t* src = a_q + i * k;
    float* dst = dequant.data() + i * k;
    const float lo = qh.row_lo[i];
    const float scale = qh.row_scale[i];
    for (std::size_t p = 0; p < k; ++p) {
      dst[p] = lo + static_cast<float>(src[p]) * scale;
    }
  }
  gemm_prepacked(dequant.data(), packed, c, m, k, n, epilogue);
}

const Backend& reference_backend() {
  static const ReferenceBackend backend;
  return backend;
}

const Backend& blocked_backend() {
  static const BlockedBackend backend;
  return backend;
}

const Backend* find_backend(const std::string& name) {
  for (const auto& entry : kRegistry) {
    if (name == entry.name) return &entry.get();
  }
  return nullptr;
}

const Backend* resolve_backend(const std::string& name) {
  if (name.empty()) return nullptr;
  const Backend* backend = find_backend(name);
  ORCO_CHECK(backend != nullptr,
             "unknown kernel backend \"" << name << "\" (have: "
                                         << registry_names_joined() << ")");
  return backend;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const auto& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

void set_backend(const std::string& name) {
  const Backend* backend = find_backend(name);
  ORCO_CHECK(backend != nullptr,
             "unknown kernel backend \"" << name << "\" (have: "
                                         << registry_names_joined() << ")");
  g_default.store(backend, std::memory_order_release);
  publish_active_gauge(backend);
}

void set_backend(const Backend& backend) {
  g_default.store(&backend, std::memory_order_release);
  publish_active_gauge(&backend);
}

const Backend& current_backend() {
  if (t_scope != nullptr) return *t_scope;
  const Backend* backend = g_default.load(std::memory_order_acquire);
  if (backend == nullptr) {
    // First use: publish the env-derived default, but never clobber a
    // concurrent set_backend() — an explicit choice must win the race.
    const Backend* env_default =
        &backend_from_env_value(std::getenv("ORCO_BACKEND"));
    if (g_default.compare_exchange_strong(backend, env_default,
                                          std::memory_order_acq_rel)) {
      backend = env_default;
      publish_active_gauge(backend);
    }
    // On CAS failure `backend` was reloaded with the concurrent store.
  }
  return *backend;
}

BackendScope::BackendScope(const Backend* backend) : prev_(t_scope) {
  if (backend != nullptr) t_scope = backend;
}

BackendScope::~BackendScope() { t_scope = prev_; }

void apply_epilogue(float* c, std::size_t m, std::size_t n,
                    const Epilogue& epilogue) {
  for (std::size_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float v = ci[j];
      if (epilogue.bias) {
        v += epilogue.bias_per_row ? epilogue.bias[i] : epilogue.bias[j];
      }
      ci[j] = apply_act(v, epilogue.act, epilogue.leaky_alpha);
    }
  }
}

void set_gemm_parallelism(bool enabled) { g_parallel.store(enabled); }
bool gemm_parallelism() { return g_parallel.load(); }

void set_thread_gemm_parallelism(bool enabled) { t_parallel = enabled; }
bool thread_gemm_parallelism() { return t_parallel; }

common::ThreadPool* elementwise_pool(std::size_t count) {
  return count >= kElementwiseThreshold ? enabled_pool() : nullptr;
}

namespace detail {

common::ThreadPool* gemm_pool(std::size_t m, std::size_t n, std::size_t k) {
  return m * n * k >= kParallelThreshold ? enabled_pool() : nullptr;
}

}  // namespace detail

}  // namespace orco::tensor
