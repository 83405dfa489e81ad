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

thread_local bool t_parallel = true;

// Minimum multiply-adds (m·n·k) before a GEMM splits across the pool,
// about 1 ms on one core. Waking sleeping workers costs ~0.1 ms on a
// 4-vCPU VM, and when the host deschedules a worker mid-task the whole
// GEMM waits for it: on a contended host, splitting the MNIST training
// GEMMs (64x456x784, 23M, and smaller) made those rounds ~40% slower, while
// every GTSRB one (59M and up) still gained ~1.8x.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 25;

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
  // simd backend's scalar tier.
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
// 0=reference, 1=simd).
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

void Backend::gemm_tn_sgd(const float* a, const float* b, float* w, float* v,
                          std::size_t m, std::size_t k, std::size_t n,
                          const SgdUpdate& update) const {
  std::vector<float> grad(m * n, 0.0f);
  gemm_tn(a, b, grad.data(), m, k, n);
  sgd_update(grad.data(), w, v, m * n, update);
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

void Backend::gemm_prepacked(const float* a, const PackedWeights& packed,
                             float* c, std::size_t m, std::size_t k,
                             std::size_t n, const Epilogue& epilogue) const {
  ORCO_CHECK(packed.owner == this,
             "PackedWeights were packed by a different backend");
  ORCO_CHECK(packed.rows == k && packed.cols == n,
             "prepacked B is " << packed.rows << "x" << packed.cols
                               << ", GEMM wants " << k << "x" << n);
  gemm_fused(a, packed.data.data(), c, m, k, n, /*transpose_b=*/false,
             epilogue);
}

// Dequantizes the codes row-wise into thread-local scratch with
// QuantHeader's x = lo + q*scale in float (this TU is built with
// -ffp-contract=off, so the product is rounded before the add), then runs
// the ordinary prepacked GEMM. core::dequantize_latents_into computes
// lo + q/maxq*range in double instead: see backend.h.
void Backend::gemm_quantized(const std::uint8_t* a_q, const QuantHeader& qh,
                             const PackedWeights& packed, float* c,
                             std::size_t m, std::size_t k, std::size_t n,
                             const Epilogue& epilogue) const {
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

const Backend* find_backend(const std::string& name) {
  for (const auto& entry : kRegistry) {
    if (name == entry.name) return &entry.get();
  }
  return nullptr;
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

void set_thread_gemm_parallelism(bool enabled) { t_parallel = enabled; }
bool thread_gemm_parallelism() { return t_parallel; }

namespace detail {

common::ThreadPool* gemm_pool(std::size_t m, std::size_t n, std::size_t k) {
  return m * n * k >= kParallelThreshold && t_parallel
             ? &common::ThreadPool::global()
             : nullptr;
}

}  // namespace detail

}  // namespace orco::tensor
