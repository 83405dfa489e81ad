// Kernel profiling hooks — per-op wall time and FLOP counters for the
// backend GEMM/im2col paths, cheap enough to compile into release builds.
//
// The hot-path contract is the OBS_SCOPED_SPAN macro: when profiling is
// disabled (the default) its constructor is one relaxed atomic load and a
// branch. When enabled, each instrumented kernel call adds one steady_clock
// pair and three relaxed fetch_adds on cache-line-padded per-op slots —
// no locks, no allocation, safe from any thread including the
// gemm-parallel pool.
//
// Aggregation is process-global and keyed by KernelOp (the instrumented
// call sites are enumerable); kernel_report() renders the standard bench
// table with derived GFLOP/s so the on-the-fly vs prepacked paths can be
// compared straight from a serving run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/table.h"
#include "obs/config.h"

namespace orco::obs {

/// The instrumented kernel entry points. Order is report order.
enum class KernelOp : std::size_t {
  kGemm = 0,       // C = A * B
  kGemmNT,         // C = A * B^T
  kGemmTN,         // C = A^T * B
  kGemmFused,      // GEMM + bias + activation epilogue
  kGemmPrepacked,  // prepacked-B GEMM + epilogue
  kIm2col,         // conv2d patch gather
  kCount,
};

constexpr std::size_t kKernelOpCount =
    static_cast<std::size_t>(KernelOp::kCount);

const char* kernel_op_name(KernelOp op) noexcept;

/// One op's accumulated totals since the last reset.
struct KernelStat {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t flops = 0;

  double gflops() const {
    return ns > 0 ? static_cast<double>(flops) / static_cast<double>(ns)
                  : 0.0;
  }
};

/// Adds one timed call to `op`'s totals (relaxed, sharded by thread).
void kernel_record(KernelOp op, std::uint64_t ns,
                   std::uint64_t flops) noexcept;

/// Merged totals per op, indexed by KernelOp.
std::array<KernelStat, kKernelOpCount> kernel_snapshot();

/// Zeroes all op totals (bench sections call this between phases).
void kernel_reset();

/// op | calls | total ms | mean us | GFLOP/s — ops with zero calls are
/// omitted.
common::Table kernel_report();

/// One inference step's wall-time accumulator, used by InferPlan's per-op
/// profile; padded so concurrent shard workers timing a shared snapshot
/// plan never share a cache line.
struct alignas(64) OpTimer {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

/// RAII timer behind OBS_SCOPED_SPAN. The enabled check happens once at
/// construction; `flops` is the work the call will do (0 when unknown).
class KernelTimer {
 public:
  KernelTimer(KernelOp op, std::uint64_t flops) noexcept
      : active_(kernel_profiling_enabled()), op_(op), flops_(flops) {
    if (active_) start_ns_ = now_ns();
  }
  ~KernelTimer() {
    if (active_) kernel_record(op_, now_ns() - start_ns_, flops_);
  }

  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

  static std::uint64_t now_ns() noexcept;

 private:
  bool active_;
  KernelOp op_;
  std::uint64_t flops_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace orco::obs

/// Times the enclosing scope as one `op` call doing `flops` FLOPs.
#define OBS_SCOPED_SPAN(op, flops) \
  ::orco::obs::KernelTimer orco_obs_timer_##__LINE__((op), (flops))
