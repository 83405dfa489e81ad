#include "obs/profile.h"

#include <chrono>

namespace orco::obs {

namespace {

/// Per-op accumulator cell; a small fixed shard set spreads the
/// gemm-parallel pool's workers over distinct cache lines.
struct alignas(64) OpCell {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> flops{0};
};

constexpr std::size_t kProfileShards = 8;

OpCell g_cells[kKernelOpCount][kProfileShards];

std::size_t this_thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kProfileShards;
  return slot;
}

}  // namespace

const char* kernel_op_name(KernelOp op) noexcept {
  switch (op) {
    case KernelOp::kGemm:
      return "gemm";
    case KernelOp::kGemmNT:
      return "gemm_nt";
    case KernelOp::kGemmTN:
      return "gemm_tn";
    case KernelOp::kGemmFused:
      return "gemm_fused";
    case KernelOp::kGemmPrepacked:
      return "gemm_prepacked";
    case KernelOp::kIm2col:
      return "im2col";
    case KernelOp::kCount:
      break;
  }
  return "?";
}

std::uint64_t KernelTimer::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void kernel_record(KernelOp op, std::uint64_t ns,
                   std::uint64_t flops) noexcept {
  OpCell& cell = g_cells[static_cast<std::size_t>(op)][this_thread_slot()];
  cell.calls.fetch_add(1, std::memory_order_relaxed);
  cell.ns.fetch_add(ns, std::memory_order_relaxed);
  cell.flops.fetch_add(flops, std::memory_order_relaxed);
}

std::array<KernelStat, kKernelOpCount> kernel_snapshot() {
  std::array<KernelStat, kKernelOpCount> out{};
  for (std::size_t op = 0; op < kKernelOpCount; ++op) {
    for (std::size_t s = 0; s < kProfileShards; ++s) {
      const OpCell& cell = g_cells[op][s];
      out[op].calls += cell.calls.load(std::memory_order_relaxed);
      out[op].ns += cell.ns.load(std::memory_order_relaxed);
      out[op].flops += cell.flops.load(std::memory_order_relaxed);
    }
  }
  return out;
}

void kernel_reset() {
  for (auto& op_cells : g_cells) {
    for (OpCell& cell : op_cells) {
      cell.calls.store(0, std::memory_order_relaxed);
      cell.ns.store(0, std::memory_order_relaxed);
      cell.flops.store(0, std::memory_order_relaxed);
    }
  }
}

common::Table kernel_report() {
  common::Table table({"op", "calls", "total ms", "mean us", "GFLOP/s"});
  const auto stats = kernel_snapshot();
  for (std::size_t op = 0; op < kKernelOpCount; ++op) {
    const KernelStat& s = stats[op];
    if (s.calls == 0) continue;
    const double total_ms = static_cast<double>(s.ns) / 1e6;
    const double mean_us =
        static_cast<double>(s.ns) / 1e3 / static_cast<double>(s.calls);
    table.add_row({kernel_op_name(static_cast<KernelOp>(op)),
                   std::to_string(s.calls), common::Table::num(total_ms, 3),
                   common::Table::num(mean_us, 3),
                   common::Table::num(s.gflops(), 2)});
  }
  return table;
}

}  // namespace orco::obs
