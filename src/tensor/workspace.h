// Workspace — a bump-allocated, resettable float arena for kernel scratch.
//
// The inference hot path (serving decode, background-trainer validation)
// needs short-lived scratch at every layer boundary: im2col column
// matrices, epilogue temporaries, packed panels. Allocating those from the
// heap per call is what this arena removes: alloc() is a pointer bump,
// reset()/rewind() recycle the memory without touching the allocator, and
// the arena grows only until it has seen the workload's high-water mark —
// after warmup, a steady-state pass through the same model performs zero
// heap allocations.
//
// Growth without invalidation: a bump arena cannot extend a live block in
// place, so an overflowing alloc() opens a fresh block while earlier blocks
// (and every pointer into them) stay valid until the next reset(). reset()
// then coalesces: if the workload spilled past the first block, the arena
// replaces its blocks with one block sized to the high-water mark, so the
// next pass runs out of a single contiguous slab and never spills again.
//
// Thread-safety: none — a Workspace belongs to exactly one thread at a
// time (the per-shard-worker InferContext rule). Alignment: every alloc()
// is 64-byte aligned so vectorized kernels never straddle cache lines;
// blocks come from tensor/buffer.h, which aligns them, and every alloc()
// is rounded to a 64-byte multiple. A block of 2 MiB or more is a mapping
// of its own; keeping the slab across passes maps it once.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/buffer.h"

namespace orco::tensor {

class Workspace {
 public:
  Workspace() = default;

  /// Pre-sizes the arena to `floats` capacity in one block (optional; the
  /// arena warms itself up on first use otherwise).
  explicit Workspace(std::size_t floats) { reserve(floats); }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Bump-allocates `n` floats (64-byte aligned, uninitialised). Pointers
  /// stay valid until reset()/rewind() passes back over them. n == 0
  /// returns a non-null pointer to the current bump position.
  float* alloc(std::size_t n);

  /// Checkpoint of the current bump position, for nested scratch scopes.
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };

  Mark mark() const noexcept { return Mark{block_, offset_}; }

  /// Releases every allocation made after `m` (LIFO only: marks must be
  /// rewound in reverse order of taking them).
  void rewind(Mark m);

  /// Releases everything. If allocations spilled past the first block, the
  /// blocks are coalesced into one slab of high_water() capacity so the
  /// next pass is allocation-free.
  void reset();

  /// Ensures one contiguous block of at least `floats` capacity (existing
  /// allocations must have been reset; call before the first pass to skip
  /// warmup growth).
  void reserve(std::size_t floats);

  /// Total float capacity across blocks.
  std::size_t capacity() const noexcept;

  /// Floats currently handed out.
  std::size_t used() const noexcept;

  /// Largest used() ever observed (what reset() coalesces to).
  std::size_t high_water() const noexcept { return high_water_; }

  /// Blocks currently owned — 1 in steady state; >1 only between an
  /// overflow and the next reset().
  std::size_t block_count() const noexcept { return blocks_.size(); }

  /// Rounds `n` up to the arena's allocation grain (64-byte lines), i.e.
  /// the capacity one alloc(n) actually consumes. Lets plan compilers
  /// precompute an exact high-water from per-layer scratch requirements.
  static std::size_t aligned_floats(std::size_t n) { return aligned(n); }

 private:
  /// Smallest first block: one 28x28 image of scratch.
  static constexpr std::size_t kMinBlockFloats = 1024;
  /// 64-byte alignment in floats.
  static constexpr std::size_t kAlignFloats = kBufferAlign / sizeof(float);

  static std::size_t aligned(std::size_t n) {
    return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  }

  void note_high_water() {
    const std::size_t u = used();
    if (u > high_water_) high_water_ = u;
  }

  std::vector<Buffer<float>> blocks_;
  std::size_t block_ = 0;   // block the bump pointer lives in
  std::size_t offset_ = 0;  // bump offset within blocks_[block_]
  std::size_t high_water_ = 0;
};

/// RAII scratch scope: takes a mark on construction, rewinds on
/// destruction. The idiom for per-sample scratch inside a layer kernel.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& ws) : ws_(ws), mark_(ws.mark()) {}
  ~WorkspaceScope() { ws_.rewind(mark_); }

  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace& ws_;
  Workspace::Mark mark_;
};

}  // namespace orco::tensor
