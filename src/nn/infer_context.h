// InferContext — the reusable memory behind zero-allocation inference.
//
// Layer::infer_into() computes into caller-owned output tensors; the
// context supplies everything else a forward pass needs transiently:
//
//   * two ping-pong activation buffers InferPlan::run alternates between
//     op boundaries (each keeps its high-water capacity, so a steady-state
//     pass through the same plan re-uses the same storage);
//   * a Workspace arena for kernel scratch — im2col column matrices,
//     epilogue temporaries — bump-allocated per layer and rewound on exit.
//
// Ownership rule: one context per serving/evaluation thread, reused across
// batches (ClusterShard owns one per shard worker, TrainerRuntime one per
// tenant). A context must never be shared between threads concurrently —
// it is deliberately unsynchronized, mirroring the serve path's "no locks
// on decode" rule. The one-off wrapper Layer::infer() constructs a fresh
// context per call, which is correct everywhere but pays the allocations
// this type exists to remove.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace orco::nn {

class InferContext {
 public:
  InferContext() = default;

  InferContext(const InferContext&) = delete;
  InferContext& operator=(const InferContext&) = delete;
  InferContext(InferContext&&) = default;
  InferContext& operator=(InferContext&&) = default;

  /// Kernel scratch arena (layers take a WorkspaceScope around their use).
  tensor::Workspace& scratch() noexcept { return scratch_; }

  /// The two ping-pong activation buffers (i in {0, 1}).
  tensor::Tensor& buffer(std::size_t i) noexcept { return buf_[i & 1]; }

  /// By convention the batch-assembly buffer: callers that build a batched
  /// input in place (ClusterShard) write it here and pass it as the plan's
  /// input; InferPlan::run then ping-pongs away from whichever buffer the
  /// input aliases.
  tensor::Tensor& input() noexcept { return buf_[0]; }

  /// The ping-pong partner: whichever buffer `t` is NOT. Returns buffer 0
  /// for tensors outside the pair.
  tensor::Tensor& other_than(const tensor::Tensor& t) noexcept {
    return &t == &buf_[0] ? buf_[1] : buf_[0];
  }

  /// True iff `t` is one of the context's activation buffers.
  bool owns(const tensor::Tensor& t) const noexcept {
    return &t == &buf_[0] || &t == &buf_[1];
  }

 private:
  tensor::Tensor buf_[2];
  tensor::Workspace scratch_;
};

}  // namespace orco::nn
