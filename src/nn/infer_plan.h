// InferPlan — a compile-once, execute-many inference plan for a frozen
// layer chain, and the only whole-chain inference executor: serving shards,
// EdgeServer, trainer evaluation and Sequential::infer_into all run one.
//
// A serving decoder's structure is frozen the moment a snapshot is
// published, so compile() does every structural decision exactly once:
//
//   * nested Sequential chains are flattened and identity layers dropped;
//   * a following elementwise activation is fused into its producer op's
//     kernel epilogue;
//   * Dense weights are packed for the compile backend up front and pinned
//     to the op (Dense::plan_pack is the only weight-packing path) — the
//     executor never takes a lock or checks a version. Backend::pack_b
//     stores them rounded to bf16 (half the bytes every decode streams);
//     every other layer (Conv2d, ConvTranspose2d, MaxPool2d, ...) runs its
//     generic entry on its live f32 weights, and every bias stays f32;
//   * the exact context-arena high-water across the chain is precomputed,
//     so the first run() reserves once and the arena never grows.
//
// run() is then a branch-light loop over the flat op list. Every op runs on
// the compile backend (one BackendScope at entry, whatever the caller's
// thread has selected), so a plan has one path and one contract: bitwise
// identical to the compile backend's layer-by-layer
// Sequential::forward(x, /*training=*/false) of a copy of the model whose
// Dense weights (not biases) are rounded with tensor::to_bf16: an epilogue
// applies the same elementwise function the activation layer would, a
// prepacked GEMM equals the unpacked one on the bf16-rounded weight bitwise
// (see tensor/backend.h), and buffer ping-pong only changes where bytes
// live, never their values. Training keeps the f32 weights; the plan's
// distance from the f32 forward is that rounding alone (within 1e-3 on the
// benchmark's decoders, see core_system_test).
//
// Compile triggers and sharing: ModelRegistry::publish compiles a plan per
// snapshot version (under the publisher's current backend) and stores it on
// the immutable ModelSnapshot — every shard pinning that snapshot shares
// one plan with no synchronization beyond the snapshot's shared_ptr.
// EdgeServer compiles lazily for the registry-free decode path and
// recompiles when the caller's backend is not the plan's or when
// weights_stale() reports a Dense weight-version bump (training steps,
// nn::load_params). A compiled plan is immutable: it holds const
// pointers into the model, so the model must outlive it and structural
// mutation (Sequential::add) after compile is not supported.
//
// Registering a new op kind: implement Layer::infer_into (and
// infer_fused_into if the kernel can take an epilogue), report any arena
// scratch via Layer::infer_scratch_floats, and the plan executes it
// through the generic entries on the layer's live weights. Dense alone
// packs its weight at compile time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/table.h"
#include "nn/infer_context.h"
#include "nn/layer.h"
#include "obs/profile.h"
#include "tensor/backend.h"

namespace orco::nn {

class Dense;
class Sequential;

/// One compiled execution step: the resolved kernel entry (packed-Dense,
/// fused-generic or plain infer_into), the epilogue folded in at compile
/// time, and, for a Dense op, the pre-packed weight panels it runs against.
struct PlanOp {
  const Layer* layer = nullptr;  // executing leaf layer
  const Dense* dense = nullptr;  // set when layer is a Dense
  /// The Dense weight packed at compile for the plan backend; null for
  /// every other layer.
  std::shared_ptr<const tensor::PackedWeights> packed;
  /// Weight version `packed` captured — weights_stale() compares it
  /// against the Dense layer's live version.
  std::uint64_t packed_version = 0;
  tensor::EpilogueAct act = tensor::EpilogueAct::kNone;
  float leaky_alpha = 0.01f;
  /// True when a following activation layer was folded into this op;
  /// false ops run plain infer_into.
  bool fused = false;
  /// Index into the flattened source chain, for diagnostics.
  std::size_t source_index = 0;
};

class InferPlan {
 public:
  /// Compiles `model`'s flattened inference chain for `backend` (null =
  /// the calling thread's current backend). Packs Dense weights up front;
  /// the model must outlive the returned plan and must not be structurally
  /// mutated afterwards. Weight-value mutation is allowed — run() then
  /// still executes (Dense ops reading their stale panels, every other op
  /// the live weights), and weights_stale() tells owners of mutable models
  /// when to recompile.
  static std::shared_ptr<const InferPlan> compile(
      const Sequential& model, const tensor::Backend* backend = nullptr);

  InferPlan(const InferPlan&) = delete;
  InferPlan& operator=(const InferPlan&) = delete;

  /// Executes the plan on its compile backend, whatever the calling thread
  /// has selected: `input` ping-pongs through the context buffers and the
  /// final op writes `out`, bitwise equal to the bf16-rounded model's
  /// forward on the compile backend.
  /// `out` must not alias `input`, and may alias a context buffer only for
  /// single-op (or empty) plans — multi-op plans need both buffers for
  /// intermediates. The first call reserves the precomputed arena
  /// high-water; after one warmup pass at the workload's largest batch,
  /// repeat runs perform zero heap allocations.
  void run(const Tensor& input, Tensor& out, InferContext& ctx) const;

  /// Executes the plan on uint8 latent codes (kFixed8 payloads): the codes
  /// are dequantized (x = lo + q*scale, single-float) into the context
  /// buffer `out` does not alias and run() executes the float plan, so the
  /// result is bitwise identical to run() on the dequantized batch.
  void run_quantized(const std::uint8_t* codes, const tensor::QuantHeader& qh,
                     std::size_t batch, std::size_t features, Tensor& out,
                     InferContext& ctx) const;

  /// True when any Dense op's pre-packed panels no longer match its
  /// layer's live weight version (a training step or nn::load_params
  /// happened since compile). Owners of mutable models (EdgeServer) check
  /// this to decide when to recompile; snapshot plans are immutable and
  /// never stale.
  bool weights_stale() const noexcept;

  /// Compiled op count (identity layers dropped, fused pairs are one op).
  std::size_t size() const noexcept { return ops_.size(); }
  const std::vector<PlanOp>& ops() const noexcept { return ops_; }

  /// The backend the plan was compiled (and weights packed) for.
  const tensor::Backend& backend() const noexcept { return *backend_; }

  /// Exact context-arena high-water of one run(), in floats (already
  /// rounded to the Workspace allocation grain).
  std::size_t scratch_floats() const noexcept { return scratch_floats_; }

  /// Per-op execution profile accumulated while obs::kernel_profiling is
  /// enabled: op | kernel | calls | total ms | mean us. Rows with zero
  /// calls are omitted.
  common::Table op_profile_table() const;

 private:
  InferPlan() = default;

  std::vector<PlanOp> ops_;
  const tensor::Backend* backend_ = nullptr;
  std::size_t scratch_floats_ = 0;
  // One cache-line-padded timer per op; mutable because profiling a const
  // execution is still logically const.
  std::unique_ptr<obs::OpTimer[]> timers_;
};

}  // namespace orco::nn
