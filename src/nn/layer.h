// Layer abstraction: explicit forward/backward with cached activations
// (Caffe-style). Chosen over tape autograd because every model in the paper
// is a feed-forward chain, and explicit backward keeps each kernel
// independently verifiable with numerical gradient checks.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/infer_context.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace orco::nn {

using tensor::Tensor;

/// Non-owning handle to one trainable parameter and its gradient.
///
/// Training state is allocated on first use: `grad` may be empty (numel 0)
/// until the layer's first backward(), which sizes it to the value's shape,
/// zero-filled, and then accumulates into it (0 + x, so the bits match an
/// eagerly allocated gradient). Until then a layer holds only its weights,
/// which is all a tenant that only serves ever needs. Consumers treat an
/// empty gradient as zero; inference, params() and save/load never
/// allocate one. A Dense weight trained by Sgd::backward_step (the §III-B
/// round) never gets one either: the step runs inside its gradient GEMM.
struct ParamView {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Sizes an empty gradient to `shape`, zero-filled — the first-backward
/// step of the ParamView contract. A no-op once the gradient exists.
inline void ensure_grad(Tensor& grad, const tensor::Shape& shape) {
  if (grad.empty()) grad = Tensor(shape);
}

/// Base class for all layers. Data flows as rank-2 (batch, features)
/// tensors; spatial layers (conv, pool) interpret `features` as C*H*W using
/// their own geometry and validate it.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output. `training` toggles train-only behaviour,
  /// which no built-in layer has (DataAggregator::encode_batch adds the
  /// eq. 2 latent noise). Implementations cache whatever backward needs.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be called after forward on the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Inference-only forward pass into a caller-owned output tensor: no
  /// activation caching, no train-only behaviour, no mutation of the layer
  /// — safe to call concurrently from readers that share one trained model
  /// (the serving runtime's batched decode path), each with its own
  /// context. Implementations resize `out` (capacity-preserving) and write
  /// it fully; transient scratch comes from `ctx`. `out` must not alias
  /// `input` unless the layer is elementwise. Layers that only ever run in
  /// training pipelines may leave the default, which throws.
  virtual void infer_into(const Tensor& input, Tensor& out,
                          InferContext& ctx) const {
    (void)input;
    (void)out;
    (void)ctx;
    throw std::logic_error("Layer " + name() +
                           " does not implement const inference");
  }

  /// infer_into() with an elementwise activation applied on top — the entry
  /// InferPlan runs when it folds a following activation layer into this
  /// op. GEMM-backed layers (Dense, Conv2d) override this to push the
  /// activation into the kernel epilogue; the default computes infer_into()
  /// and applies the activation in a second pass, which is always
  /// equivalent.
  virtual void infer_fused_into(const Tensor& input, Tensor& out,
                                tensor::EpilogueAct act, float leaky_alpha,
                                InferContext& ctx) const {
    infer_into(input, out, ctx);
    tensor::Epilogue epilogue;
    epilogue.act = act;
    epilogue.leaky_alpha = leaky_alpha;
    const std::size_t rows = out.rank() >= 1 ? out.dim(0) : 0;
    if (rows > 0) {
      tensor::apply_epilogue(out.data().data(), rows, out.numel() / rows,
                             epilogue);
    }
  }

  /// True when inference through this layer is the identity, as for
  /// Identity: InferPlan::compile drops such layers instead of paying a
  /// buffer copy per batch.
  virtual bool infer_is_identity() const { return false; }

  /// Upper bound on the context-arena floats one infer_into() call bump-
  /// allocates (im2col column slabs and the like). Batch-independent by
  /// construction: spatial layers allocate per-sample scratch once and
  /// reuse it across the batch. InferPlan::compile takes the max over a
  /// chain to reserve the arena's exact high-water up front.
  virtual std::size_t infer_scratch_floats() const { return 0; }

  /// One-off wrapper over infer_into(): allocates a context (and the
  /// result) on the fly. Correct everywhere; hot paths that care about
  /// steady-state allocations hold a long-lived InferContext and run a
  /// compiled InferPlan (or a leaf layer's infer_into()) instead.
  Tensor infer(const Tensor& input) const {
    InferContext ctx;
    Tensor out;
    infer_into(input, out, ctx);
    return out;
  }

  /// Records a weight mutation made outside the layer's own API (an
  /// optimizer stepping through ParamView pointers, nn::load_params):
  /// Dense, the one layer an InferPlan packs, bumps its weight version, so
  /// plans compiled before the mutation report weights_stale(). Every other
  /// layer ignores it: a plan reads its weights live.
  virtual void invalidate_weight_cache() {}

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamView> params() { return {}; }

  /// Resets accumulated parameter gradients to zero; gradients not yet
  /// allocated (no backward so far) stay empty.
  void zero_grad() {
    for (auto& p : params()) p.grad->fill(0.0f);
  }

  /// Layer type name for diagnostics and serialisation headers.
  virtual std::string name() const = 0;

  /// Output feature count for a given input feature count; used by model
  /// builders to validate chains at construction time.
  virtual std::size_t output_features(std::size_t input_features) const = 0;

  /// Estimated multiply-add FLOPs for a forward pass over `batch` samples.
  /// Backward is conventionally charged at 2x forward. Stateless layers
  /// report 0 (their cost is negligible next to the GEMMs). Used by the
  /// simulated compute-time model (core/compute_model.h).
  virtual std::size_t forward_flops(std::size_t batch) const {
    (void)batch;
    return 0;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace orco::nn
