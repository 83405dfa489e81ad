// First-order optimizers over ParamViews. The paper trains with SGD (eq. 5);
// Adam is provided for the classifier and ablations.
//
// Optimizer state is allocated on first use, like the gradients it reads
// (see ParamView): constructing an optimizer records the views and checks
// the gradients already allocated against their values' shapes, but sizes
// nothing. The first step() creates the state (SGD velocities, Adam's m/v)
// zero-filled, and steps any parameter whose gradient is still empty on a
// zero gradient, sized there so the bits match an explicit zero gradient.
//
// SGD also trains in one backward walk (Sgd::backward_step), which is how
// the §III-B round trains: there a Dense weight is stepped straight out of
// its gradient GEMM, so an SGD-trained Dense weight carries no gradient.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace orco::nn {

class Optimizer {
 public:
  /// Every view needs a value and a grad pointer; a grad that is already
  /// allocated must match its value's shape, an empty one is admitted.
  explicit Optimizer(std::vector<ParamView> params);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Zeroes all allocated parameter gradients; empty ones stay empty.
  void zero_grad();

  std::size_t parameter_count() const;

 protected:
  /// One zero-filled tensor per parameter, shaped like its value: the
  /// first step()'s optimizer state.
  std::vector<Tensor> zero_state() const;

  std::vector<ParamView> params_;
};

/// SGD with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ParamView> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);
  void step() override;

  /// zero_grad(), `model`.backward(grad_output) and step() in one backward
  /// walk, bit for bit: `model` is the layer whose params() this optimizer
  /// was built from, in the same order. Each layer steps as soon as its
  /// backward is done. A Dense layer computes dX from its pre-step weight
  /// (only where it is wanted: a first layer computes none unless
  /// `input_grad`), writes its bias gradient and steps the bias, then
  /// steps its weight inside the weight-gradient GEMM
  /// (tensor::Backend::gemm_tn_sgd), so its weight gradient is neither
  /// allocated, read nor written. Every other layer with parameters is
  /// zeroed, back-propagated and stepped through its ParamViews. Returns
  /// dL/d(input), or an empty tensor when `input_grad` is false and the
  /// first layer is a Dense.
  Tensor backward_step(Layer& model, const Tensor& grad_output,
                       bool input_grad);

  float learning_rate() const noexcept { return lr_; }
  void set_learning_rate(float lr);

  /// Momentum buffers, one per parameter in construction order. Empty
  /// when momentum is 0, and before the first step() or backward_step().
  const std::vector<Tensor>& velocities() const noexcept { return velocity_; }

 private:
  /// backward_step's walk over `layer`, whose parameters are
  /// params_[end - layer.params().size(), end); moves `end` past them.
  Tensor walk(Layer& layer, const Tensor& grad_output, bool input_grad,
              std::size_t& end);
  /// Steps parameter i from its gradient (sized, zero-filled, if empty).
  void step_param(std::size_t i);
  /// Parameter i's velocity, or nullptr without momentum.
  float* velocity(std::size_t i);

  float lr_, momentum_, weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<ParamView> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;

  /// First and second moment estimates, one per parameter in construction
  /// order; empty before the first step().
  const std::vector<Tensor>& first_moments() const noexcept { return m_; }
  const std::vector<Tensor>& second_moments() const noexcept { return v_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace orco::nn
