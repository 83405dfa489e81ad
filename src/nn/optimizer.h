// First-order optimizers over ParamViews. The paper trains with SGD (eq. 5);
// Adam is provided for the classifier and ablations.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace orco::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<ParamView> params);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Zeroes all parameter gradients.
  void zero_grad();

  std::size_t parameter_count() const;

 protected:
  std::vector<ParamView> params_;
};

/// SGD with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ParamView> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);
  void step() override;

  float learning_rate() const noexcept { return lr_; }
  void set_learning_rate(float lr);

  /// Momentum buffers, one per parameter in construction order (empty
  /// when momentum is 0).
  const std::vector<Tensor>& velocities() const noexcept { return velocity_; }

 private:
  float lr_, momentum_, weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<ParamView> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;

 private:
  float lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace orco::nn
