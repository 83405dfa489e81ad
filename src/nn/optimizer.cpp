#include "nn/optimizer.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "tensor/backend.h"

namespace orco::nn {

Optimizer::Optimizer(std::vector<ParamView> params)
    : params_(std::move(params)) {
  for (const auto& p : params_) {
    ORCO_CHECK(p.value != nullptr && p.grad != nullptr,
               "null param view: " << p.name);
    ORCO_CHECK(p.grad->empty() || p.value->shape() == p.grad->shape(),
               "param/grad shape mismatch: " << p.name);
  }
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.grad->fill(0.0f);
}

std::vector<Tensor> Optimizer::zero_state() const {
  std::vector<Tensor> state;
  state.reserve(params_.size());
  for (const auto& p : params_) state.emplace_back(p.value->shape());
  return state;
}

std::size_t Optimizer::parameter_count() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p.value->numel();
  return n;
}

Sgd::Sgd(std::vector<ParamView> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  ORCO_CHECK(lr > 0.0f, "learning rate must be positive");
  ORCO_CHECK(momentum >= 0.0f && momentum < 1.0f, "momentum out of [0,1)");
  ORCO_CHECK(weight_decay >= 0.0f, "weight decay must be non-negative");
}

void Sgd::set_learning_rate(float lr) {
  ORCO_CHECK(lr > 0.0f, "learning rate must be positive");
  lr_ = lr;
}

void Sgd::step() {
  if (momentum_ > 0.0f && velocity_.empty()) velocity_ = zero_state();
  for (std::size_t i = 0; i < params_.size(); ++i) step_param(i);
}

void Sgd::step_param(std::size_t i) {
  ensure_grad(*params_[i].grad, params_[i].value->shape());
  tensor::sgd_update(params_[i].grad->data().data(),
                     params_[i].value->data().data(), velocity(i),
                     params_[i].value->numel(),
                     {lr_, momentum_, weight_decay_});
}

float* Sgd::velocity(std::size_t i) {
  return momentum_ > 0.0f ? velocity_[i].data().data() : nullptr;
}

Tensor Sgd::backward_step(Layer& model, const Tensor& grad_output,
                          bool input_grad) {
  const std::vector<ParamView> views = model.params();
  ORCO_CHECK(views.size() == params_.size(),
             "model has " << views.size() << " parameters, the optimizer "
                          << params_.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    ORCO_CHECK(views[i].value == params_[i].value,
               "parameter " << i << " (" << views[i].name
                            << ") is not the optimizer's");
  }
  if (momentum_ > 0.0f && velocity_.empty()) velocity_ = zero_state();
  std::size_t end = params_.size();
  return walk(model, grad_output, input_grad, end);
}

Tensor Sgd::walk(Layer& layer, const Tensor& grad_output, bool input_grad,
                 std::size_t& end) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    Tensor g = grad_output;
    for (std::size_t i = seq->size(); i-- > 0;) {
      g = walk(seq->layer(i), g, input_grad || i > 0, end);
    }
    return g;
  }
  const std::size_t count = layer.params().size();
  const std::size_t first = end - count;
  end = first;
  if (auto* dense = dynamic_cast<Dense*>(&layer)) {
    // params() is {weight, bias}.
    Tensor dx = input_grad ? dense->input_grad(grad_output) : Tensor();
    dense->bias_grad().fill(0.0f);
    dense->accumulate_bias_grad(grad_output);
    step_param(first + 1);
    dense->step_weight(grad_output, {lr_, momentum_, weight_decay_},
                       velocity(first));
    return dx;
  }
  layer.zero_grad();
  Tensor dx = layer.backward(grad_output);
  for (std::size_t i = first; i < first + count; ++i) step_param(i);
  return dx;
}

Adam::Adam(std::vector<ParamView> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  ORCO_CHECK(lr > 0.0f, "learning rate must be positive");
  ORCO_CHECK(beta1 >= 0.0f && beta1 < 1.0f, "beta1 out of [0,1)");
  ORCO_CHECK(beta2 >= 0.0f && beta2 < 1.0f, "beta2 out of [0,1)");
}

void Adam::step() {
  if (m_.empty()) {
    m_ = zero_state();
    v_ = zero_state();
  }
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ensure_grad(*params_[i].grad, params_[i].value->shape());
    auto vd = params_[i].value->data();
    const auto gd = params_[i].grad->data();
    auto md = m_[i].data();
    auto sd = v_[i].data();
    for (std::size_t j = 0; j < vd.size(); ++j) {
      md[j] = beta1_ * md[j] + (1.0f - beta1_) * gd[j];
      sd[j] = beta2_ * sd[j] + (1.0f - beta2_) * gd[j] * gd[j];
      const float mhat = md[j] / bc1;
      const float vhat = sd[j] / bc2;
      vd[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace orco::nn
