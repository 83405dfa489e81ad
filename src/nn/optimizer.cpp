#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
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
  for (auto& p : params_) {
    float* g = p.grad->data().data();
    const std::size_t n = p.grad->numel();
    common::parallel_for(tensor::elementwise_pool(n), 0, n, /*grain=*/1,
                         [g](std::size_t lo, std::size_t hi) {
                           std::fill(g + lo, g + hi, 0.0f);
                         });
  }
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
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ensure_grad(*params_[i].grad, params_[i].value->shape());
    float* vd = params_[i].value->data().data();
    const float* gd = params_[i].grad->data().data();
    float* mv = momentum_ > 0.0f ? velocity_[i].data().data() : nullptr;
    const float lr = lr_, momentum = momentum_, decay = weight_decay_;
    // Each element's update reads only its own slots, so chunks of the
    // sweep may run on the pool in any order.
    auto update = [=](std::size_t lo, std::size_t hi) {
      if (mv != nullptr) {
        for (std::size_t j = lo; j < hi; ++j) {
          const float g = gd[j] + decay * vd[j];
          mv[j] = momentum * mv[j] + g;
          vd[j] -= lr * mv[j];
        }
      } else {
        for (std::size_t j = lo; j < hi; ++j) {
          const float g = gd[j] + decay * vd[j];
          vd[j] -= lr * g;
        }
      }
    };
    const std::size_t n = params_[i].value->numel();
    common::parallel_for(tensor::elementwise_pool(n), 0, n, /*grain=*/1,
                         update);
  }
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
