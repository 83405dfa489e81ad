#include "nn/infer_plan.h"

#include <algorithm>

#include "common/check.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "tensor/workspace.h"

namespace orco::nn {

namespace {

const char* epilogue_suffix(tensor::EpilogueAct act) {
  switch (act) {
    case tensor::EpilogueAct::kNone:
      return "";
    case tensor::EpilogueAct::kReLU:
      return "+ReLU";
    case tensor::EpilogueAct::kLeakyReLU:
      return "+LeakyReLU";
    case tensor::EpilogueAct::kSigmoid:
      return "+Sigmoid";
    case tensor::EpilogueAct::kTanh:
      return "+Tanh";
  }
  return "";
}

}  // namespace

std::shared_ptr<const InferPlan> InferPlan::compile(
    const Sequential& model, const tensor::Backend* backend) {
  const tensor::Backend& be =
      backend != nullptr ? *backend : tensor::current_backend();
  auto plan = std::shared_ptr<InferPlan>(new InferPlan());
  plan->backend_ = &be;
  const std::vector<const Layer*>& chain = model.inference_chain();
  // Skip identity layers and fuse a following elementwise activation into
  // the producing op: the epilogue applies the same function the
  // activation layer would, so the fused op keeps the layer-by-layer bits.
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain[i]->infer_is_identity()) continue;
    PlanOp op;
    op.layer = chain[i];
    op.source_index = i;
    std::size_t step_end = i;
    if (i + 1 < chain.size()) {
      float leaky_alpha = 0.01f;
      if (const auto epi = activation_epilogue(*chain[i + 1], leaky_alpha)) {
        op.act = *epi;
        op.leaky_alpha = leaky_alpha;
        op.fused = true;
        step_end = i + 1;
      }
    }
    if (const auto* dense = dynamic_cast<const Dense*>(chain[i])) {
      op.dense = dense;
      op.packed = dense->plan_pack(be, op.packed_version);
    }
    plan->scratch_floats_ = std::max(
        plan->scratch_floats_,
        tensor::Workspace::aligned_floats(chain[i]->infer_scratch_floats()));
    plan->ops_.push_back(std::move(op));
    i = step_end;
  }
  if (!plan->ops_.empty()) {
    plan->timers_ = std::make_unique<obs::OpTimer[]>(plan->ops_.size());
  }
  return plan;
}

void InferPlan::run(const Tensor& input, Tensor& out,
                    InferContext& ctx) const {
  ORCO_CHECK(&out != &input,
             "InferPlan::run output may not alias its input");
  if (ops_.empty()) {
    // All-identity (or empty) chain: the pass is a copy.
    out.resize_like(input);
    std::copy(input.data().begin(), input.data().end(), out.data().begin());
    return;
  }
  ORCO_CHECK(!ctx.owns(out) || ops_.size() == 1,
             "InferPlan::run output may not alias a context buffer: a "
             "multi-op plan needs both buffers for intermediates");
  // Reserve the precomputed high-water once; subsequent runs find the
  // arena already sized and never touch the allocator.
  if (ctx.scratch().used() == 0 &&
      ctx.scratch().capacity() < scratch_floats_) {
    ctx.scratch().reserve(scratch_floats_);
  }
  // Every op, packed or not, runs on the compile backend, whatever the
  // caller's thread has selected.
  tensor::BackendScope scope(backend_);
  const bool profile = obs::kernel_profiling_enabled();
  const std::size_t n = ops_.size();
  const Tensor* cur = &input;
  // ORCO_HOT_PATH BEGIN (plan executor: every per-batch decision was made
  // at compile time — no allocation, no locks, no cache probes)
  for (std::size_t i = 0; i < n; ++i) {
    const PlanOp& op = ops_[i];
    Tensor& dst = (i + 1 == n) ? out : ctx.other_than(*cur);
    const std::uint64_t t0 = profile ? obs::KernelTimer::now_ns() : 0;
    if (op.dense != nullptr) {
      op.dense->infer_packed_into(*cur, dst, *op.packed, op.act,
                                  op.leaky_alpha);
    } else if (op.fused) {
      op.layer->infer_fused_into(*cur, dst, op.act, op.leaky_alpha, ctx);
    } else {
      op.layer->infer_into(*cur, dst, ctx);
    }
    if (profile) {
      obs::OpTimer& timer = timers_[i];
      timer.ns.fetch_add(obs::KernelTimer::now_ns() - t0,
                         std::memory_order_relaxed);
      timer.calls.fetch_add(1, std::memory_order_relaxed);
    }
    cur = &dst;
  }
  // ORCO_HOT_PATH END
}

void InferPlan::run_quantized(const std::uint8_t* codes,
                              const tensor::QuantHeader& qh, std::size_t batch,
                              std::size_t features, Tensor& out,
                              InferContext& ctx) const {
  ORCO_CHECK(codes != nullptr && qh.row_lo != nullptr &&
                 qh.row_scale != nullptr,
             "run_quantized needs codes and per-row headers");
  // An all-identity (or empty) chain is just the dequantization. Otherwise
  // stage the batch in the context buffer `out` is not: a single-op plan
  // may write a context buffer.
  Tensor& staged = ops_.empty() ? out : ctx.other_than(out);
  staged.resize(batch, features);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::uint8_t* src = codes + i * features;
    float* row = staged.data().data() + i * features;
    const float lo = qh.row_lo[i];
    const float scale = qh.row_scale[i];
    for (std::size_t j = 0; j < features; ++j) {
      row[j] = lo + static_cast<float>(src[j]) * scale;
    }
  }
  if (!ops_.empty()) run(staged, out, ctx);
}

bool InferPlan::weights_stale() const noexcept {
  for (const auto& op : ops_) {
    if (op.dense != nullptr &&
        op.dense->weight_version() != op.packed_version) {
      return true;
    }
  }
  return false;
}

common::Table InferPlan::op_profile_table() const {
  common::Table table({"op", "kernel", "calls", "total ms", "mean us"});
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const std::uint64_t calls =
        timers_[i].calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    const std::uint64_t ns = timers_[i].ns.load(std::memory_order_relaxed);
    std::string kernel = ops_[i].layer->name();
    if (ops_[i].packed != nullptr) kernel += "[packed]";
    kernel += epilogue_suffix(ops_[i].act);
    table.add_row({std::to_string(i), kernel, std::to_string(calls),
                   common::Table::num(static_cast<double>(ns) / 1e6, 3),
                   common::Table::num(static_cast<double>(ns) / 1e3 /
                                          static_cast<double>(calls),
                                      3)});
  }
  return table;
}

}  // namespace orco::nn
