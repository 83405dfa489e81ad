// Tests for the zero-allocation inference substrate: the tensor::Workspace
// bump arena (growth, mark/rewind, coalesce-on-reset), InferContext buffer
// ping-pong reuse, and — via a counting global operator new — proof that a
// steady-state decode through a warmed context performs zero heap
// allocations (the acceptance bar for the serving shard's decode stage).
//
// This TU owns the test binary's global operator new/delete replacement,
// the plain and the std::align_val_t forms (tensor storage below 2 MiB takes
// aligned operator new); counting is scoped per thread so gtest's own
// allocations never leak into a measurement. Buffers of 2 MiB and more are
// mappings that bypass operator new (tensor/buffer.h), so the counter adds
// tensor::buffer_mappings() to what it saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/quantization.h"
#include "core/system.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "tensor/backend.h"
#include "tensor/buffer.h"
#include "tensor/workspace.h"

#include "bf16_oracle.h"

namespace {

thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  if (t_count_allocs) ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (t_count_allocs) ++t_alloc_count;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      std::max<std::size_t>(1, (size + alignment - 1) / alignment) * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Global replacements: every operator new in the test binary funnels
// through the counter (only armed on the measuring thread, inside a scope).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace orco {
namespace {

using nn::InferContext;
using tensor::Tensor;
using tensor::Workspace;

/// Arms the allocation counter for the current thread for its scope. The
/// count is this thread's operator new calls plus the large-buffer mappings
/// the process made meanwhile (the measured decodes run on this thread).
class CountAllocs {
 public:
  CountAllocs() : mappings_before_(tensor::buffer_mappings()) {
    t_alloc_count = 0;
    t_count_allocs = true;
  }
  ~CountAllocs() { t_count_allocs = false; }
  std::uint64_t count() const {
    return t_alloc_count + (tensor::buffer_mappings() - mappings_before_);
  }

 private:
  std::uint64_t mappings_before_;
};

/// Serial, simd-backend kernels for deterministic measurements: no pool
/// futures, no reference-backend transpose temporaries.
class SerialSimdScope {
 public:
  SerialSimdScope() : scope_(&tensor::simd_backend()) {
    tensor::set_thread_gemm_parallelism(false);
  }
  ~SerialSimdScope() { tensor::set_thread_gemm_parallelism(true); }

 private:
  tensor::BackendScope scope_;
};

TEST(WorkspaceTest, BumpAllocatesAlignedAndTracksUsage) {
  Workspace ws;
  EXPECT_EQ(ws.capacity(), 0u);
  float* a = ws.alloc(10);
  float* b = ws.alloc(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  // Both allocations rounded up to the 16-float alignment grain.
  EXPECT_EQ(ws.used(), 16u + 112u);
  EXPECT_GE(ws.high_water(), ws.used());
  // Writable across the whole request.
  for (int i = 0; i < 10; ++i) a[i] = 1.0f;
  for (int i = 0; i < 100; ++i) b[i] = 2.0f;
  EXPECT_EQ(a[9], 1.0f);
  EXPECT_EQ(b[99], 2.0f);
}

TEST(WorkspaceTest, MarkRewindRecyclesWithoutGrowth) {
  Workspace ws(1024);
  const std::size_t cap = ws.capacity();
  const Workspace::Mark m = ws.mark();
  float* first = ws.alloc(256);
  ws.rewind(m);
  EXPECT_EQ(ws.used(), 0u);
  float* second = ws.alloc(256);
  EXPECT_EQ(first, second);  // same storage handed back
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(WorkspaceTest, WorkspaceScopeRewindsOnExit) {
  Workspace ws(512);
  float* outer = ws.alloc(32);
  (void)outer;
  const std::size_t used_before = ws.used();
  {
    tensor::WorkspaceScope scope(ws);
    (void)ws.alloc(64);
    (void)ws.alloc(64);
    EXPECT_GT(ws.used(), used_before);
  }
  EXPECT_EQ(ws.used(), used_before);
}

TEST(WorkspaceTest, OverflowGrowsThenResetCoalescesToOneSlab) {
  Workspace ws;
  (void)ws.alloc(100);
  (void)ws.alloc(5000);   // overflows the first block
  (void)ws.alloc(20000);  // and the second
  EXPECT_GT(ws.block_count(), 1u);
  const std::size_t high = ws.high_water();
  ws.reset();
  EXPECT_EQ(ws.used(), 0u);
  EXPECT_EQ(ws.block_count(), 1u);  // coalesced
  EXPECT_GE(ws.capacity(), high);
  // The same sequence now fits without opening a second block.
  (void)ws.alloc(100);
  (void)ws.alloc(5000);
  (void)ws.alloc(20000);
  EXPECT_EQ(ws.block_count(), 1u);
}

TEST(WorkspaceTest, RewindValidatesLifoOrder) {
  Workspace ws(256);
  const Workspace::Mark early = ws.mark();
  (void)ws.alloc(16);
  const Workspace::Mark late = ws.mark();
  ws.rewind(late);
  ws.rewind(early);
  (void)ws.alloc(16);
  const Workspace::Mark after = ws.mark();
  ws.rewind(after);
  EXPECT_THROW(ws.rewind(Workspace::Mark{0, 9999}), std::invalid_argument);
}

TEST(InferContextTest, PingPongBuffersAlternate) {
  InferContext ctx;
  Tensor& b0 = ctx.buffer(0);
  Tensor& b1 = ctx.buffer(1);
  EXPECT_NE(&b0, &b1);
  EXPECT_EQ(&ctx.input(), &b0);
  EXPECT_EQ(&ctx.other_than(b0), &b1);
  EXPECT_EQ(&ctx.other_than(b1), &b0);
  Tensor outside({4});
  EXPECT_EQ(&ctx.other_than(outside), &b0);
  EXPECT_TRUE(ctx.owns(b0));
  EXPECT_TRUE(ctx.owns(b1));
  EXPECT_FALSE(ctx.owns(outside));
}

/// The 16 -> 48 -> 48 -> 64 Dense chain several tests decode, built from
/// `rng`.
std::unique_ptr<nn::Sequential> make_mlp(common::Pcg32& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Dense>(16, 48, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(48, 48, rng);
  model->emplace<nn::LeakyReLU>(0.05f);
  model->emplace<nn::Dense>(48, 64, rng);
  model->emplace<nn::Sigmoid>();
  return model;
}

/// `model` (a make_mlp chain) with its Dense weights rounded to bf16: the
/// forward a compiled plan of it matches bitwise.
std::unique_ptr<nn::Sequential> rounded_mlp(nn::Sequential& model) {
  return testutil::bf16_copy(model, [] {
    common::Pcg32 any(0);
    return make_mlp(any);
  });
}

TEST(InferContextTest, PlanRunThroughOneContextMatchesForwardBitwise) {
  common::Pcg32 rng(7);
  const auto model = make_mlp(rng);
  const auto rounded = rounded_mlp(*model);
  const auto plan = nn::InferPlan::compile(*model);

  InferContext ctx;
  Tensor out;
  // Varying batch sizes through ONE context: buffers shrink and regrow
  // within capacity without perturbing values.
  for (const std::size_t batch : {8u, 1u, 5u, 8u}) {
    const Tensor x = Tensor::randn({batch, 16}, rng);
    const Tensor expected = rounded->forward(x, /*training=*/false);
    plan->run(x, out, ctx);
    ASSERT_EQ(out.shape(), expected.shape());
    for (std::size_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], expected[i]) << "batch " << batch << " elem " << i;
    }
  }
}

TEST(InferContextTest, ConvChainPlanRunThroughOneContextMatchesForward) {
  common::Pcg32 rng(21);
  nn::Sequential model;
  // 1x8x8 -> conv 4ch -> ReLU -> pool -> convT back up -> Sigmoid.
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(4, 8, 8, 2, 2);
  model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 4, 4, rng);
  model.emplace<nn::Sigmoid>();
  const auto plan = nn::InferPlan::compile(model);

  InferContext ctx;
  Tensor out;
  for (const std::size_t batch : {3u, 1u, 3u}) {
    const Tensor x = Tensor::randn({batch, 64}, rng);
    const Tensor expected = model.forward(x, /*training=*/false);
    plan->run(x, out, ctx);
    ASSERT_EQ(out.shape(), expected.shape());
    for (std::size_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], expected[i]) << "batch " << batch << " elem " << i;
    }
  }
}

TEST(InferContextTest, InputMayAliasAContextBuffer) {
  // The ClusterShard pattern: assemble the batch in ctx.input(), infer out
  // of it. The executor must ping-pong away from the aliased buffer.
  common::Pcg32 rng(3);
  nn::Sequential model;
  model.emplace<nn::Dense>(8, 24, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(24, 32, rng);
  model.emplace<nn::Sigmoid>();
  const auto plan = nn::InferPlan::compile(model);
  const auto rounded = testutil::bf16_copy(model, [] {
    common::Pcg32 any(0);
    auto copy = std::make_unique<nn::Sequential>();
    copy->emplace<nn::Dense>(8, 24, any);
    copy->emplace<nn::ReLU>();
    copy->emplace<nn::Dense>(24, 32, any);
    copy->emplace<nn::Sigmoid>();
    return copy;
  });

  InferContext ctx;
  const Tensor x = Tensor::randn({4, 8}, rng);
  const Tensor expected = rounded->forward(x, /*training=*/false);

  Tensor& assembled = ctx.input();
  assembled.resize(4, 8);
  std::copy(x.data().begin(), x.data().end(), assembled.data().begin());
  Tensor out;
  plan->run(assembled, out, ctx);
  ASSERT_EQ(out.shape(), expected.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    ASSERT_EQ(out[i], expected[i]);
  }
}

TEST(ZeroAllocTest, WarmedPlanExecutorMakesNoHeapAllocations) {
  // After one warmup run at the high-water batch, the compiled plan's
  // float and int8 entries touch no allocator — kernels come pre-resolved,
  // panels pre-packed, the arena pre-reserved — and smaller batches
  // recycle the same (capacity-preserving) buffers.
  SerialSimdScope kernels;
  common::Pcg32 rng(37);
  nn::Sequential model;
  model.emplace<nn::Dense>(16, 64, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(64, 64, rng);
  model.emplace<nn::Sigmoid>();

  const auto plan = nn::InferPlan::compile(model);
  InferContext ctx;
  Tensor out;
  const Tensor x = Tensor::randn({8, 16}, rng);
  plan->run(x, out, ctx);
  plan->run(x, out, ctx);

  std::uint64_t allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) plan->run(x, out, ctx);
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0u);

  const Tensor small = Tensor::randn({2, 16}, rng);
  plan->run(small, out, ctx);  // shape warmup outside the counter
  std::uint64_t small_allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) plan->run(small, out, ctx);
    small_allocs = counter.count();
  }
  EXPECT_EQ(small_allocs, 0u);

  // The int8 uplink entry (codes dequantized into the context) through
  // the same warmed plan and context: 8x16 uint8 codes with per-row affine
  // headers, then a smaller batch.
  std::vector<std::uint8_t> codes(8 * 16);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint8_t>((i * 53 + 5) & 0xFF);
  }
  std::vector<float> lo(8), scale(8, 1.5f / 255.0f);
  for (std::size_t i = 0; i < 8; ++i) {
    lo[i] = -0.5f + 0.1f * static_cast<float>(i);
  }
  const tensor::QuantHeader qh{lo.data(), scale.data()};
  plan->run_quantized(codes.data(), qh, 8, 16, out, ctx);
  std::uint64_t q_allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) {
      plan->run_quantized(codes.data(), qh, 8, 16, out, ctx);
    }
    q_allocs = counter.count();
  }
  EXPECT_EQ(q_allocs, 0u);
  EXPECT_EQ(out.dim(1), 64u);

  plan->run_quantized(codes.data(), qh, 3, 16, out, ctx);
  std::uint64_t q_small_allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) {
      plan->run_quantized(codes.data(), qh, 3, 16, out, ctx);
    }
    q_small_allocs = counter.count();
  }
  EXPECT_EQ(q_small_allocs, 0u);
}

TEST(ZeroAllocTest, WarmedConvPlanExecutorMakesNoHeapAllocations) {
  // Conv plans carry arena scratch (im2col): the compile-time high-water
  // makes the first run() reserve once, so warmed runs stay off the
  // allocator with zero arena growth, at the warmup batch and below it.
  SerialSimdScope kernels;
  common::Pcg32 rng(43);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 8, 8, rng);
  model.emplace<nn::Sigmoid>();

  const auto plan = nn::InferPlan::compile(model);
  InferContext ctx;
  Tensor out;
  const Tensor x = Tensor::randn({4, 64}, rng);
  plan->run(x, out, ctx);
  plan->run(x, out, ctx);

  std::uint64_t allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 8; ++i) plan->run(x, out, ctx);
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0u);

  const Tensor small = Tensor::randn({1, 64}, rng);
  plan->run(small, out, ctx);
  std::uint64_t small_allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 8; ++i) plan->run(small, out, ctx);
    small_allocs = counter.count();
  }
  EXPECT_EQ(small_allocs, 0u);
}

TEST(ZeroAllocTest, NestedChainDecodesZeroAllocAndBitwiseEqualToFlat) {
  // Nested containers flatten at add() time, so the plan compiled from a
  // nested chain decodes exactly like its flat equivalent — the flat
  // chain's forward bits (on its bf16-rounded Dense weights, as every plan
  // decodes), zero allocations.
  SerialSimdScope kernels;

  nn::Sequential flat;
  {
    common::Pcg32 rng(47);
    flat.emplace<nn::Dense>(16, 48, rng);
    flat.emplace<nn::ReLU>();
    flat.emplace<nn::Dense>(48, 48, rng);
    flat.emplace<nn::LeakyReLU>(0.05f);
    flat.emplace<nn::Dense>(48, 64, rng);
    flat.emplace<nn::Sigmoid>();
  }
  nn::Sequential nested;
  {
    // Same seed stream -> identical weights, nested one level deep.
    common::Pcg32 rng(47);
    nested.emplace<nn::Dense>(16, 48, rng);
    nested.emplace<nn::ReLU>();
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Dense>(48, 48, rng);
    inner->emplace<nn::LeakyReLU>(0.05f);
    inner->emplace<nn::Dense>(48, 64, rng);
    nested.add(std::move(inner));
    nested.emplace<nn::Sigmoid>();
  }

  common::Pcg32 data_rng(51);
  const Tensor x = Tensor::randn({8, 16}, data_rng);
  const Tensor expected = rounded_mlp(flat)->forward(x, /*training=*/false);
  const auto plan = nn::InferPlan::compile(nested);
  InferContext ctx;
  Tensor out;
  plan->run(x, out, ctx);  // warmup
  ASSERT_EQ(out.shape(), expected.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    ASSERT_EQ(out[i], expected[i]) << "elem " << i;
  }

  std::uint64_t allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) plan->run(x, out, ctx);
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, ClusterShardStyleSteadyStateDecodeIsAllocationFree) {
  // The exact decode stage ClusterShard::serve_batch runs per batch:
  // assemble coalesced requests into the context's input buffer (a float
  // latent is one sized row copy, a kFixed8 uplink payload is dequantized
  // straight into its row), decode through the tenant's real exported
  // decoder into the worker-owned output buffer. After warmup the whole
  // stage must not touch the allocator.
  SerialSimdScope kernels;
  core::SystemConfig cfg;
  cfg.orco.input_dim = 64;
  cfg.orco.latent_dim = 16;
  cfg.orco.decoder_layers = 3;
  cfg.orco.seed = 5;
  cfg.field.device_count = 8;
  cfg.field.radio_range_m = 60.0;
  core::OrcoDcsSystem system(cfg);

  common::Pcg32 rng(17);
  std::vector<Tensor> latents;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 8; ++i) {
    latents.push_back(Tensor::randn({16}, rng));
    payloads.push_back(
        core::quantize_latents(latents.back(), core::LatentPrecision::kFixed8));
  }

  nn::InferContext ctx;
  Tensor decode_out;
  const auto decode_batch = [&](std::size_t count) {
    Tensor& stacked = ctx.input();
    stacked.resize(count, 16);
    for (std::size_t r = 0; r < count; ++r) {
      if (r % 2 == 1) {
        core::dequantize_latents_into(payloads[r].data(), payloads[r].size(),
                                      core::LatentPrecision::kFixed8,
                                      stacked.row(r).data(), 16);
      } else {
        const auto src = latents[r].data();
        std::copy(src.begin(), src.end(), stacked.row(r).begin());
      }
    }
    system.edge().decode_inference(stacked, decode_out, ctx);
  };

  decode_batch(8);  // warmup at the high-water batch
  decode_batch(8);
  std::uint64_t allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) decode_batch(8);
    for (int i = 0; i < 16; ++i) decode_batch(3);  // partial batches too
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(decode_out.dim(1), 64u);
}

TEST(ZeroAllocTest, SteadyStateDecodeStaysAllocationFreeWithObservabilityOn) {
  // Same acceptance bar as above with the full observability stack armed:
  // metrics, tracing at rate 1.0 (every decode emits a span into the
  // thread-local ring) and per-kernel/per-op profiling. The ring is created
  // during warmup and the plan's op timers at compile; the steady-state
  // record path is plain atomic adds and ring stores, so it must stay off
  // the allocator.
  SerialSimdScope kernels;
  obs::ObsConfig obs_cfg;
  obs_cfg.trace_sample_rate = 1.0;
  obs_cfg.kernel_profiling = true;
  obs::configure(obs_cfg);

  core::SystemConfig cfg;
  cfg.orco.input_dim = 64;
  cfg.orco.latent_dim = 16;
  cfg.orco.decoder_layers = 3;
  cfg.orco.seed = 5;
  cfg.field.device_count = 8;
  cfg.field.radio_range_m = 60.0;
  core::OrcoDcsSystem system(cfg);

  common::Pcg32 rng(23);
  std::vector<Tensor> latents;
  for (int i = 0; i < 8; ++i) latents.push_back(Tensor::randn({16}, rng));

  nn::InferContext ctx;
  Tensor decode_out;
  const auto decode_batch = [&](std::size_t count) {
    Tensor& stacked = ctx.input();
    stacked.resize(count, 16);
    for (std::size_t r = 0; r < count; ++r) {
      const auto src = latents[r].data();
      std::copy(src.begin(), src.end(), stacked.row(r).begin());
    }
    system.edge().decode_inference(stacked, decode_out, ctx);
  };

  decode_batch(8);  // warmup: plan compile, context buffers, trace ring
  decode_batch(8);
  std::uint64_t allocs = 0;
  {
    CountAllocs counter;
    for (int i = 0; i < 16; ++i) decode_batch(8);
    allocs = counter.count();
  }
  obs::configure(obs::ObsConfig{});
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(obs::TraceCollector::instance().event_count(), 0u);
}

}  // namespace
}  // namespace orco
