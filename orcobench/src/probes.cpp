// Per-layer probes run after a traced window: each calls one module's
// public functions directly on the workload's own model shapes, so a
// per-layer number can be read next to the end-to-end one it should move.
#include <functional>
#include <string>

#include "core/models.h"
#include "harness.h"
#include "nn/dense.h"
#include "nn/infer_plan.h"
#include "tensor/backend.h"

namespace orcobench {

namespace {

using orco::tensor::Tensor;

/// Median per-call microseconds of `fn`: at least `min_reps` calls and
/// until `budget_ms` of calls have run, after one untimed warm-up call.
double time_median_us(const std::function<void()>& fn, int min_reps = 7,
                      double budget_ms = 60.0) {
  fn();
  std::vector<double> us;
  const auto start = Clock::now();
  while (static_cast<int>(us.size()) < min_reps ||
         us_between(start, Clock::now()) < budget_ms * 1e3) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(us_between(t0, Clock::now()));
    if (us.size() >= 2000) break;
  }
  return median(us);
}

void probe_nn_tensor(const orco::core::SystemConfig& config,
                     std::uint64_t seed, Result& result) {
  const orco::tensor::Backend& simd = orco::tensor::simd_backend();
  orco::tensor::BackendScope scope(&simd);
  orco::common::Pcg32 rng(mix_seed(seed, 0x9b0be));
  const std::size_t latent = config.orco.latent_dim;

  // nn: compile, each time on a freshly built decoder (a second compile of
  // the same layers would find their packed panels cached), then the
  // executor at three batch sizes on the last one.
  std::unique_ptr<orco::nn::Sequential> decoder;
  std::vector<double> compile_ms;
  std::shared_ptr<const orco::nn::InferPlan> plan;
  for (int i = 0; i < 5; ++i) {
    plan.reset();
    decoder = orco::core::build_decoder(config.orco, rng);
    const auto t0 = Clock::now();
    plan = orco::nn::InferPlan::compile(*decoder, &simd);
    compile_ms.push_back(us_between(t0, Clock::now()) / 1e3);
  }
  result.layer("nn.plan_compile_ms", median(compile_ms), "ms");

  orco::nn::InferContext ctx;
  Tensor out;
  for (std::size_t batch : {1, 8, 32}) {
    const Tensor in = Tensor::uniform({batch, latent}, rng);
    result.layer("nn.plan_run_us.b" + std::to_string(batch),
                 time_median_us([&] { plan->run(in, out, ctx); }), "us");
  }

  const std::size_t qb = 8;
  std::vector<std::uint8_t> codes(qb * latent);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next() & 0xffu);
  std::vector<float> row_lo(qb, 0.0f);
  std::vector<float> row_scale(qb, 1.0f / 255.0f);
  const orco::tensor::QuantHeader qh{row_lo.data(), row_scale.data()};
  result.layer("nn.plan_run_quantized_us.b8", time_median_us([&] {
                 plan->run_quantized(codes.data(), qh, qb, latent, out, ctx);
               }),
               "us");

  // tensor: the prepacked GEMM on every decoder layer shape, with the
  // operation count and the bytes the call moves computed from the shapes.
  double flops8 = 0.0, us8 = 0.0, flops32 = 0.0, us32 = 0.0;
  bool first = true;
  for (const orco::nn::Layer* layer : decoder->inference_chain()) {
    const auto* dense = dynamic_cast<const orco::nn::Dense*>(layer);
    if (dense == nullptr) continue;
    const std::size_t k = dense->weight().dim(1);
    const std::size_t n = dense->weight().dim(0);
    const auto packed =
        simd.pack_b(dense->weight().data().data(), k, n, /*transpose_b=*/true);
    orco::tensor::Epilogue epilogue;
    epilogue.bias = dense->bias().data().data();
    const std::string shape = std::to_string(k) + "x" + std::to_string(n);
    for (std::size_t m : {8, 32}) {
      const Tensor a = Tensor::uniform({m, k}, rng);
      Tensor c = Tensor::zeros({m, n});
      const double us = time_median_us([&] {
        simd.gemm_prepacked(a.data().data(), packed, c.data().data(), m, k, n,
                            epilogue);
      });
      const double flops = 2.0 * static_cast<double>(m * k * n);
      const double bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);
      const std::string tag = shape + ".b" + std::to_string(m);
      result.info("tensor.gemm_gflops." + tag, flops / us / 1e3, "GFLOP/s");
      result.info("tensor.gemm_bytes." + tag, bytes, "B");
      (m == 8 ? flops8 : flops32) += flops;
      (m == 8 ? us8 : us32) += us;
    }
    if (first) {
      first = false;
      std::vector<std::uint8_t> a_q(qb * k);
      for (auto& q : a_q) q = static_cast<std::uint8_t>(rng.next() & 0xffu);
      Tensor c = Tensor::zeros({qb, n});
      const double us = time_median_us([&] {
        simd.gemm_quantized(a_q.data(), qh, packed, c.data().data(), qb, k, n,
                            epilogue);
      });
      result.layer("tensor.gemm_quantized_gflops.b8",
                   2.0 * static_cast<double>(qb * k * n) / us / 1e3, "GFLOP/s");
    }
  }
  result.layer("tensor.gemm_gflops.b8", flops8 / us8 / 1e3, "GFLOP/s");
  result.layer("tensor.gemm_gflops.b32", flops32 / us32 / 1e3, "GFLOP/s");
}

void probe_core_wsn(const orco::core::SystemConfig& config,
                    const orco::data::Dataset& batch_source,
                    std::uint64_t seed, Result& result) {
  orco::core::SystemConfig cfg = config;
  cfg.orco.seed = mix_seed(seed, 0xc0de);
  orco::core::OrcoDcsSystem system(cfg);
  const std::size_t b = cfg.orco.batch_size;
  const orco::data::Dataset one_batch = batch_source.subset(0, b);
  const Tensor& batch = one_batch.images();

  // One §III-B round driven by hand through the aggregator and edge calls;
  // round 0 is the warm-up and is not timed.
  auto& aggregator = system.aggregator();
  auto& edge = system.edge();
  std::vector<double> encode, reconstruct, train_step, apply_grad;
  for (std::uint64_t round = 0; round < 6; ++round) {
    const auto t0 = Clock::now();
    const auto latents = aggregator.encode_batch(batch, round, /*training=*/true);
    const auto t1 = Clock::now();
    const auto recon = edge.reconstruct(latents, /*training=*/true);
    const auto t2 = Clock::now();
    const auto [loss, residual] = aggregator.evaluate_reconstruction(recon);
    (void)loss;
    const auto t3 = Clock::now();
    const auto grad = edge.train_step(residual);
    const auto t4 = Clock::now();
    aggregator.apply_latent_gradient(grad);
    const auto t5 = Clock::now();
    if (round == 0) continue;
    encode.push_back(us_between(t0, t1));
    reconstruct.push_back(us_between(t1, t2));
    train_step.push_back(us_between(t3, t4));
    apply_grad.push_back(us_between(t4, t5));
  }
  result.layer("core.encode_us", median(encode), "us");
  result.layer("core.edge_reconstruct_us", median(reconstruct), "us");
  result.layer("core.edge_train_step_us", median(train_step), "us");
  result.layer("core.apply_grad_us", median(apply_grad), "us");

  std::vector<double> eval_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    (void)system.evaluate_loss(batch_source);
    eval_ms.push_back(us_between(t0, Clock::now()) / 1e3);
  }
  result.layer("core.evaluate_loss_ms", median(eval_ms), "ms");

  // wsn: the wire accounting of one orchestrated round (deterministic for
  // the shapes; the simulated seconds are on the paper's time axis).
  const auto summary = system.train_online(one_batch, 1);
  const auto& record = summary.rounds.back();
  result.layer("wsn.uplink_bytes_per_round",
               static_cast<double>(record.uplink_payload_bytes), "B");
  result.layer("wsn.downlink_bytes_per_round",
               static_cast<double>(record.downlink_payload_bytes), "B");
  result.layer("wsn.sim_comms_s_per_round", record.round_comms_s, "sim_s");
}

}  // namespace

void probe_layers(const orco::core::SystemConfig& config,
                  const orco::data::Dataset& batch_source, std::uint64_t seed,
                  Result& result) {
  probe_nn_tensor(config, seed, result);
  probe_core_wsn(config, batch_source, seed, result);
}

}  // namespace orcobench
