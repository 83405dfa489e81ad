// End-to-end tests of the OrcoDcsSystem facade: the paper's three stages
// plus fine-tuning, on a small synthetic-MNIST workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/dcsnet.h"
#include "core/orcodcs.h"
#include "data/drift.h"
#include "data/metrics.h"
#include "data/synthetic_gtsrb.h"
#include "data/synthetic_mnist.h"
#include "nn/model_io.h"
#include "obs/config.h"
#include "obs/profile.h"
#include "serve/serve.h"

namespace orco::core {
namespace {

SystemConfig small_system() {
  SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 32;
  cfg.orco.decoder_layers = 1;
  cfg.orco.noise_variance = 0.01f;
  cfg.orco.batch_size = 32;
  cfg.orco.learning_rate = 3.0f;
  cfg.field.device_count = 16;
  cfg.field.radio_range_m = 50.0;
  return cfg;
}

data::Dataset small_mnist(std::size_t count = 256, std::uint64_t seed = 1) {
  data::MnistConfig cfg;
  cfg.count = count;
  cfg.seed = seed;
  return data::make_synthetic_mnist(cfg);
}

TEST(SystemTest, ConstructsWithValidTopology) {
  OrcoDcsSystem sys(small_system());
  EXPECT_EQ(sys.field().device_count(), 16u);
  EXPECT_EQ(sys.tree().subtree_size(sys.tree().root()), 16u);
  EXPECT_DOUBLE_EQ(sys.sim_time(), 0.0);
}

TEST(SystemTest, RawAggregationChargesIntraClusterLink) {
  OrcoDcsSystem sys(small_system());
  const double seconds = sys.raw_aggregation_round(784 * sizeof(float));
  EXPECT_GT(seconds, 0.0);
  EXPECT_GT(sys.ledger().totals(wsn::LinkKind::kIntraCluster).payload_bytes,
            0u);
  EXPECT_DOUBLE_EQ(sys.sim_time(), seconds);
}

TEST(SystemTest, OnlineTrainingReducesLossAndAdvancesClock) {
  OrcoDcsSystem sys(small_system());
  const auto train = small_mnist();
  const auto summary = sys.train_online(train, /*epochs=*/3);
  ASSERT_FALSE(summary.rounds.empty());
  // Mean loss of the first epoch vs last epoch.
  const std::size_t per_epoch = summary.rounds.size() / 3;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < per_epoch; ++i) {
    first += summary.rounds[i].loss;
    last += summary.rounds[summary.rounds.size() - 1 - i].loss;
  }
  EXPECT_LT(last, first * 0.8);
  EXPECT_GT(summary.sim_seconds, 0.0);
  EXPECT_FLOAT_EQ(summary.final_loss, summary.rounds.back().loss);
}

TEST(SystemTest, TrainingIsDeterministicPerSeed) {
  const auto train = small_mnist(128);
  OrcoDcsSystem a(small_system()), b(small_system());
  const auto sa = a.train_online(train, 1);
  const auto sb = b.train_online(train, 1);
  ASSERT_EQ(sa.rounds.size(), sb.rounds.size());
  for (std::size_t i = 0; i < sa.rounds.size(); ++i) {
    EXPECT_FLOAT_EQ(sa.rounds[i].loss, sb.rounds[i].loss);
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

// A tenant that only serves carries no training state: encoder and decoder
// gradients and both SGD velocity sets stay empty while it answers decodes.
// Its first training round creates every velocity and every bias gradient,
// while the Dense weights, stepped straight out of their gradient GEMMs,
// still carry no gradient.
TEST(SystemTest, TrainingStateAppearsAtFirstTrainingRound) {
  const SystemConfig cfg = small_system();
  auto sys = std::make_shared<OrcoDcsSystem>(cfg);
  const auto expect_training_state = [&](bool trained) {
    const std::pair<nn::Sequential*, const nn::Sgd*> halves[] = {
        {&sys->aggregator().encoder(), &sys->aggregator().optimizer()},
        {&sys->edge().decoder(), &sys->edge().optimizer()}};
    for (const auto& [model, sgd] : halves) {
      const auto params = model->params();
      for (const auto& p : params) {
        const bool dense_weight =
            p.name.find("Dense.weight") != std::string::npos;
        if (trained && !dense_weight) {
          EXPECT_EQ(p.grad->shape(), p.value->shape()) << p.name;
        } else {
          EXPECT_TRUE(p.grad->empty()) << p.name;
        }
      }
      ASSERT_EQ(sgd->velocities().size(), trained ? params.size() : 0u);
      for (std::size_t i = 0; i < sgd->velocities().size(); ++i) {
        EXPECT_EQ(sgd->velocities()[i].shape(), params[i].value->shape());
      }
    }
  };

  serve::ServeConfig scfg;
  scfg.shard_count = 1;
  serve::ServerRuntime runtime(scfg);
  runtime.register_cluster(1, sys);
  runtime.start();
  common::Pcg32 rng(8);
  for (int i = 0; i < 8; ++i) {
    const auto response =
        runtime.submit(1, Tensor::randn({cfg.orco.latent_dim}, rng)).get();
    ASSERT_EQ(response.status, serve::ResponseStatus::kOk);
  }
  runtime.shutdown();
  {
    SCOPED_TRACE("after serving");
    expect_training_state(/*trained=*/false);
  }

  const auto train = small_mnist(cfg.orco.batch_size);
  (void)sys->orchestrator().train_round(train.images());
  {
    SCOPED_TRACE("after one training round");
    expect_training_state(/*trained=*/true);
  }
}

// Pooled training kernels (the split GEMMs, the weight steps fused into the
// dW GEMMs, the unpacked training forward) must train exactly as the serial
// ones do: same losses, weights and velocities.
TEST(SystemTest, PooledTrainingRoundsMatchSerialBitwise) {
  // MNIST data (784 -> 128, batch 64) through a decoder 128 -> 2048 -> 784:
  // wide enough that its second layer's forward, dW and dX GEMMs (103M
  // multiply-adds) and its 1.6M-value SGD sweep run on the pool.
  SystemConfig cfg = small_system();
  cfg.orco.latent_dim = 128;
  cfg.orco.batch_size = 64;
  cfg.orco.decoder_layers = 2;
  cfg.orco.decoder_hidden_dim = 2048;
  constexpr std::size_t kRounds = 3;
  const auto train = small_mnist(kRounds * cfg.orco.batch_size);
  struct Trained {
    std::vector<float> losses;
    std::vector<Tensor> state;  // weights, then SGD velocities
  };
  auto run = [&](bool pooled) {
    tensor::set_thread_gemm_parallelism(pooled);
    OrcoDcsSystem sys(cfg);
    Trained out;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t b = cfg.orco.batch_size;
      out.losses.push_back(sys.orchestrator()
                               .train_round(train.images().slice_rows(
                                   r * b, (r + 1) * b))
                               .loss);
    }
    for (nn::Sequential* model :
         {&sys.aggregator().encoder(), &sys.edge().decoder()}) {
      for (const auto& p : model->params()) out.state.push_back(*p.value);
    }
    for (const nn::Sgd* sgd :
         {&sys.aggregator().optimizer(), &sys.edge().optimizer()}) {
      EXPECT_FALSE(sgd->velocities().empty());
      for (const Tensor& v : sgd->velocities()) out.state.push_back(v);
    }
    return out;
  };
  for (const char* backend : {"reference", "simd"}) {
    SCOPED_TRACE(backend);
    tensor::BackendScope scope(tensor::find_backend(backend));
    const Trained serial = run(false);
    const Trained pooled = run(true);
    ASSERT_EQ(serial.losses.size(), pooled.losses.size());
    EXPECT_EQ(std::memcmp(serial.losses.data(), pooled.losses.data(),
                          serial.losses.size() * sizeof(float)),
              0);
    ASSERT_EQ(serial.state.size(), pooled.state.size());
    for (std::size_t i = 0; i < serial.state.size(); ++i) {
      EXPECT_TRUE(same_bits(serial.state[i], pooled.state[i])) << "tensor " << i;
    }
  }
}

TEST(SystemTest, PooledBuildSavesTheSameBytesAsInlineBuild) {
  // Decoder 64 -> 1024 -> 784: its layers hold 65536 and 802816 weights,
  // 1 and 12.25 fill chunks, so with the pool switch on the second one's
  // xavier_uniform fill splits across the pool.
  SystemConfig cfg = small_system();
  cfg.orco.latent_dim = 64;
  cfg.orco.decoder_layers = 2;
  cfg.orco.decoder_hidden_dim = 1024;
  ASSERT_GT(cfg.orco.decoder_hidden_dim * cfg.orco.input_dim,
            tensor::kFillChunk);
  const auto build = [&](bool pooled) {
    tensor::set_thread_gemm_parallelism(pooled);
    OrcoDcsSystem sys(cfg);
    return std::pair{nn::save_params(sys.aggregator().encoder()),
                     nn::save_params(sys.edge().decoder())};
  };
  const auto pooled = build(true);
  const auto inline_built = build(false);
  tensor::set_thread_gemm_parallelism(true);
  EXPECT_TRUE(pooled.first == inline_built.first) << "encoder bytes differ";
  EXPECT_TRUE(pooled.second == inline_built.second) << "decoder bytes differ";
}

// Copies every parameter value of `src` into `dst`, a model of the same
// structure.
void copy_params(nn::Sequential& dst, nn::Sequential& src) {
  const auto to = dst.params();
  const auto from = src.params();
  ASSERT_EQ(to.size(), from.size());
  for (std::size_t i = 0; i < to.size(); ++i) *to[i].value = *from[i].value;
}

// Drives `rounds` §III-B rounds by hand through `agg` and `edge`, whose SGD
// steps run in one backward walk (Sgd::backward_step), and the same rounds
// as an explicit zero_grad(), backward(), step() loop on `encoder` and
// `decoder`, fresh models of the same structure that start from copies of
// the pair's weights. Reconstructions, losses, latent gradients, weights
// and velocities must agree bit for bit.
void expect_rounds_match_explicit_loop(
    DataAggregator& agg, EdgeServer& edge,
    std::unique_ptr<nn::Sequential> encoder,
    std::unique_ptr<nn::Sequential> decoder, const OrcoConfig& cfg,
    const Tensor& images, std::size_t rounds) {
  copy_params(*encoder, agg.encoder());
  copy_params(*decoder, edge.decoder());
  nn::Sgd enc_sgd(encoder->params(), cfg.learning_rate, cfg.momentum);
  nn::Sgd dec_sgd(decoder->params(), cfg.learning_rate, cfg.momentum);
  const std::size_t b = cfg.batch_size;
  for (std::size_t r = 0; r < rounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const Tensor batch = images.slice_rows(r * b, (r + 1) * b);
    const LatentBatchMsg latents = agg.encode_batch(batch, r, true);
    const ReconstructionMsg recon = edge.reconstruct(latents, true);
    const ResidualMsg residual = agg.evaluate_reconstruction(recon).second;
    const LatentGradMsg grad = edge.train_step(residual);
    agg.apply_latent_gradient(grad);

    // The explicit loop decodes the aggregator's noisy latents: the noise
    // is added after the encoder, so its backward does not see it.
    (void)encoder->forward(batch, true);
    const Tensor rec = decoder->forward(latents.latents, true);
    ASSERT_TRUE(same_bits(rec, recon.reconstructions));
    auto [loss, upstream] =
        residual_loss_and_gradient(batch - rec, cfg.loss, cfg.huber_delta);
    EXPECT_EQ(std::memcmp(&loss, &grad.loss, sizeof(float)), 0);
    dec_sgd.zero_grad();
    const Tensor latent_grad = decoder->backward(upstream);
    dec_sgd.step();
    EXPECT_TRUE(same_bits(latent_grad, grad.latent_grad));
    enc_sgd.zero_grad();
    (void)encoder->backward(latent_grad);
    enc_sgd.step();
  }
  const std::pair<nn::Sequential*, nn::Sequential*> models[] = {
      {&agg.encoder(), encoder.get()}, {&edge.decoder(), decoder.get()}};
  for (const auto& [walked, looped] : models) {
    const auto got = walked->params();
    const auto want = looped->params();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_bits(*got[i].value, *want[i].value)) << got[i].name;
    }
  }
  const std::pair<const nn::Sgd*, const nn::Sgd*> sgds[] = {
      {&agg.optimizer(), &enc_sgd}, {&edge.optimizer(), &dec_sgd}};
  for (const auto& [walked, looped] : sgds) {
    ASSERT_EQ(walked->velocities().size(), looped->velocities().size());
    for (std::size_t i = 0; i < walked->velocities().size(); ++i) {
      EXPECT_TRUE(same_bits(walked->velocities()[i], looped->velocities()[i]))
          << "velocity " << i;
    }
  }
}

// OrcoDCS's dense chain: every Dense steps its weight inside its dW GEMM
// and the encoder computes no dX, yet training is bit-identical to the
// explicit loop on either backend.
TEST(SystemTest, OneWalkRoundsMatchExplicitLoopBitwise) {
  SystemConfig cfg = small_system();
  cfg.orco.decoder_layers = 3;
  cfg.orco.decoder_hidden_dim = 96;
  constexpr std::size_t kRounds = 3;
  const auto train = small_mnist(kRounds * cfg.orco.batch_size);
  for (const char* name : {"reference", "simd"}) {
    SCOPED_TRACE(name);
    tensor::BackendScope scope(tensor::find_backend(name));
    OrcoDcsSystem sys(cfg);
    common::Pcg32 rng(99);
    expect_rounds_match_explicit_loop(
        sys.aggregator(), sys.edge(), build_encoder(cfg.orco, rng),
        build_decoder(cfg.orco, rng), cfg.orco, train.images(), kRounds);
  }
}

// DCSNet's decoder puts conv layers after its Dense: they take the walk's
// unfused zero/backward/step path, still bit-identical to the loop.
TEST(SystemTest, OneWalkDcsNetRoundsMatchExplicitLoopBitwise) {
  baseline::DcsNetConfig dcfg;
  dcfg.latent_dim = 64;
  dcfg.batch_size = 16;
  constexpr std::size_t kRounds = 3;
  const auto train = small_mnist(kRounds * dcfg.batch_size);
  for (const char* name : {"reference", "simd"}) {
    SCOPED_TRACE(name);
    tensor::BackendScope scope(tensor::find_backend(name));
    baseline::DcsNetSystem sys(data::kMnistGeometry, dcfg,
                               wsn::ChannelConfig{}, ComputeModel{});
    OrcoConfig cfg;
    cfg.loss = ReconLoss::kMse;
    cfg.learning_rate = dcfg.learning_rate;
    cfg.momentum = dcfg.momentum;
    cfg.batch_size = dcfg.batch_size;
    common::Pcg32 rng(99);
    expect_rounds_match_explicit_loop(
        sys.aggregator(), sys.edge(),
        baseline::build_dcsnet_encoder(data::kMnistGeometry, dcfg.latent_dim,
                                       rng),
        baseline::build_dcsnet_decoder(data::kMnistGeometry, dcfg.latent_dim,
                                       rng),
        cfg, train.images(), kRounds);
  }
}

// The aggregator's round stops the gradient at the encoder: its Dense runs
// the fused weight step (one gemm_tn call) and no dX GEMM (a plain gemm,
// counted by the kernel profile).
TEST(SystemTest, ApplyLatentGradientRunsNoInputGradientGemm) {
  OrcoDcsSystem sys(small_system());
  DataAggregator& agg = sys.aggregator();
  const auto train = small_mnist(small_system().orco.batch_size);
  const LatentBatchMsg latents = agg.encode_batch(train.images(), 0, true);
  const ReconstructionMsg recon = sys.edge().reconstruct(latents, true);
  const LatentGradMsg grad =
      sys.edge().train_step(agg.evaluate_reconstruction(recon).second);
  const obs::ObsConfig before = obs::config();
  obs::ObsConfig profiling = before;
  profiling.kernel_profiling = true;
  obs::kernel_reset();
  obs::configure(profiling);
  agg.apply_latent_gradient(grad);
  obs::configure(before);
  const auto stats = obs::kernel_snapshot();
  obs::kernel_reset();
  EXPECT_EQ(stats[static_cast<std::size_t>(obs::KernelOp::kGemm)].calls, 0u);
  EXPECT_EQ(stats[static_cast<std::size_t>(obs::KernelOp::kGemmTN)].calls, 1u);
}

TEST(SystemTest, ReconstructionBeatsUntrainedBaseline) {
  const auto train = small_mnist();
  const auto test = small_mnist(64, 2);

  OrcoDcsSystem trained(small_system());
  OrcoDcsSystem untrained(small_system());
  (void)trained.train_online(train, 4);

  const double trained_psnr =
      data::mean_psnr(test.images(), trained.reconstruct(test.images()));
  const double untrained_psnr =
      data::mean_psnr(test.images(), untrained.reconstruct(test.images()));
  EXPECT_GT(trained_psnr, untrained_psnr + 1.0);
}

TEST(SystemTest, RejectsMismatchedDataset) {
  OrcoDcsSystem sys(small_system());
  data::GtsrbConfig gcfg;
  gcfg.count = 8;
  const auto wrong = data::make_synthetic_gtsrb(gcfg);  // 3072 features
  EXPECT_THROW((void)sys.train_online(wrong, 1), std::invalid_argument);
}

TEST(SystemTest, EncoderDistributionUsesBroadcastLink) {
  OrcoDcsSystem sys(small_system());
  const double seconds = sys.distribute_encoder();
  EXPECT_GT(seconds, 0.0);
  const auto& bc = sys.ledger().totals(wsn::LinkKind::kBroadcast);
  EXPECT_GT(bc.payload_bytes, 0u);
  // Broadcast payload carries N columns of M floats + bias.
  const std::size_t share_bytes =
      (16 * 32 + 32) * sizeof(float);
  EXPECT_GE(bc.payload_bytes, share_bytes);  // >= one full transmission
}

TEST(SystemTest, CompressedRoundIsCheaperThanRawRound) {
  OrcoDcsSystem sys(small_system());
  // Raw: each device ships a full 784-float image through the tree.
  (void)sys.raw_aggregation_round(784 * sizeof(float));
  const auto raw_bytes =
      sys.ledger().totals(wsn::LinkKind::kIntraCluster).payload_bytes;
  (void)sys.compressed_aggregation_round();
  const auto after_bytes =
      sys.ledger().totals(wsn::LinkKind::kIntraCluster).payload_bytes;
  EXPECT_LT(after_bytes - raw_bytes, raw_bytes / 10);
}

TEST(SystemTest, MonitorTriggersAfterDrift) {
  SystemConfig cfg = small_system();
  cfg.orco.relaunch_factor = 1.5f;
  cfg.orco.monitor_window = 4;
  OrcoDcsSystem sys(cfg);
  const auto train = small_mnist();
  (void)sys.train_online(train, 4);

  // Healthy data does not trigger.
  const float healthy = sys.evaluate_loss(train);
  bool triggered = false;
  for (int i = 0; i < 6; ++i) triggered |= sys.monitor_observe(healthy);
  EXPECT_FALSE(triggered);

  // Severe drift raises reconstruction error enough to trigger.
  common::Pcg32 rng(3);
  const auto drifted = data::apply_drift(
      train, data::DriftConfig{0.3f, 0.4f, 0.4f}, rng);
  const float drifted_loss = sys.evaluate_loss(drifted);
  EXPECT_GT(drifted_loss, healthy);
  for (int i = 0; i < 8 && !triggered; ++i) {
    triggered = sys.monitor_observe(drifted_loss);
  }
  EXPECT_TRUE(triggered);

  // Relaunch: retrain on drifted data recovers the loss.
  const auto relaunch = sys.train_online(drifted, 4);
  EXPECT_LT(sys.evaluate_loss(drifted), drifted_loss);
  EXPECT_GT(relaunch.rounds.size(), 0u);
}

TEST(SystemTest, DeeperDecodersAreConfigurable) {
  SystemConfig cfg = small_system();
  cfg.orco.decoder_layers = 3;
  OrcoDcsSystem sys(cfg);
  const auto test = small_mnist(32, 5);
  const auto rec = sys.reconstruct(test.images());
  EXPECT_EQ(rec.shape(), test.images().shape());
}

TEST(SystemTest, FlexibleLatentDimensionChangesUplinkBytes) {
  SystemConfig small_cfg = small_system();
  small_cfg.orco.latent_dim = 16;
  SystemConfig big_cfg = small_system();
  big_cfg.orco.latent_dim = 128;
  OrcoDcsSystem small_sys(small_cfg), big_sys(big_cfg);
  const auto test = small_mnist(32, 6);
  (void)small_sys.aggregate_images(test.images());
  (void)big_sys.aggregate_images(test.images());
  const auto small_up =
      small_sys.ledger().totals(wsn::LinkKind::kUplink).payload_bytes;
  const auto big_up =
      big_sys.ledger().totals(wsn::LinkKind::kUplink).payload_bytes;
  // 8x latent dimension -> ~8x uplink bytes.
  EXPECT_NEAR(static_cast<double>(big_up) / static_cast<double>(small_up),
              8.0, 0.5);
}

// The decode plan follows the backend each call runs under: a plan first
// compiled under one backend is recompiled for a decode under another, so
// the decode runs on the caller's backend, not the plan's old one.
TEST(SystemTest, DecodePlanFollowsTheCallersBackend) {
  const SystemConfig cfg = small_system();
  common::Pcg32 rng(12);
  const Tensor latents = Tensor::uniform({3, cfg.orco.latent_dim}, rng);
  OrcoDcsSystem sys(cfg);
  {
    tensor::BackendScope scope(&tensor::reference_backend());
    (void)sys.edge().decode_inference(latents);
    EXPECT_EQ(&sys.edge().current_plan()->backend(),
              &tensor::reference_backend());
  }
  tensor::BackendScope scope(&tensor::simd_backend());
  const Tensor got = sys.edge().decode_inference(latents);
  EXPECT_EQ(&sys.edge().current_plan()->backend(), &tensor::simd_backend());
  OrcoDcsSystem fresh(cfg);
  EXPECT_TRUE(same_bits(got, fresh.edge().decode_inference(latents)));
}

// Plans decode from bf16 panels (Backend::pack_b rounds every weight). On
// the two decoder shapes the repository benchmark serves, the plan stays
// within 1e-3 — the tolerance of the benchmark's reference-decode gate —
// of the f32 forward: a GTSRB tenant's 512 -> 1792 -> 1792 -> 3072 decoder,
// and a fleet tenant's 16 -> 64 decoder after 25 fine-tune rounds.
TEST(SystemTest, Bf16PlanStaysWithin1e3OfF32ForwardOnBenchmarkDecoders) {
  const tensor::Backend& simd = tensor::simd_backend();
  tensor::BackendScope scope(&simd);
  const auto max_distance = [&](nn::Sequential& decoder,
                                const Tensor& latents) {
    nn::InferContext ctx;
    Tensor got;
    nn::InferPlan::compile(decoder, &simd)->run(latents, got, ctx);
    const Tensor want = decoder.forward(latents, /*training=*/false);
    float worst = 0.0f;
    for (std::size_t i = 0; i < got.numel(); ++i) {
      worst = std::max(worst, std::fabs(got[i] - want[i]));
    }
    return worst;
  };
  common::Pcg32 rng(17);
  {
    OrcoConfig gtsrb;
    gtsrb.input_dim = 3072;
    gtsrb.latent_dim = 512;
    gtsrb.decoder_layers = 3;
    const auto decoder = build_decoder(gtsrb, rng);
    const float distance =
        max_distance(*decoder, Tensor::uniform({16, 512}, rng));
    EXPECT_GT(distance, 0.0f);  // the panels really are rounded
    EXPECT_LE(distance, 1e-3f);
  }
  {
    SystemConfig fleet;
    fleet.orco.input_dim = 64;
    fleet.orco.latent_dim = 16;
    fleet.orco.decoder_layers = 1;
    fleet.orco.batch_size = 16;
    fleet.field.device_count = 4;
    fleet.field.radio_range_m = 60.0;
    OrcoDcsSystem sys(fleet);
    const data::Dataset finetune("finetune", {1, 8, 8}, 1,
                                 Tensor::uniform({16, 64}, rng),
                                 std::vector<std::size_t>(16, 0));
    (void)sys.train_online(finetune, /*epochs=*/25);
    const float distance =
        max_distance(sys.edge().decoder(), Tensor::uniform({1024, 16}, rng));
    EXPECT_GT(distance, 0.0f);
    EXPECT_LE(distance, 1e-3f);
  }
}

}  // namespace
}  // namespace orco::core
