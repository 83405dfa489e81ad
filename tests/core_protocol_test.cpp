// Orchestration-protocol tests: message round-trips, wire sizes, endpoint
// lifecycles, loss agreement across the boundary, and training behaviour.
#include <gtest/gtest.h>

#include "core/orcodcs.h"
#include "data/synthetic_mnist.h"
#include "nn/dense.h"

namespace orco::core {
namespace {

using tensor::Tensor;

OrcoConfig small_config() {
  OrcoConfig cfg;
  cfg.input_dim = 64;   // 8x8 toy "sensing data"
  cfg.latent_dim = 8;
  cfg.decoder_layers = 1;
  cfg.noise_variance = 0.01f;
  cfg.batch_size = 16;
  cfg.learning_rate = 2.0f;
  return cfg;
}

DataAggregator make_aggregator(const OrcoConfig& cfg, std::uint64_t seed = 1) {
  common::Pcg32 rng(seed);
  common::Pcg32 noise_rng(seed + 1);
  return DataAggregator(build_encoder(cfg, rng), cfg, noise_rng);
}

EdgeServer make_edge(const OrcoConfig& cfg, std::uint64_t seed = 2) {
  common::Pcg32 rng(seed);
  return EdgeServer(build_decoder(cfg, rng), cfg);
}

TEST(MessagesTest, LatentBatchRoundTrip) {
  common::Pcg32 rng(3);
  LatentBatchMsg msg{7, Tensor::randn({4, 8}, rng)};
  const auto bytes = msg.serialize();
  const auto back = LatentBatchMsg::deserialize(bytes);
  EXPECT_EQ(back.round, 7u);
  EXPECT_TRUE(back.latents.allclose(msg.latents, 0.0f));
}

TEST(MessagesTest, WireSizeIsPayloadPlusSmallHeader) {
  common::Pcg32 rng(4);
  LatentBatchMsg msg{0, Tensor::randn({16, 128}, rng)};
  const auto bytes = msg.serialize();
  const std::size_t payload = 16 * 128 * sizeof(float);
  EXPECT_GE(bytes.size(), payload);
  EXPECT_LT(bytes.size(), payload + 64);  // round + rank + dims + count
}

TEST(MessagesTest, AllMessageTypesRoundTrip) {
  common::Pcg32 rng(5);
  ReconstructionMsg rec{1, Tensor::randn({2, 6}, rng)};
  EXPECT_TRUE(ReconstructionMsg::deserialize(rec.serialize())
                  .reconstructions.allclose(rec.reconstructions, 0.0f));
  ResidualMsg res{2, Tensor::randn({2, 6}, rng)};
  EXPECT_TRUE(ResidualMsg::deserialize(res.serialize())
                  .residuals.allclose(res.residuals, 0.0f));
  LatentGradMsg grad{3, 0.25f, Tensor::randn({2, 4}, rng)};
  const auto back = LatentGradMsg::deserialize(grad.serialize());
  EXPECT_FLOAT_EQ(back.loss, 0.25f);
  EXPECT_TRUE(back.latent_grad.allclose(grad.latent_grad, 0.0f));
  EncoderShareMsg share{5, Tensor::randn({4}, rng), Tensor::randn({4}, rng)};
  const auto share_back = EncoderShareMsg::deserialize(share.serialize());
  EXPECT_EQ(share_back.device, 5u);
  EXPECT_TRUE(share_back.column.allclose(share.column, 0.0f));
}

TEST(MessagesTest, TruncatedBufferThrows) {
  common::Pcg32 rng(6);
  LatentBatchMsg msg{0, Tensor::randn({2, 3}, rng)};
  auto bytes = msg.serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)LatentBatchMsg::deserialize(bytes),
               std::invalid_argument);

  // Dims {2^57 + 1, 128} with 128 floats: the element count wraps to 128
  // in 64 bits, so only an overflow-checked shape refuses the batch.
  common::ByteWriter w;
  w.write_u64(0);  // round
  w.write_u64(2);  // rank
  w.write_u64((std::uint64_t{1} << 57) + 1);
  w.write_u64(128);
  const std::vector<float> values(128, 0.5f);
  w.write_f32_span(values);
  EXPECT_THROW((void)LatentBatchMsg::deserialize(w.bytes()),
               std::invalid_argument);
}

TEST(AggregatorTest, NoiseAppliedOnlyInTraining) {
  auto cfg = small_config();
  cfg.noise_variance = 0.25f;
  common::Pcg32 rng(7);
  const Tensor batch = Tensor::uniform({8, cfg.input_dim}, rng);

  auto agg = make_aggregator(cfg);
  const Tensor clean = agg.encode_inference(batch);
  const auto noisy = agg.encode_batch(batch, 0, /*training=*/true);
  EXPECT_FALSE(noisy.latents.allclose(clean, 1e-5f));
  // Inference path must be deterministic.
  auto agg2 = make_aggregator(cfg);
  EXPECT_TRUE(agg2.encode_inference(batch).allclose(clean, 0.0f));
}

TEST(AggregatorTest, RoundLifecycleEnforced) {
  auto cfg = small_config();
  auto agg = make_aggregator(cfg);
  common::Pcg32 rng(8);
  const Tensor batch = Tensor::uniform({4, cfg.input_dim}, rng);
  (void)agg.encode_batch(batch, 0, true);
  // Double-open is rejected.
  EXPECT_THROW((void)agg.encode_batch(batch, 1, true), std::invalid_argument);
  // Mismatched round in reconstruction is rejected.
  ReconstructionMsg wrong{9, Tensor({4, cfg.input_dim})};
  EXPECT_THROW((void)agg.evaluate_reconstruction(wrong),
               std::invalid_argument);
}

TEST(AggregatorTest, EncoderShareMatchesWeightColumn) {
  auto cfg = small_config();
  auto agg = make_aggregator(cfg);
  const auto share = agg.encoder_share(5);
  const auto& dense = dynamic_cast<const nn::Dense&>(agg.encoder().layer(0));
  for (std::size_t m = 0; m < cfg.latent_dim; ++m) {
    EXPECT_FLOAT_EQ(share.column[m], dense.weight().at(m, 5));
  }
  EXPECT_TRUE(share.bias.allclose(dense.bias(), 0.0f));
  EXPECT_THROW((void)agg.encoder_share(cfg.input_dim), std::invalid_argument);
}

TEST(EdgeServerTest, LossAgreesWithAggregatorComputation) {
  auto cfg = small_config();
  cfg.noise_variance = 0.0f;
  auto agg = make_aggregator(cfg);
  auto edge = make_edge(cfg);
  common::Pcg32 rng(9);
  const Tensor batch = Tensor::uniform({6, cfg.input_dim}, rng);

  const auto latent = agg.encode_batch(batch, 0, true);
  const auto rec = edge.reconstruct(latent, true);
  auto [agg_loss, residual] = agg.evaluate_reconstruction(rec);
  const auto grad = edge.train_step(residual);
  // Both ends compute the same Huber loss from the same residual.
  EXPECT_NEAR(agg_loss, grad.loss, 1e-5f);
  agg.apply_latent_gradient(grad);
}

TEST(EdgeServerTest, RoundLifecycleEnforced) {
  auto cfg = small_config();
  auto edge = make_edge(cfg);
  common::Pcg32 rng(10);
  LatentBatchMsg latent{0, Tensor::uniform({4, cfg.latent_dim}, rng)};
  (void)edge.reconstruct(latent, true);
  ResidualMsg wrong_round{3, Tensor({4, cfg.input_dim})};
  EXPECT_THROW((void)edge.train_step(wrong_round), std::invalid_argument);
  ResidualMsg wrong_shape{0, Tensor({4, cfg.input_dim + 1})};
  EXPECT_THROW((void)edge.train_step(wrong_shape), std::invalid_argument);
}

TEST(EdgeServerTest, MseModeProducesMseGradients) {
  auto cfg = small_config();
  cfg.loss = ReconLoss::kMse;
  auto edge = make_edge(cfg);
  common::Pcg32 rng(11);
  LatentBatchMsg latent{0, Tensor::uniform({2, cfg.latent_dim}, rng)};
  (void)edge.reconstruct(latent, true);
  Tensor residuals({2, cfg.input_dim}, 0.5f);
  const auto grad = edge.train_step(ResidualMsg{0, residuals});
  // MSE of constant residual 0.5 is 0.25.
  EXPECT_NEAR(grad.loss, 0.25f, 1e-6f);
}

class OrchestratorFixture : public ::testing::Test {
 protected:
  OrchestratorFixture()
      : cfg_(small_config()),
        agg_(make_aggregator(cfg_)),
        edge_(make_edge(cfg_)),
        channel_(wsn::ChannelConfig{}),
        orch_(agg_, edge_, channel_, ledger_, clock_, ComputeModel{}) {}

  Tensor random_batch(std::size_t n, std::uint64_t seed = 12) {
    common::Pcg32 rng(seed);
    return Tensor::uniform({n, cfg_.input_dim}, rng);
  }

  OrcoConfig cfg_;
  DataAggregator agg_;
  EdgeServer edge_;
  wsn::Channel channel_;
  wsn::TransmissionLedger ledger_;
  wsn::SimClock clock_;
  Orchestrator orch_;
};

TEST_F(OrchestratorFixture, RoundRecordsAreConsistent) {
  const auto rec = orch_.train_round(random_batch(16));
  EXPECT_EQ(rec.round, 0u);
  EXPECT_GT(rec.loss, 0.0f);
  EXPECT_GT(rec.round_comms_s, 0.0);
  EXPECT_GT(rec.round_compute_s, 0.0);
  EXPECT_NEAR(rec.sim_time_s, rec.round_comms_s + rec.round_compute_s, 1e-12);
  // Uplink carries latents (B*M) + residuals (B*N); downlink carries
  // reconstructions (B*N) + latent gradients (B*M).
  const std::size_t bm = 16 * cfg_.latent_dim * sizeof(float);
  const std::size_t bn = 16 * cfg_.input_dim * sizeof(float);
  EXPECT_GE(rec.uplink_payload_bytes, bm + bn);
  EXPECT_LT(rec.uplink_payload_bytes, bm + bn + 256);
  EXPECT_GE(rec.downlink_payload_bytes, bm + bn);
  EXPECT_LT(rec.downlink_payload_bytes, bm + bn + 256);
}

TEST_F(OrchestratorFixture, LedgerMatchesRecordTotals) {
  const auto rec1 = orch_.train_round(random_batch(8));
  const auto rec2 = orch_.train_round(random_batch(8, 13));
  EXPECT_EQ(ledger_.totals(wsn::LinkKind::kUplink).payload_bytes,
            rec1.uplink_payload_bytes + rec2.uplink_payload_bytes);
  EXPECT_EQ(ledger_.totals(wsn::LinkKind::kDownlink).payload_bytes,
            rec1.downlink_payload_bytes + rec2.downlink_payload_bytes);
  EXPECT_EQ(ledger_.totals(wsn::LinkKind::kUplink).messages, 4u);
}

TEST_F(OrchestratorFixture, ClockAdvancesAcrossRounds) {
  const auto r1 = orch_.train_round(random_batch(8));
  const auto r2 = orch_.train_round(random_batch(8, 14));
  EXPECT_GT(r2.sim_time_s, r1.sim_time_s);
  EXPECT_DOUBLE_EQ(orch_.clock().now(), r2.sim_time_s);
}

TEST_F(OrchestratorFixture, TrainingReducesLoss) {
  // Autoencoding a rank-1 batch (every sample is a scaled copy of one
  // pattern): an 8-dim latent represents it exactly, so the loss must fall
  // clearly within a few dozen rounds.
  common::Pcg32 rng(16);
  const Tensor pattern = Tensor::uniform({cfg_.input_dim}, rng);
  Tensor batch({32, cfg_.input_dim});
  for (std::size_t i = 0; i < 32; ++i) {
    const float c = 0.2f + 0.8f * static_cast<float>(i) / 32.0f;
    for (std::size_t j = 0; j < cfg_.input_dim; ++j) {
      batch.at(i, j) = c * pattern[j];
    }
  }
  const float first = orch_.train_round(batch).loss;
  float last = first;
  for (int i = 0; i < 120; ++i) last = orch_.train_round(batch).loss;
  EXPECT_LT(last, first * 0.7f);
}

TEST_F(OrchestratorFixture, AggregateBatchUsesOnlyUplink) {
  ledger_.reset();
  const double seconds = orch_.aggregate_batch(random_batch(10));
  EXPECT_GT(seconds, 0.0);
  EXPECT_GT(ledger_.totals(wsn::LinkKind::kUplink).payload_bytes, 0u);
  EXPECT_EQ(ledger_.totals(wsn::LinkKind::kDownlink).payload_bytes, 0u);
  // Steady-state payload per batch ~= B * M floats.
  EXPECT_LT(ledger_.totals(wsn::LinkKind::kUplink).payload_bytes,
            10 * cfg_.latent_dim * sizeof(float) + 128);
}

TEST_F(OrchestratorFixture, ReconstructIsDeterministicNoTraffic) {
  const Tensor batch = random_batch(4);
  const auto before = ledger_.grand_total().messages;
  const Tensor r1 = orch_.reconstruct(batch);
  const Tensor r2 = orch_.reconstruct(batch);
  EXPECT_TRUE(r1.allclose(r2, 0.0f));
  EXPECT_EQ(ledger_.grand_total().messages, before);
  EXPECT_EQ(r1.shape(), batch.shape());
}

TEST_F(OrchestratorFixture, EvaluateLossMatchesManualHuber) {
  data::ImageGeometry geom{1, 8, 8};
  common::Pcg32 rng(15);
  Tensor images = Tensor::uniform({12, 64}, rng);
  data::Dataset ds("toy", geom, 2, images,
                   std::vector<std::size_t>(12, 0));
  const float loss = orch_.evaluate_loss(ds, 6);
  nn::HuberLoss huber(1.0f);
  const Tensor rec = orch_.reconstruct(images);
  EXPECT_NEAR(loss, huber.value(rec, images), 1e-5f);
}

}  // namespace
}  // namespace orco::core
