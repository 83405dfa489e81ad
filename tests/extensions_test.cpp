// Tests for the extension modules: sensor-field telemetry, the
// formulation-level cluster pipeline and network lifetime.
#include <gtest/gtest.h>

#include "core/cluster_pipeline.h"
#include "data/sensor_field.h"
#include "wsn/lifetime.h"

namespace orco {
namespace {

using tensor::Tensor;

wsn::Field test_field(std::size_t devices = 16, std::uint64_t seed = 7) {
  wsn::FieldConfig cfg;
  cfg.device_count = devices;
  cfg.side_m = 100.0;
  cfg.radio_range_m = 50.0;
  cfg.seed = seed;
  return wsn::Field(cfg);
}

// ---- sensor field ------------------------------------------------------------

TEST(SensorFieldTest, ShapeRangeAndDeterminism) {
  const auto field = test_field();
  data::SensorFieldConfig cfg;
  cfg.steps = 64;
  const auto a = data::make_sensor_field(field, cfg);
  const auto b = data::make_sensor_field(field, cfg);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a.geometry().features(), 16u);
  EXPECT_GE(a.images().min(), 0.0f);
  EXPECT_LE(a.images().max(), 1.0f);
  EXPECT_TRUE(a.images().allclose(b.images(), 0.0f));
}

TEST(SensorFieldTest, NearbyDevicesCorrelateMoreThanDistantOnes) {
  // The defining property of the field: spatial correlation. Compare the
  // reading correlation of the closest device pair against the farthest.
  const auto field = test_field(20, 9);
  data::SensorFieldConfig cfg;
  cfg.steps = 256;
  cfg.noise_std = 0.01f;
  cfg.device_bias_std = 0.0f;
  const auto ds = data::make_sensor_field(field, cfg);

  // Map device index -> node id (skip aggregator), find extreme pairs.
  std::vector<wsn::NodeId> nodes;
  for (wsn::NodeId n = 0; n < field.node_count(); ++n) {
    if (n != field.aggregator()) nodes.push_back(n);
  }
  std::size_t ci = 0, cj = 1, fi = 0, fj = 1;
  double dmin = 1e18, dmax = -1.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const double d = field.link_distance(nodes[i], nodes[j]);
      if (d < dmin) { dmin = d; ci = i; cj = j; }
      if (d > dmax) { dmax = d; fi = i; fj = j; }
    }
  }

  auto correlation = [&](std::size_t a, std::size_t b) {
    double ma = 0.0, mb = 0.0;
    const std::size_t t_count = ds.size();
    for (std::size_t t = 0; t < t_count; ++t) {
      ma += ds.images().at(t, a);
      mb += ds.images().at(t, b);
    }
    ma /= t_count;
    mb /= t_count;
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t t = 0; t < t_count; ++t) {
      const double da = ds.images().at(t, a) - ma;
      const double db = ds.images().at(t, b) - mb;
      cov += da * db;
      va += da * da;
      vb += db * db;
    }
    return cov / std::max(1e-12, std::sqrt(va * vb));
  };
  EXPECT_GT(correlation(ci, cj), correlation(fi, fj));
}

// ---- formulation-level cluster pipeline ---------------------------------------

core::SystemConfig telemetry_config(std::size_t devices) {
  core::SystemConfig cfg;
  cfg.orco.input_dim = devices;  // scalar reading per device (sec. II)
  cfg.orco.latent_dim = 6;
  cfg.orco.batch_size = 32;
  cfg.orco.noise_variance = 0.001f;
  cfg.field.device_count = devices;
  cfg.field.radio_range_m = 50.0;
  return cfg;
}

TEST(ClusterPipelineTest, RequiresMatchingDeviceCount) {
  auto cfg = telemetry_config(16);
  cfg.orco.input_dim = 10;  // mismatch
  core::OrcoDcsSystem sys(cfg);
  EXPECT_THROW(core::ClusterPipeline{sys}, std::invalid_argument);
}

TEST(ClusterPipelineTest, SenseRequiresDeploy) {
  core::OrcoDcsSystem sys(telemetry_config(16));
  core::ClusterPipeline pipeline(sys);
  EXPECT_FALSE(pipeline.deployed());
  EXPECT_THROW((void)pipeline.sense_round(Tensor({16})),
               std::invalid_argument);
}

TEST(ClusterPipelineTest, EndToEndTelemetryRound) {
  core::OrcoDcsSystem sys(telemetry_config(16));
  const auto readings_ds =
      data::make_sensor_field(sys.field(), data::SensorFieldConfig{});
  (void)sys.train_online(readings_ds, 8);

  core::ClusterPipeline pipeline(sys);
  const double bc_seconds = pipeline.deploy();
  EXPECT_GT(bc_seconds, 0.0);
  EXPECT_TRUE(pipeline.deployed());

  const Tensor readings = readings_ds.image(0);
  const auto result = pipeline.sense_round(readings);
  EXPECT_EQ(result.latent.numel(), 6u);
  EXPECT_EQ(result.reconstruction.numel(), 16u);
  EXPECT_GT(result.seconds, 0.0);

  // Trained on this distribution: mean error over many rounds beats an
  // identically-configured untrained system.
  core::OrcoDcsSystem untrained_sys(telemetry_config(16));
  core::ClusterPipeline untrained(untrained_sys);
  (void)untrained.deploy();
  double trained_err = 0.0, untrained_err = 0.0;
  for (std::size_t t = 0; t < 16; ++t) {
    trained_err += pipeline.sense_round(readings_ds.image(t)).error;
    untrained_err += untrained.sense_round(readings_ds.image(t)).error;
  }
  EXPECT_LT(trained_err, untrained_err);
}

TEST(ClusterPipelineTest, DistributedEncodeStaysConsistentAfterTraining) {
  core::OrcoDcsSystem sys(telemetry_config(24));
  const auto readings_ds =
      data::make_sensor_field(sys.field(), data::SensorFieldConfig{});
  (void)sys.train_online(readings_ds, 4);
  core::ClusterPipeline pipeline(sys);
  (void)pipeline.deploy();
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_LT(pipeline.encode_divergence(readings_ds.image(t)), 1e-4f);
  }
}

TEST(ClusterPipelineTest, RedeployPicksUpRetrainedEncoder) {
  core::OrcoDcsSystem sys(telemetry_config(16));
  const auto readings_ds =
      data::make_sensor_field(sys.field(), data::SensorFieldConfig{});
  (void)sys.train_online(readings_ds, 2);
  core::ClusterPipeline pipeline(sys);
  (void)pipeline.deploy();
  const Tensor readings = readings_ds.image(0);
  const auto before = pipeline.sense_round(readings);

  (void)sys.train_online(readings_ds, 6);  // fine-tuning relaunch
  // Stale columns: divergence vs the retrained centralised encoder grows...
  EXPECT_GT(pipeline.encode_divergence(readings), 1e-4f);
  // ...until redeployment distributes fresh columns.
  (void)pipeline.deploy();
  EXPECT_LT(pipeline.encode_divergence(readings), 1e-4f);
  const auto after = pipeline.sense_round(readings);
  EXPECT_LT(after.error, before.error);
}

// ---- per-node energy + lifetime -----------------------------------------------

TEST(LifetimeTest, NodeEnergiesSumToRoundTotal) {
  const auto field = test_field();
  const wsn::AggregationTree tree(field, wsn::RadioModel{});
  wsn::TransmissionLedger ledger;
  const auto stats = tree.simulate_raw_round(64, ledger);
  ASSERT_EQ(stats.node_energy_j.size(), field.node_count());
  double sum = 0.0;
  for (const auto e : stats.node_energy_j) sum += e;
  EXPECT_NEAR(sum, stats.energy_j, stats.energy_j * 1e-9);
}

TEST(LifetimeTest, ValidatesInputs) {
  const auto field = test_field();
  EXPECT_THROW((void)wsn::estimate_lifetime(field, {1.0, 2.0}, 100.0),
               std::invalid_argument);
  std::vector<double> profile(field.node_count(), 1e-6);
  EXPECT_THROW((void)wsn::estimate_lifetime(field, profile, 0.0),
               std::invalid_argument);
}

TEST(LifetimeTest, HybridCsOutlivesRawAggregation) {
  // Deep chain: raw aggregation drains near-root relays; hybrid caps them.
  std::vector<wsn::Position> positions;
  for (int i = 0; i <= 24; ++i) {
    positions.push_back(wsn::Position{12.0 * i, 0.0});
  }
  const wsn::Field field(std::move(positions), 0, 18.0);
  const wsn::AggregationTree tree(field, wsn::RadioModel{});
  wsn::TransmissionLedger ledger;

  const auto raw = tree.simulate_raw_round(4, ledger);
  const auto cs = tree.simulate_hybrid_cs_round(4, 4, ledger);
  const double battery = 2.0;  // joules

  const auto raw_life = wsn::estimate_lifetime(field, raw.node_energy_j, battery);
  const auto cs_life = wsn::estimate_lifetime(field, cs.node_energy_j, battery);
  EXPECT_GT(cs_life.rounds_until_first_death,
            raw_life.rounds_until_first_death * 2.0);
  // The raw bottleneck is the relay next to the root (node 1 on the chain).
  EXPECT_EQ(raw_life.first_dead_node, 1u);
}

}  // namespace
}  // namespace orco
