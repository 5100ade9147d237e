// Unit tests of the rwc::demand estimation stages (ISSUE 9): routing-matrix
// construction, counter synthesis, the least-squares estimator's exact /
// damped / degraded paths, loss composition edge cases (100%-loss link,
// zero-packet interval), the EWMA warm-up, Rng-stream determinism, and the
// CapEst-style capacity cross-check. docs/DEMAND.md states the contracts
// these pin.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "demand/capacity.hpp"
#include "demand/counters.hpp"
#include "demand/estimator.hpp"
#include "demand/pipeline.hpp"
#include "demand/routing_matrix.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "te/demand.hpp"

namespace rwc {
namespace {

using demand::CounterSample;
using demand::CounterSet;
using demand::DemandConfig;
using demand::RoutingMatrix;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Diagonal instance: OD j rides link j alone (fully determined).
RoutingMatrix diagonal_matrix(std::size_t n) {
  RoutingMatrix matrix;
  matrix.links = n;
  matrix.ods = n;
  matrix.rows.resize(n);
  matrix.observable.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    matrix.rows[i].push_back({static_cast<std::uint32_t>(i), 1.0});
  return matrix;
}

DemandConfig estimated_config() {
  DemandConfig config;
  config.source = demand::DemandSource::kEstimated;
  return config;
}

TEST(DemandEstimator, SnapToGridIsIdempotentOnGridValues) {
  for (const double value : {0.0, 12.5, 3.25, 40.0, 173.999999}) {
    const double snapped = demand::snap_to_grid(value);
    EXPECT_TRUE(bits_equal(snapped, demand::snap_to_grid(snapped)));
    EXPECT_NEAR(snapped, value, demand::kVolumeGridGbps);
  }
}

TEST(DemandEstimator, RoutingMatrixBootstrapsAllUnobservable) {
  te::TrafficMatrix ods;
  ods.push_back({graph::NodeId{0}, graph::NodeId{1}, util::Gbps{10.0}, 0});
  const RoutingMatrix matrix =
      demand::build_routing_matrix(4, ods, te::FlowAssignment{});
  EXPECT_EQ(matrix.links, 4u);
  EXPECT_EQ(matrix.ods, 1u);
  EXPECT_EQ(matrix.observable_ods(), 0u);
  for (const auto& row : matrix.rows) EXPECT_TRUE(row.empty());
}

TEST(DemandEstimator, RoutingMatrixFractionsFollowPathSplits) {
  te::TrafficMatrix ods;
  ods.push_back({graph::NodeId{0}, graph::NodeId{1}, util::Gbps{10.0}, 0});

  te::FlowAssignment previous;
  te::FlowAssignment::DemandRouting routing;
  routing.demand = ods[0];
  graph::Path direct;
  direct.edges = {graph::EdgeId{0}};
  graph::Path detour;
  detour.edges = {graph::EdgeId{1}, graph::EdgeId{2}};
  routing.paths.emplace_back(direct, util::Gbps{7.5});
  routing.paths.emplace_back(detour, util::Gbps{2.5});
  routing.routed = util::Gbps{10.0};
  previous.routings.push_back(routing);

  const RoutingMatrix matrix = demand::build_routing_matrix(3, ods, previous);
  ASSERT_EQ(matrix.observable_ods(), 1u);
  ASSERT_EQ(matrix.rows[0].size(), 1u);
  EXPECT_DOUBLE_EQ(matrix.rows[0][0].fraction, 0.75);
  ASSERT_EQ(matrix.rows[1].size(), 1u);
  EXPECT_DOUBLE_EQ(matrix.rows[1][0].fraction, 0.25);
  ASSERT_EQ(matrix.rows[2].size(), 1u);
  EXPECT_DOUBLE_EQ(matrix.rows[2][0].fraction, 0.25);
}

TEST(DemandEstimator, ZeroNoiseFullyDeterminedRecoversExactly) {
  const RoutingMatrix matrix = diagonal_matrix(3);
  const std::vector<double> truth = {12.5, 3.25, 40.0};  // on-grid
  const DemandConfig config = estimated_config();
  const CounterSet counters =
      demand::synthesize_counters(matrix, truth, {}, config, 1);

  const std::vector<double> intent = {1.0, 1.0, 1.0};  // deliberately wrong
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_TRUE(result.stats.estimated);
  EXPECT_TRUE(result.stats.exact)
      << "zero-noise fully-determined instance must certify exact recovery";
  ASSERT_EQ(result.volumes.size(), truth.size());
  for (std::size_t j = 0; j < truth.size(); ++j)
    EXPECT_TRUE(bits_equal(result.volumes[j], truth[j]))
        << "od " << j << ": " << result.volumes[j] << " vs " << truth[j];
  EXPECT_EQ(result.stats.residual, 0.0);
}

TEST(DemandEstimator, ZeroPacketIntervalIsACleanEmptyLink) {
  // An idle OD exports all-zero counters: 0/0 loss is 0, the link stays
  // usable, and the estimate is exactly zero — not NaN, not excluded.
  const RoutingMatrix matrix = diagonal_matrix(2);
  const std::vector<double> truth = {0.0, 25.0};
  const DemandConfig config = estimated_config();
  const CounterSet counters =
      demand::synthesize_counters(matrix, truth, {}, config, 1);
  EXPECT_EQ(counters.samples[0].tx_bytes, 0.0);
  EXPECT_EQ(counters.samples[0].tx_packets, 0.0);

  const std::vector<double> intent = {5.0, 5.0};
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_TRUE(result.stats.exact);
  EXPECT_TRUE(bits_equal(result.volumes[0], 0.0));
  EXPECT_TRUE(bits_equal(result.volumes[1], 25.0));
  EXPECT_EQ(result.stats.lossy_unobservable, 0u);
}

TEST(DemandEstimator, RankDeficientInstanceFallsBackDamped) {
  // Two ODs share one link: R = [1 1], A = R^T R is singular, so the
  // undamped Cholesky must refuse and the ridge retry anchors on the
  // intent prior. The estimate stays finite and non-negative.
  RoutingMatrix matrix;
  matrix.links = 1;
  matrix.ods = 2;
  matrix.rows.resize(1);
  matrix.rows[0] = {{0, 1.0}, {1, 1.0}};
  matrix.observable = {1, 1};

  const std::vector<double> truth = {10.0, 20.0};
  const DemandConfig config = estimated_config();
  const CounterSet counters =
      demand::synthesize_counters(matrix, truth, {}, config, 1);

  const std::vector<double> intent = {15.0, 15.0};
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_TRUE(result.stats.estimated);
  EXPECT_TRUE(result.stats.damped);
  for (const double volume : result.volumes) {
    EXPECT_TRUE(std::isfinite(volume));
    EXPECT_GE(volume, 0.0);
  }
  // The damped solution still explains the observed link load.
  EXPECT_NEAR(result.volumes[0] + result.volumes[1], 30.0, 1e-6);
}

TEST(DemandEstimator, HundredPercentLossLinkIsUnobservable) {
  const RoutingMatrix matrix = diagonal_matrix(2);
  const DemandConfig config = estimated_config();
  CounterSet counters;
  counters.samples.resize(2);
  // Link 0: everything offered was lost — no delivered signal to invert.
  counters.samples[0].tx_bytes = 0.0;
  counters.samples[0].tx_packets = 0.0;
  counters.samples[0].lost_packets = 1e6;
  // Link 1: clean 25 Gbps.
  counters.samples[1].tx_bytes = demand::bytes_of(25.0, config.interval_seconds);
  counters.samples[1].tx_packets =
      counters.samples[1].tx_bytes / demand::kPacketBytes;

  const std::vector<double> intent = {40.0, 5.0};
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_EQ(result.stats.lossy_unobservable, 1u);
  EXPECT_FALSE(result.stats.exact);  // a lossy round never certifies
  EXPECT_TRUE(result.stats.damped);  // OD 0's column is empty -> singular
  // OD 0's only link is unusable: the ridge anchors it at its intent, and
  // pulls the observed OD slightly toward its prior (relative damping 1e-3).
  EXPECT_NEAR(result.volumes[0], 40.0, 1e-9);
  EXPECT_NEAR(result.volumes[1], 25.0, 0.1);
}

TEST(DemandEstimator, LossCompositionDividesDeliveredBack) {
  const RoutingMatrix matrix = diagonal_matrix(1);
  const DemandConfig config = estimated_config();
  // 10 Gbps offered, 20% loss: delivered bytes shrink, lost packets carry
  // the loss rate, and the estimator multiplies the delivered rate back up.
  const double offered = 10.0;
  const double loss = 0.2;
  CounterSet counters;
  counters.samples.resize(1);
  CounterSample& sample = counters.samples[0];
  sample.tx_bytes = demand::bytes_of(offered * (1.0 - loss),
                                     config.interval_seconds);
  sample.tx_packets = sample.tx_bytes / demand::kPacketBytes;
  sample.lost_packets = sample.tx_packets * loss / (1.0 - loss);

  const std::vector<double> intent = {1.0};
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_TRUE(result.stats.estimated);
  EXPECT_FALSE(result.stats.exact);
  EXPECT_NEAR(result.volumes[0], offered, 1e-6);
}

TEST(DemandEstimator, MissingAndCorruptSamplesAreSanitized) {
  const RoutingMatrix matrix = diagonal_matrix(3);
  const DemandConfig config = estimated_config();
  CounterSet counters;
  counters.samples.resize(3);
  counters.samples[0].missing = true;
  counters.samples[1].tx_bytes = std::numeric_limits<double>::quiet_NaN();
  counters.samples[2].tx_bytes = -1e18;

  const std::vector<double> intent = {4.0, 5.0, 6.0};
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_EQ(result.stats.dropped, 1u);
  EXPECT_EQ(result.stats.sanitized, 2u);
  // No usable row survives: the offered intent is the estimate.
  EXPECT_EQ(result.volumes, intent);
  for (const double volume : result.volumes) {
    EXPECT_TRUE(std::isfinite(volume));
    EXPECT_GE(volume, 0.0);
  }
}

TEST(DemandEstimator, SolveBudgetFaultFallsBackToPrior) {
  const RoutingMatrix matrix = diagonal_matrix(3);
  const std::vector<double> truth = {12.5, 3.25, 40.0};
  const DemandConfig config = estimated_config();
  const CounterSet counters =
      demand::synthesize_counters(matrix, truth, {}, config, 1);

  const std::vector<double> intent = {7.0, 8.0, 9.0};
  fault::ScopedPlan armed(fault::FaultPlan::parse("demand.solve@0:budget=1"));
  const demand::EstimateResult result =
      demand::estimate_od_volumes(matrix, counters, intent, {}, config);
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_FALSE(result.stats.estimated);
  EXPECT_EQ(result.volumes, intent);
}

TEST(DemandEstimator, SynthesisIsPureInConfigAndRound) {
  const RoutingMatrix matrix = diagonal_matrix(4);
  const std::vector<double> truth = {10.0, 20.0, 30.0, 40.0};
  DemandConfig config = estimated_config();
  config.noise = 0.05;
  config.seed = 99;

  const CounterSet first =
      demand::synthesize_counters(matrix, truth, {}, config, 7);
  const CounterSet again =
      demand::synthesize_counters(matrix, truth, {}, config, 7);
  EXPECT_EQ(first, again) << "same (config, round) must be bit-identical";

  const CounterSet other_round =
      demand::synthesize_counters(matrix, truth, {}, config, 8);
  EXPECT_NE(first.samples, other_round.samples)
      << "the noise stream must advance with the round index";
}

TEST(DemandEstimator, DisabledKnobsConsumeNoRngDraws) {
  // noise == loss == staleness == 0 draws nothing: counters are a pure
  // arithmetic function of the routing, independent of seed and round.
  const RoutingMatrix matrix = diagonal_matrix(2);
  const std::vector<double> truth = {12.5, 3.25};
  DemandConfig config = estimated_config();
  config.seed = 1;
  const CounterSet a = demand::synthesize_counters(matrix, truth, {}, config, 0);
  config.seed = 12345;
  const CounterSet b =
      demand::synthesize_counters(matrix, truth, {}, config, 41);
  EXPECT_EQ(a.samples, b.samples)
      << "zero-knob synthesis must not depend on the seed or round";
}

TEST(DemandEstimator, PipelineBootstrapsFromIntentAndWarmsEwma) {
  te::TrafficMatrix intent;
  intent.push_back({graph::NodeId{0}, graph::NodeId{1}, util::Gbps{12.5}, 0});
  demand::DemandPipeline pipeline(2, estimated_config());

  // Round 0: no installed plan — every OD is unobservable and the estimate
  // IS the intent (exact oracle equivalence of the bootstrap round).
  const auto round0 = pipeline.round(intent, te::FlowAssignment{});
  ASSERT_EQ(round0.demands.size(), 1u);
  EXPECT_TRUE(bits_equal(round0.demands[0].volume.value, 12.5));
  EXPECT_EQ(round0.stats.unobservable_ods, 1u);
  EXPECT_EQ(pipeline.rounds(), 1u);

  // The EWMA warmed on round 0's estimate: its state round-trips through
  // save/restore bit-identically.
  const auto state = pipeline.save_state();
  EXPECT_TRUE(state.ewma_warm);
  ASSERT_EQ(state.ewma.size(), 1u);
  EXPECT_TRUE(bits_equal(state.ewma[0], 12.5));

  demand::DemandPipeline restored(2, estimated_config());
  restored.restore_state(state);
  EXPECT_EQ(restored.save_state(), state);
}

// demand.round.seconds times every DemandPipeline::round exactly once.
TEST(DemandEstimator, EveryRoundObservesTheRoundHistogram) {
  te::TrafficMatrix intent;
  intent.push_back({graph::NodeId{0}, graph::NodeId{1}, util::Gbps{12.5}, 0});
  demand::DemandPipeline pipeline(2, estimated_config());
  const obs::Histogram& seconds =
      obs::Registry::global().histogram("demand.round.seconds");
  const std::uint64_t before = seconds.count();
  constexpr std::uint64_t kRounds = 3;
  for (std::uint64_t r = 0; r < kRounds; ++r)
    (void)pipeline.round(intent, te::FlowAssignment{});
  EXPECT_EQ(seconds.count() - before, kRounds);
}

TEST(DemandCapacity, MeasuredPeakCrossChecksAgainstSnr) {
  const auto table = optical::ModulationTable::standard();
  const DemandConfig config = estimated_config();
  demand::CapacityEstimator estimator(1);

  CounterSet counters;
  counters.samples.resize(1);
  counters.samples[0].tx_bytes =
      demand::bytes_of(150.0, config.interval_seconds);
  counters.samples[0].tx_packets =
      counters.samples[0].tx_bytes / demand::kPacketBytes;
  estimator.observe(counters, config.interval_seconds);
  ASSERT_EQ(estimator.measured().size(), 1u);
  EXPECT_NEAR(estimator.measured()[0], 150.0, 1e-9);

  // Healthy SNR: the ladder supports more than the link carried — planes
  // agree. Degraded SNR: measured exceeds feasible — mismatch flagged.
  const std::vector<util::Db> healthy = {util::Db{15.0}};
  auto agree = estimator.estimates(table, healthy, util::Db{0.5});
  ASSERT_EQ(agree.size(), 1u);
  EXPECT_TRUE(agree[0].consistent);
  EXPECT_GE(agree[0].snr_gbps, agree[0].measured_gbps);

  const std::vector<util::Db> degraded = {util::Db{4.0}};
  auto disagree = estimator.estimates(table, degraded, util::Db{0.5});
  EXPECT_FALSE(disagree[0].consistent);
}

TEST(DemandCapacity, CorruptSamplesNeverPoisonThePeak) {
  const DemandConfig config = estimated_config();
  demand::CapacityEstimator estimator(2);
  CounterSet counters;
  counters.samples.resize(2);
  counters.samples[0].tx_bytes = std::numeric_limits<double>::quiet_NaN();
  counters.samples[1].missing = true;
  estimator.observe(counters, config.interval_seconds);
  for (const double peak : estimator.measured()) {
    EXPECT_TRUE(std::isfinite(peak));
    EXPECT_GE(peak, 0.0);
  }
}

}  // namespace
}  // namespace rwc
