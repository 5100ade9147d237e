// Tests for the end-to-end DynamicCapacityController: upgrades on demand,
// SNR-driven flaps (run/walk/crawl), recovery, consolidation (Fig. 7) and
// consistent transitions.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "sim/topology.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/check.hpp"

namespace rwc::core {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Db;
using util::Gbps;
using namespace util::literals;

std::vector<Db> uniform_snr(const graph::Graph& g, double db) {
  return std::vector<Db>(g.edge_count(), Db{db});
}

ControllerOptions no_margin_options() {
  ControllerOptions options;
  options.snr_margin = 0.0_dB;
  return options;
}

TEST(Controller, NoChangeWhenDemandFits) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 80_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 20.0), demands);
  EXPECT_TRUE(report.reductions.empty());
  EXPECT_TRUE(report.plan.upgrades.empty());
  EXPECT_NEAR(report.total_routed.value, 80.0, 1e-6);
  EXPECT_TRUE(report.transition_valid);
}

TEST(Controller, UpgradesWhenDemandNeedsIt) {
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  const EdgeId ab = base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 150_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 20.0), demands);
  ASSERT_EQ(report.plan.upgrades.size(), 1u);
  EXPECT_EQ(report.plan.upgrades[0].edge, ab);
  EXPECT_EQ(report.plan.upgrades[0].to, 200_Gbps);
  EXPECT_NEAR(report.total_routed.value, 150.0, 1e-6);
  EXPECT_EQ(controller.configured_capacity(ab), 200_Gbps);
}

TEST(Controller, SnrLimitsTheUpgradeTarget) {
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  const EdgeId ab = base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 190_Gbps, 0}};
  // 12 dB supports 175 G but not 200 G.
  const auto report = controller.run_round(uniform_snr(base, 12.0), demands);
  ASSERT_EQ(report.plan.upgrades.size(), 1u);
  EXPECT_EQ(report.plan.upgrades[0].to, 175_Gbps);
  EXPECT_NEAR(report.total_routed.value, 175.0, 1e-6);
  EXPECT_EQ(controller.configured_capacity(ab), 175_Gbps);
}

TEST(Controller, WalkDontFail_FlapsTo50OnDegradedSnr) {
  // The paper's availability story: SNR drops below the 100 G threshold but
  // stays above 3 dB -> the link walks down to 50 G instead of failing.
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  const EdgeId ab = base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 100_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 4.2), demands);
  ASSERT_EQ(report.reductions.size(), 1u);
  EXPECT_EQ(report.reductions[0].from, 100_Gbps);
  EXPECT_EQ(report.reductions[0].to, 50_Gbps);
  EXPECT_EQ(controller.configured_capacity(ab), 50_Gbps);
  // Half the demand still flows: a flap, not a failure.
  EXPECT_NEAR(report.total_routed.value, 50.0, 1e-6);
}

TEST(Controller, CrawlToZeroOnLossOfLight) {
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  const EdgeId ab = base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 100_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 0.3), demands);
  ASSERT_EQ(report.reductions.size(), 1u);
  EXPECT_EQ(report.reductions[0].to, 0_Gbps);
  EXPECT_EQ(controller.configured_capacity(ab), 0_Gbps);
  EXPECT_NEAR(report.total_routed.value, 0.0, 1e-9);
}

TEST(Controller, RecoversAfterSnrRestores) {
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  const EdgeId ab = base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 90_Gbps, 0}};
  controller.run_round(uniform_snr(base, 4.2), demands);  // flap to 50
  EXPECT_EQ(controller.configured_capacity(ab), 50_Gbps);
  const auto report = controller.run_round(uniform_snr(base, 8.0), demands);
  // SNR supports 100 G again; the demand needs it, so TE upgrades back.
  EXPECT_EQ(controller.configured_capacity(ab), 100_Gbps);
  EXPECT_NEAR(report.total_routed.value, 90.0, 1e-6);
}

TEST(Controller, Fig7ConsolidationUpgradesOnlyOneLink) {
  // The paper's Fig. 7 walk-through end-to-end: both (A,B) and (C,D) could
  // double, both demands grew to 125 G, and the controller must end up
  // changing the capacity of only ONE link.
  graph::Graph base = sim::fig7_square();
  const NodeId a = *base.find_node("A");
  const NodeId b = *base.find_node("B");
  const NodeId c = *base.find_node("C");
  const NodeId d = *base.find_node("D");
  te::McfTe engine;
  ControllerOptions options = no_margin_options();
  options.penalty = std::make_shared<FixedPenalty>(100.0);
  options.consolidate = true;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine, options);

  // Only the A-B and C-D fibers have upgrade-grade SNR; the cross links sit
  // just under the 125 G threshold.
  std::vector<Db> snr(base.edge_count(), Db{7.5});
  const EdgeId ab = *base.find_edge(a, b);
  const EdgeId ba = *base.find_edge(b, a);
  const EdgeId cd = *base.find_edge(c, d);
  const EdgeId dc = *base.find_edge(d, c);
  for (EdgeId e : {ab, ba, cd, dc}) snr[static_cast<std::size_t>(e.value)] =
      Db{20.0};

  const te::TrafficMatrix demands = {{a, b, 125_Gbps, 0},
                                     {c, d, 125_Gbps, 0}};
  const auto report = controller.run_round(snr, demands);
  EXPECT_NEAR(report.total_routed.value, 250.0, 1e-5);
  EXPECT_EQ(report.plan.upgrades.size(), 1u);
}

TEST(Controller, PenaltyReflectsDisruptedTraffic) {
  // Second round: the link already carries traffic, so upgrading it costs
  // (traffic-proportional policy), and the engine avoids it when a free
  // alternative exists.
  graph::Graph base = sim::fig7_square();
  const NodeId a = *base.find_node("A");
  const NodeId b = *base.find_node("B");
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix round1 = {{a, b, 100_Gbps, 0}};
  controller.run_round(uniform_snr(base, 20.0), round1);
  // Round 2 asks for 150: the loaded direct link could upgrade, but the
  // A-C-D-B detour is free of both penalty and disruption — the engine must
  // take it and leave every capacity unchanged.
  const te::TrafficMatrix round2 = {{a, b, 150_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 20.0), round2);
  EXPECT_NEAR(report.total_routed.value, 150.0, 1e-5);
  EXPECT_TRUE(report.plan.upgrades.empty());
  EXPECT_NEAR(report.total_penalty, 0.0, 1e-9);
}

TEST(Controller, TransitionPlansAreValidAcrossRounds) {
  graph::Graph base = sim::abilene();
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const NodeId sea = *base.find_node("SEA");
  const NodeId nyc = *base.find_node("NYC");
  for (double volume : {80.0, 150.0, 220.0, 60.0}) {
    const te::TrafficMatrix demands = {{sea, nyc, Gbps{volume}, 0}};
    const auto report =
        controller.run_round(uniform_snr(base, 20.0), demands);
    EXPECT_TRUE(report.transition_valid) << "at volume " << volume;
    te::validate_assignment(controller.current_topology(),
                            report.plan.physical_assignment);
  }
}

TEST(Controller, ForcedReductionUnderLoadFailsTheTransitionCheck) {
  // 90 G rides a 100 G link whose SNR then supports only 50 G: the old load
  // no longer fits the new capacity, so no two-phase update from it is
  // congestion-free. The next round starts from the 50 G routing and fits.
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 90_Gbps, 0}};
  EXPECT_TRUE(
      controller.run_round(uniform_snr(base, 8.0), demands).transition_valid);
  const auto forced = controller.run_round(uniform_snr(base, 4.2), demands);
  ASSERT_EQ(forced.reductions.size(), 1u);
  EXPECT_FALSE(forced.transition_valid);
  EXPECT_TRUE(
      controller.run_round(uniform_snr(base, 4.2), demands).transition_valid);
}

TEST(Controller, WorksWithSwanEngineUnmodified) {
  // Theorem 1's claim: a different, unmodified TE engine plugs in.
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  base.add_edge(a, b, 100_Gbps);
  te::SwanTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {{a, b, 180_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 20.0), demands);
  EXPECT_NEAR(report.total_routed.value, 180.0, 1e-4);
  EXPECT_EQ(report.plan.upgrades.size(), 1u);
}

TEST(Controller, SnrMarginIsRespected) {
  graph::Graph base;
  const NodeId a = base.add_node("A");
  const NodeId b = base.add_node("B");
  const EdgeId ab = base.add_edge(a, b, 100_Gbps);
  te::McfTe engine;
  ControllerOptions options;
  options.snr_margin = 1.0_dB;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine, options);
  const te::TrafficMatrix demands = {{a, b, 200_Gbps, 0}};
  // 13.5 dB minus 1 dB margin = 12.5 dB -> only 175 G feasible.
  const auto report =
      controller.run_round(uniform_snr(base, 13.5), demands);
  ASSERT_EQ(report.plan.upgrades.size(), 1u);
  EXPECT_EQ(report.plan.upgrades[0].to, 175_Gbps);
  EXPECT_EQ(controller.configured_capacity(ab), 175_Gbps);
}

TEST(Controller, RejectsWrongSnrVectorSize) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      ControllerOptions{});
  const std::vector<Db> snr(3, Db{15.0});
  EXPECT_THROW(controller.run_round(snr, {}), util::CheckError);
}

// Estimated-demand rounds cross-check each link's counted peak against
// its SNR (docs/DEMAND.md §7): a link that fades while it carries more
// than its new SNR supports raises demand.capacity.mismatch, once, and
// no link does while the SNR holds.
TEST(Controller, FadeUnderLoadRaisesTheCapacityMismatch) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  ControllerOptions options;
  options.demand.source = demand::DemandSource::kEstimated;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine, options);
  const NodeId a = *base.find_node("A");
  const NodeId b = *base.find_node("B");
  const te::TrafficMatrix demands = {{a, b, 80_Gbps, 0}};
  const obs::Counter& mismatches =
      obs::Registry::global().counter("demand.capacity.mismatch");

  std::vector<Db> snr = uniform_snr(base, 20.0);
  const std::uint64_t before = mismatches.value();
  for (int round = 0; round < 3; ++round) controller.run_round(snr, demands);
  EXPECT_EQ(mismatches.value(), before) << "no link fades";

  const std::vector<double>& load = controller.last_assignment().edge_load_gbps;
  const std::size_t faded = static_cast<std::size_t>(
      std::max_element(load.begin(), load.end()) - load.begin());
  ASSERT_GT(load[faded], 50.0) << "the faded link must carry the demand";
  snr[faded] = Db{5.0};  // 4.5 dB after the margin: 50 G (DP-BPSK)
  const std::uint64_t faded_before = mismatches.value();
  controller.run_round(snr, demands);
  EXPECT_EQ(mismatches.value() - faded_before, 1u);

  const std::vector<demand::CapacityEstimate> estimates =
      controller.demand_pipeline()->capacity().estimates(
          controller.table(), snr, options.snr_margin);
  for (std::size_t e = 0; e < estimates.size(); ++e)
    EXPECT_EQ(estimates[e].consistent, e != faded) << "edge " << e;
}

}  // namespace
}  // namespace rwc::core
