// Properties of the fault-plan machinery itself, plus the harness's
// mutation checks: every invariant checker is fed a deliberately broken
// input and must catch it. A harness whose checkers cannot fail proves
// nothing — these tests are the proof that ours can.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "prop/generators.hpp"
#include "prop/seeds.hpp"
#include "prop/invariants.hpp"
#include "prop/shrink.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

// Default seed triple; the nightly sweep widens this via RWC_PROP_SEEDS
// (tests/prop/seeds.hpp).
const std::vector<std::uint64_t> kSeeds = prop::sweep_seeds({17, 29, 47});

TEST(PropPlan, SpecRoundTripsGeneratedPlans) {
  std::vector<prop::SiteProfile> profiles = prop::degrading_sites();
  const auto& timing = prop::timing_sites();
  profiles.insert(profiles.end(), timing.begin(), timing.end());
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng = util::Rng::stream(seed, 700);
    for (int trial = 0; trial < 20; ++trial) {
      const fault::FaultPlan plan =
          prop::random_fault_plan(profiles, rng, seed, 8);
      const std::string spec = plan.to_string();
      const fault::FaultPlan parsed = fault::FaultPlan::parse(spec);
      ASSERT_EQ(parsed.injections.size(), plan.injections.size())
          << "seed=" << seed << " spec=\"" << spec << "\"";
      for (std::size_t i = 0; i < plan.injections.size(); ++i) {
        const fault::Injection& a = plan.injections[i];
        const fault::Injection& b = parsed.injections[i];
        EXPECT_EQ(a.site, b.site) << spec;
        EXPECT_EQ(a.hit, b.hit) << spec;
        EXPECT_EQ(a.period, b.period) << spec;
        EXPECT_EQ(a.action.kind, b.action.kind) << spec;
        EXPECT_DOUBLE_EQ(a.action.magnitude, b.action.magnitude) << spec;
      }
      EXPECT_EQ(parsed.to_string(), spec);
    }
  }
}

TEST(PropPlan, ShrinkingIsolatesASingleCulpritInjection) {
  // A property that fails exactly when the plan schedules a bvt.reconfig
  // failure: the minimizer must descend to that single injection no matter
  // how much noise surrounds it.
  const prop::Property property = [](const fault::FaultPlan& plan) {
    for (const fault::Injection& injection : plan.injections)
      if (injection.site == "bvt.reconfig" &&
          injection.action.kind == fault::Kind::kFail)
        return prop::InvariantResult::fail("reconfig abort scheduled");
    return prop::InvariantResult::pass();
  };
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng = util::Rng::stream(seed, 800);
    fault::FaultPlan plan;
    plan.seed = seed;
    const auto& timing = prop::timing_sites();
    const std::size_t noise = static_cast<std::size_t>(
        rng.uniform_int(3, 9));
    const std::size_t culprit_at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(noise)));
    for (std::size_t i = 0; i <= noise; ++i) {
      if (i == culprit_at) {
        plan.injections.push_back(
            {"bvt.reconfig", 0, 0, {fault::Kind::kFail, 0.0}});
      } else {
        const auto& profile = timing[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(timing.size()) - 1))];
        plan.injections.push_back(prop::random_injection(profile, rng));
      }
    }
    const auto failure = prop::minimize_failure(plan, property);
    ASSERT_TRUE(failure.has_value()) << "seed=" << seed;
    ASSERT_EQ(failure->minimized.injections.size(), 1u) << "seed=" << seed;
    EXPECT_EQ(failure->minimized.injections.front().site, "bvt.reconfig");
    EXPECT_EQ(failure->minimized.injections.front().action.kind,
              fault::Kind::kFail);
  }
}

TEST(PropPlan, MinimizerReturnsNulloptOnPassingPlans) {
  const prop::Property always_pass = [](const fault::FaultPlan&) {
    return prop::InvariantResult::pass();
  };
  fault::FaultPlan plan;
  plan.injections.push_back({"exec.steal", 0, 1, {fault::Kind::kDelay, 0.1}});
  EXPECT_FALSE(prop::minimize_failure(plan, always_pass).has_value());
}

// ---- Mutation checks: corrupt an input, expect the checker to object. ----

TEST(PropMutation, CapacityBoundCatchesOverProvisionedLink) {
  const optical::ModulationTable table = optical::ModulationTable::standard();
  // 4 dB - 0.5 dB margin supports 50 G; configuring 100 G must be flagged.
  const std::vector<util::Db> snr = {util::Db{15.0}, util::Db{4.0}};
  const std::vector<util::Gbps> good = {util::Gbps{100.0}, util::Gbps{50.0}};
  const std::vector<util::Gbps> broken = {util::Gbps{100.0},
                                          util::Gbps{100.0}};
  EXPECT_TRUE(
      prop::check_capacity_bound(table, snr, util::Db{0.5}, good).ok);
  const auto result =
      prop::check_capacity_bound(table, snr, util::Db{0.5}, broken);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("edge 1"), std::string::npos);
}

TEST(PropMutation, FlowConservationCatchesOverloadAndLeaks) {
  graph::Graph graph;
  const graph::NodeId a = graph.add_node("a");
  const graph::NodeId b = graph.add_node("b");
  const graph::NodeId c = graph.add_node("c");
  const graph::EdgeId ab = graph.add_edge(a, b, util::Gbps{10.0});
  const graph::EdgeId bc = graph.add_edge(b, c, util::Gbps{10.0});

  te::FlowAssignment assignment;
  te::FlowAssignment::DemandRouting routing;
  routing.demand = {a, c, util::Gbps{8.0}, 0};
  routing.paths.emplace_back(graph::Path{{ab, bc}, 2.0}, util::Gbps{8.0});
  routing.routed = util::Gbps{8.0};
  assignment.routings.push_back(routing);
  assignment.edge_load_gbps = {8.0, 8.0};
  EXPECT_TRUE(prop::check_flow_conservation(graph, assignment).ok);

  // Mutation 1: volume beyond capacity.
  te::FlowAssignment overloaded = assignment;
  overloaded.routings[0].paths[0].second = util::Gbps{12.0};
  overloaded.routings[0].routed = util::Gbps{12.0};
  overloaded.edge_load_gbps = {12.0, 12.0};
  EXPECT_FALSE(prop::check_flow_conservation(graph, overloaded).ok);

  // Mutation 2: a path that leaks flow mid-way (stops at b, claims a->c).
  te::FlowAssignment leaking = assignment;
  leaking.routings[0].paths[0].first.edges = {ab};
  EXPECT_FALSE(prop::check_flow_conservation(graph, leaking).ok);

  // Mutation 3: per-demand volumes that do not sum to `routed`.
  te::FlowAssignment shorted = assignment;
  shorted.routings[0].routed = util::Gbps{5.0};
  EXPECT_FALSE(prop::check_flow_conservation(graph, shorted).ok);
}

TEST(PropMutation, HysteresisOracleCatchesPrematureIncrease) {
  core::HysteresisParams params;
  params.up_hold_rounds = 3;
  // Round 0 exposes 200 G immediately: a dwell violation by construction.
  const std::vector<prop::HysteresisRound> rounds = {
      {util::Gbps{200.0}, util::Gbps{200.0}, util::Gbps{100.0},
       util::Gbps{200.0}},
  };
  const auto result = prop::check_hysteresis_dwell(rounds, params);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("dwell"), std::string::npos);
}

TEST(PropMutation, SignatureCheckCatchesAnyFieldDivergence) {
  prop::RoundSignature a;
  a.upgrades = {{3, 150.0}};
  a.routed = 512.0;
  prop::RoundSignature b = a;
  EXPECT_TRUE(prop::check_signatures_equal(a, b, "same").ok);
  b.routed = 512.5;
  EXPECT_FALSE(prop::check_signatures_equal(a, b, "routed").ok);
  b = a;
  b.upgrades[0].second = 175.0;
  EXPECT_FALSE(prop::check_signatures_equal(a, b, "upgrades").ok);
}

TEST(PropPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("nonsense"), util::CheckError);
  EXPECT_THROW(fault::FaultPlan::parse("site@x:fail"), util::CheckError);
  EXPECT_THROW(fault::FaultPlan::parse("site@1:notakind"), util::CheckError);
  EXPECT_THROW(fault::FaultPlan::parse("site@1:invalidate"), util::CheckError);
  EXPECT_THROW(fault::FaultPlan::parse("site%0@1:fail;"), util::CheckError);
}

}  // namespace
}  // namespace rwc
