// Tests for the fixed-charge activation solver (per-activation costs).
#include <gtest/gtest.h>

#include "core/fixed_charge.hpp"
#include "sim/topology.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"

namespace rwc::core {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Gbps;
using namespace util::literals;

TEST(FixedCharge, EmptyVariableSetJustSolves) {
  graph::Graph g = sim::fig7_square();
  te::McfTe engine;
  const te::TrafficMatrix demands = {
      {*g.find_node("A"), *g.find_node("B"), 80_Gbps, 0}};
  const auto result = solve_fixed_charge(g, {}, {}, engine, demands);
  EXPECT_TRUE(result.activated.empty());
  EXPECT_NEAR(result.routed.value, 80.0, 1e-6);
  EXPECT_EQ(result.activation_cost, 0.0);
}

TEST(FixedCharge, PicksCheapestSufficientSubset) {
  // Two upgradable parallel routes; either one alone serves the demand,
  // so the solver must activate only the cheaper.
  graph::Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId top = g.add_edge(a, b, 100_Gbps);
  const EdgeId bottom = g.add_edge(a, b, 100_Gbps);
  const std::vector<VariableLink> variable = {{top, 200_Gbps},
                                              {bottom, 200_Gbps}};
  const std::vector<double> costs = {50.0, 30.0};
  te::McfTe engine;
  const te::TrafficMatrix demands = {{a, b, 300_Gbps, 0}};
  const auto result =
      solve_fixed_charge(g, variable, costs, engine, demands);
  ASSERT_EQ(result.activated.size(), 1u);
  EXPECT_EQ(result.activated[0].edge, bottom);
  EXPECT_EQ(result.activation_cost, 30.0);
  EXPECT_NEAR(result.routed.value, 300.0, 1e-6);
}

TEST(FixedCharge, ActivatesNothingWhenDemandFits) {
  graph::Graph g = sim::fig7_square();
  std::vector<VariableLink> variable;
  std::vector<double> costs;
  for (EdgeId e : g.edge_ids()) {
    variable.push_back({e, 200_Gbps});
    costs.push_back(10.0);
  }
  te::McfTe engine;
  const te::TrafficMatrix demands = {
      {*g.find_node("A"), *g.find_node("B"), 90_Gbps, 0}};
  const auto result =
      solve_fixed_charge(g, variable, costs, engine, demands);
  EXPECT_TRUE(result.activated.empty());
  EXPECT_EQ(result.activation_cost, 0.0);
}

TEST(FixedCharge, FixedVsPerUnitSemanticsDiffer) {
  // One big cheap-flat link vs two small ones: fixed-charge prefers the
  // single activation even though per-unit costs would tie.
  graph::Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId big = g.add_edge(a, b, 50_Gbps);
  const EdgeId small1 = g.add_edge(a, b, 50_Gbps);
  const EdgeId small2 = g.add_edge(a, b, 50_Gbps);
  const std::vector<VariableLink> variable = {
      {big, 200_Gbps}, {small1, 125_Gbps}, {small2, 125_Gbps}};
  const std::vector<double> costs = {40.0, 25.0, 25.0};
  te::McfTe engine;
  const te::TrafficMatrix demands = {{a, b, 300_Gbps, 0}};
  const auto result =
      solve_fixed_charge(g, variable, costs, engine, demands);
  // Max throughput 300 needs big (200+50+50); activating only `big`
  // achieves it at cost 40 — better than 25+25 (which only reaches 250+50).
  ASSERT_EQ(result.activated.size(), 1u);
  EXPECT_EQ(result.activated[0].edge, big);
  EXPECT_EQ(result.activation_cost, 40.0);
  EXPECT_NEAR(result.routed.value, 300.0, 1e-6);
}

TEST(FixedCharge, ValidatesInputs) {
  graph::Graph g = sim::fig7_square();
  te::McfTe engine;
  const std::vector<VariableLink> variable = {{EdgeId{0}, 200_Gbps}};
  const std::vector<double> wrong_size = {1.0, 2.0};
  EXPECT_THROW(
      solve_fixed_charge(g, variable, wrong_size, engine, {}),
      util::CheckError);
  const std::vector<double> negative = {-1.0};
  EXPECT_THROW(solve_fixed_charge(g, variable, negative, engine, {}),
               util::CheckError);
  // Subset enumeration is bounded to kMaxFixedChargeLinks links.
  const std::vector<VariableLink> most(kMaxFixedChargeLinks,
                                       {EdgeId{0}, 200_Gbps});
  const std::vector<double> most_costs(kMaxFixedChargeLinks, 1.0);
  EXPECT_NO_THROW(solve_fixed_charge(g, most, most_costs, engine, {}));
  const std::vector<VariableLink> too_many(kMaxFixedChargeLinks + 1,
                                           {EdgeId{0}, 200_Gbps});
  const std::vector<double> too_many_costs(kMaxFixedChargeLinks + 1, 1.0);
  EXPECT_THROW(solve_fixed_charge(g, too_many, too_many_costs, engine, {}),
               util::CheckError);
}

TEST(FixedCharge, ZeroHeadroomActivationIsNeverChosen) {
  // Unlike Algorithm 1 (which rejects zero-headroom variable links — they
  // violate its strict-headroom precondition), activation semantics make a
  // zero-headroom "upgrade" a legal no-op: it buys no throughput, so the
  // lexicographic solver must never pay for it.
  graph::Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId useless = g.add_edge(a, b, 100_Gbps);
  const EdgeId useful = g.add_edge(a, b, 100_Gbps);
  const std::vector<VariableLink> variable = {
      {useless, 100_Gbps},  // zero headroom
      {useful, 200_Gbps}};
  const std::vector<double> costs = {5.0, 20.0};
  te::McfTe engine;
  const te::TrafficMatrix demands = {{a, b, 300_Gbps, 0}};
  const auto result = solve_fixed_charge(g, variable, costs, engine, demands);
  ASSERT_EQ(result.activated.size(), 1u);
  EXPECT_EQ(result.activated[0].edge, useful);
  EXPECT_EQ(result.activation_cost, 20.0);
  EXPECT_NEAR(result.routed.value, 300.0, 1e-6);
}

TEST(FixedCharge, FreeActivationsAreStillNotChosenWhenUseless) {
  // Cost ties break toward smaller subsets (documented tie-break), so even
  // at zero activation cost the solver returns the empty activation set
  // when the base topology already carries the demand.
  graph::Graph g = sim::fig7_square();
  std::vector<VariableLink> variable;
  std::vector<double> costs;
  for (EdgeId e : g.edge_ids()) {
    variable.push_back({e, 200_Gbps});
    costs.push_back(0.0);
  }
  te::McfTe engine;
  const te::TrafficMatrix demands = {
      {*g.find_node("A"), *g.find_node("B"), 90_Gbps, 0}};
  const auto result = solve_fixed_charge(g, variable, costs, engine, demands);
  EXPECT_TRUE(result.activated.empty());
  EXPECT_EQ(result.activation_cost, 0.0);
}

}  // namespace
}  // namespace rwc::core
