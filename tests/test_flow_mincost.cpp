// Tests for min-cost max-flow (SSP), the cycle-cancelling cross-check and
// flow decomposition.
#include <gtest/gtest.h>

#include <cmath>

#include "flow/cycle_cancel.hpp"
#include "flow/decompose.hpp"
#include "flow/graph_adapter.hpp"
#include "flow/maxflow.hpp"
#include "flow/mincost.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace rwc::flow {
namespace {

TEST(MinCostFlow, PrefersCheapPath) {
  // Two parallel routes, the cheaper has limited capacity.
  ResidualNetwork net(4);
  const int cheap1 = net.add_arc(0, 1, 5.0, 1.0);
  net.add_arc(1, 3, 5.0, 1.0);
  const int costly1 = net.add_arc(0, 2, 10.0, 5.0);
  net.add_arc(2, 3, 10.0, 5.0);
  const auto result = min_cost_max_flow(net, 0, 3);
  EXPECT_DOUBLE_EQ(result.flow, 15.0);
  // 5 units at cost 2 each + 10 units at cost 10 each.
  EXPECT_DOUBLE_EQ(result.cost, 110.0);
  EXPECT_DOUBLE_EQ(net.flow(cheap1), 5.0);
  EXPECT_DOUBLE_EQ(net.flow(costly1), 10.0);
}

TEST(MinCostFlow, FlowLimitStopsEarly) {
  ResidualNetwork net(2);
  net.add_arc(0, 1, 10.0, 3.0);
  const auto result = min_cost_max_flow(net, 0, 1, 4.0);
  EXPECT_DOUBLE_EQ(result.flow, 4.0);
  EXPECT_DOUBLE_EQ(result.cost, 12.0);
}

TEST(MinCostFlow, CostMatchesNetworkTotalCost) {
  ResidualNetwork net(4);
  net.add_arc(0, 1, 3.0, 2.0);
  net.add_arc(1, 3, 3.0, 1.0);
  net.add_arc(0, 2, 4.0, 1.0);
  net.add_arc(2, 3, 4.0, 4.0);
  const auto result = min_cost_max_flow(net, 0, 3);
  EXPECT_NEAR(result.cost, net.total_cost(), 1e-9);
}

TEST(MinCostFlow, HandlesNegativeCostArcs) {
  // A negative arc on the longer route makes it cheaper overall.
  ResidualNetwork net(4);
  net.add_arc(0, 1, 5.0, 4.0);
  net.add_arc(1, 3, 5.0, 0.0);
  net.add_arc(0, 2, 5.0, 6.0);
  net.add_arc(2, 3, 5.0, -4.0);
  const auto result = min_cost_max_flow(net, 0, 3);
  EXPECT_DOUBLE_EQ(result.flow, 10.0);
  EXPECT_DOUBLE_EQ(result.cost, 5.0 * 4.0 + 5.0 * 2.0);
}

TEST(MinCostFlow, FingerprintSeparatesNetworksAndTerminals) {
  // network_fingerprint keys the flow.mincost fault site: equal inputs must
  // hash equal, and the network and both terminals must all reach the key.
  const auto make = [](std::uint64_t seed) {
    util::Rng rng(seed);
    ResidualNetwork net(24);
    for (int u = 0; u < 24; ++u)
      for (int v = 0; v < 24; ++v) {
        if (u == v || !rng.bernoulli(0.3)) continue;
        net.add_arc(u, v, rng.uniform(5.0, 50.0), rng.uniform(0.1, 4.0));
      }
    return net;
  };
  const ResidualNetwork a = make(11);
  const ResidualNetwork b = make(12);
  EXPECT_EQ(network_fingerprint(a, 0, 23), network_fingerprint(a, 0, 23));
  EXPECT_NE(network_fingerprint(a, 0, 23), network_fingerprint(b, 0, 23));
  EXPECT_NE(network_fingerprint(a, 0, 23), network_fingerprint(a, 1, 23));
  EXPECT_NE(network_fingerprint(a, 0, 23), network_fingerprint(a, 0, 22));
}

TEST(MinCostFlow, ResultHasNoNegativeResidualCycle) {
  util::Rng rng(7);
  graph::Graph g = sim::waxman(12, rng);
  for (graph::EdgeId e : g.edge_ids()) {
    g.edge(e).capacity = util::Gbps{rng.uniform(1.0, 10.0)};
    g.edge(e).cost = rng.uniform(0.0, 5.0);
  }
  auto view = make_network(g);
  min_cost_max_flow(view.net, 0, 11);
  EXPECT_FALSE(find_negative_cycle(view.net).has_value());
}

class MinCostCrossCheckSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinCostCrossCheckSweep, SspMatchesCycleCancelling) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 3);
  graph::Graph g = sim::waxman(10, rng);
  for (graph::EdgeId e : g.edge_ids()) {
    g.edge(e).capacity = util::Gbps{std::floor(rng.uniform(1.0, 10.0))};
    g.edge(e).cost = std::floor(rng.uniform(0.0, 6.0));
  }
  auto ssp_view = make_network(g);
  auto cc_view = make_network(g);
  const auto ssp = min_cost_max_flow(ssp_view.net, 0, 9);
  const double cc_flow = min_cost_max_flow_by_cancelling(cc_view.net, 0, 9);
  EXPECT_NEAR(ssp.flow, cc_flow, 1e-6);
  EXPECT_NEAR(ssp.cost, cc_view.net.total_cost(), 1e-6);
  EXPECT_FALSE(find_negative_cycle(ssp_view.net).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCostCrossCheckSweep,
                         ::testing::Range(1, 16));

TEST(CycleCancel, FindsAndCancelsANegativeCycle) {
  // Build a circulation with a negative cycle by saturating a costly path
  // that a negative-cost back-route undercuts.
  ResidualNetwork net(3);
  const int a = net.add_arc(0, 1, 5.0, 5.0);
  const int b = net.add_arc(1, 2, 5.0, 5.0);
  const int c = net.add_arc(2, 0, 5.0, -20.0);
  net.push(a, 0.0);  // no flow yet: residual cycle 0->1->2->0 costs -10
  EXPECT_TRUE(find_negative_cycle(net).has_value());
  const double saved = cancel_negative_cycles(net);
  EXPECT_NEAR(saved, 50.0, 1e-9);  // 5 units around the cycle at gain 10
  EXPECT_FALSE(find_negative_cycle(net).has_value());
  EXPECT_DOUBLE_EQ(net.flow(a), 5.0);
  EXPECT_DOUBLE_EQ(net.flow(b), 5.0);
  EXPECT_DOUBLE_EQ(net.flow(c), 5.0);
}

TEST(Decompose, SplitsFlowIntoValidPaths) {
  ResidualNetwork net(4);
  net.add_arc(0, 1, 3.0);
  net.add_arc(1, 3, 3.0);
  net.add_arc(0, 2, 4.0);
  net.add_arc(2, 3, 4.0);
  const double flow = max_flow_dinic(net, 0, 3);
  const auto decomposition = decompose_flow(net, 0, 3);
  double total = 0.0;
  for (const PathFlow& pf : decomposition.paths) {
    EXPECT_FALSE(pf.arcs.empty());
    EXPECT_EQ(net.source(pf.arcs.front()), 0);
    EXPECT_EQ(net.target(pf.arcs.back()), 3);
    for (std::size_t i = 0; i + 1 < pf.arcs.size(); ++i)
      EXPECT_EQ(net.target(pf.arcs[i]), net.source(pf.arcs[i + 1]));
    total += pf.amount;
  }
  EXPECT_NEAR(total, flow, 1e-9);
  EXPECT_DOUBLE_EQ(decomposition.cancelled_cycle_flow, 0.0);
}

TEST(Decompose, CancelsCirculations) {
  // An s-t path plus a detached cycle of flow.
  ResidualNetwork net(5);
  const int st = net.add_arc(0, 4, 2.0);
  const int c1 = net.add_arc(1, 2, 1.0);
  const int c2 = net.add_arc(2, 3, 1.0);
  const int c3 = net.add_arc(3, 1, 1.0);
  net.push(st, 2.0);
  net.push(c1, 1.0);
  net.push(c2, 1.0);
  net.push(c3, 1.0);
  const auto decomposition = decompose_flow(net, 0, 4);
  ASSERT_EQ(decomposition.paths.size(), 1u);
  EXPECT_DOUBLE_EQ(decomposition.paths[0].amount, 2.0);
  // The detached cycle is simply not part of any s-t walk, so it must not
  // appear in the paths.
}

TEST(Decompose, HandlesCycleTouchingThePath) {
  // s -> a -> t with a cycle a -> b -> a superimposed. The cycle arcs are
  // inserted before the exit arc so the walk necessarily runs into them.
  ResidualNetwork net(4);
  const int sa = net.add_arc(0, 1, 5.0);
  const int ab = net.add_arc(1, 2, 1.0);
  const int ba = net.add_arc(2, 1, 1.0);
  const int at = net.add_arc(1, 3, 5.0);
  net.push(sa, 3.0);
  net.push(at, 3.0);
  net.push(ab, 1.0);
  net.push(ba, 1.0);
  const auto decomposition = decompose_flow(net, 0, 3);
  double total = 0.0;
  for (const PathFlow& pf : decomposition.paths) total += pf.amount;
  EXPECT_NEAR(total, 3.0, 1e-9);
  EXPECT_NEAR(decomposition.cancelled_cycle_flow, 1.0, 1e-9);
}

}  // namespace
}  // namespace rwc::flow
