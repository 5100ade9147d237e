// Min-cost-flow properties under fault injection: the budget degrades to a
// valid partial flow, and every solve conserves flow at transit nodes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fault/registry.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"
#include "prop/generators.hpp"
#include "prop/seeds.hpp"
#include "prop/invariants.hpp"
#include "prop/shrink.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

// Default seed triple; the nightly sweep widens this via RWC_PROP_SEEDS
// (tests/prop/seeds.hpp).
const std::vector<std::uint64_t> kSeeds = prop::sweep_seeds({17, 29, 47});

struct FlowFixture {
  int nodes = 0;
  struct Arc {
    int src, dst;
    double capacity, cost;
  };
  std::vector<Arc> arcs;
  double flow_limit = std::numeric_limits<double>::infinity();

  flow::ResidualNetwork build() const {
    flow::ResidualNetwork net(static_cast<std::size_t>(nodes));
    for (const Arc& arc : arcs)
      net.add_arc(arc.src, arc.dst, arc.capacity, arc.cost);
    return net;
  }
  int source() const { return 0; }
  int sink() const { return nodes - 1; }
};

FlowFixture random_flow_fixture(util::Rng& rng) {
  FlowFixture fixture;
  fixture.nodes = static_cast<int>(rng.uniform_int(5, 9));
  for (int src = 0; src < fixture.nodes; ++src)
    for (int dst = 0; dst < fixture.nodes; ++dst)
      if (src != dst && rng.bernoulli(0.45))
        fixture.arcs.push_back({src, dst, rng.uniform(0.0, 8.0),
                                rng.uniform(0.0, 4.0)});
  if (rng.bernoulli(0.5)) fixture.flow_limit = rng.uniform(0.0, 12.0);
  return fixture;
}

/// Transit-node conservation + non-negative residuals on the solved net.
prop::InvariantResult check_network_conservation(
    const flow::ResidualNetwork& net, int source, int sink) {
  for (int node = 0; node < static_cast<int>(net.node_count()); ++node) {
    if (node == source || node == sink) continue;
    if (std::abs(net.net_outflow(node)) > 1e-6)
      return prop::InvariantResult::fail(
          "flow not conserved at transit node " + std::to_string(node));
  }
  for (int arc = 0; arc < static_cast<int>(net.arc_count()); ++arc)
    if (net.residual(arc) < -flow::kFlowEps)
      return prop::InvariantResult::fail("negative residual on arc " +
                                         std::to_string(arc));
  return prop::InvariantResult::pass();
}

TEST(PropFlow, BudgetFaultsDegradeToValidPartialFlows) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng = util::Rng::stream(seed, 600);
    for (int trial = 0; trial < 4; ++trial) {
      const FlowFixture fixture = random_flow_fixture(rng);
      // Unfaulted baseline for the budget comparison.
      flow::ResidualNetwork free_net = fixture.build();
      const auto unbounded = flow::min_cost_max_flow(
          free_net, fixture.source(), fixture.sink(), fixture.flow_limit);
      ASSERT_EQ(unbounded.status == flow::SolveStatus::kBudgetExhausted,
                false);
      const std::uint64_t budget =
          static_cast<std::uint64_t>(rng.uniform_int(0, 6));
      fault::FaultPlan plan;
      plan.seed = seed;
      plan.injections.push_back(
          {"flow.mincost", 0, 1,
           {fault::Kind::kBudget, static_cast<double>(budget)}});
      prop::expect_property(
          seed, plan, [&](const fault::FaultPlan& candidate) {
            fault::ScopedPlan armed(candidate);
            flow::ResidualNetwork net = fixture.build();
            const auto result = flow::min_cost_max_flow(
                net, fixture.source(), fixture.sink(), fixture.flow_limit);
            if (result.augmenting_paths > budget)
              return prop::InvariantResult::fail(
                  "budget overrun: " +
                  std::to_string(result.augmenting_paths) + " paths on a " +
                  std::to_string(budget) + " budget");
            if (result.flow > unbounded.flow + flow::kFlowEps)
              return prop::InvariantResult::fail(
                  "partial flow exceeds the unbounded optimum");
            if (result.status != flow::SolveStatus::kBudgetExhausted &&
                result.flow != unbounded.flow)
              return prop::InvariantResult::fail(
                  "non-exhausted status with less flow than the optimum");
            return check_network_conservation(net, fixture.source(),
                                              fixture.sink());
          });
    }
  }
}

}  // namespace
}  // namespace rwc
