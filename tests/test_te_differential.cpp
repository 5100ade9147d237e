// Differential TE oracles (ISSUE 4 satellite): on seeded random splittable
// instances the edge-based LP reference (McfLpTe) upper-bounds McfTe's
// throughput, and the heuristic gap stays small; when both route the full
// demand the LP's routing cost is no worse. Independently, every greedy
// engine (SWAN, B4, ECMP) run on an AUGMENTED topology — fake headroom
// edges and all — must respect the augmented capacities and conserve flow
// (Theorem 1's precondition: engines run unmodified on G').
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/augment.hpp"
#include "core/penalty.hpp"
#include "prop/generators.hpp"
#include "prop/invariants.hpp"
#include "te/b4.hpp"
#include "te/ecmp.hpp"
#include "te/mcf_lp.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

constexpr std::uint64_t kSeeds[] = {17, 29, 47};

/// Heuristic-vs-LP throughput gap tolerated on these instances. McfTe
/// serves demands through successive per-commodity min-cost max-flow
/// solves, so it can strand capacity the joint multi-commodity LP optimum
/// still uses; the observed gap on the seeded instances is 8-18%, so this
/// bound catches a real regression without flaking on solver noise.
constexpr double kRelativeGapTolerance = 0.25;
constexpr double kAbsoluteTolerance = 1e-6;

struct Instance {
  graph::Graph topology;
  te::TrafficMatrix demands;
};

Instance make_instance(std::uint64_t seed) {
  util::Rng rng = util::Rng::stream(seed, 400);
  Instance instance;
  instance.topology = prop::random_topology(rng);
  instance.demands = prop::random_demands(instance.topology, rng);
  return instance;
}

// One test per seed, so ctest runs the seeds at once: the dense-tableau
// LP oracle takes seconds per instance.
class TeDifferentialLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TeDifferentialLp, LpUpperBoundsMcfThroughputWithinTolerance) {
  const te::McfTe mcf;
  const te::McfLpTe lp;
  const std::uint64_t seed = GetParam();
  const Instance instance = make_instance(seed);
  const std::string context = "seed " + std::to_string(seed);

  const te::FlowAssignment heuristic =
      mcf.solve(instance.topology, instance.demands);
  const te::FlowAssignment reference =
      lp.solve(instance.topology, instance.demands);

  // Both must be feasible before their objectives mean anything.
  const prop::InvariantResult mcf_ok =
      prop::check_flow_conservation(instance.topology, heuristic);
  ASSERT_TRUE(mcf_ok.ok) << context << ": mcf " << mcf_ok.detail;
  const prop::InvariantResult lp_ok =
      prop::check_flow_conservation(instance.topology, reference);
  ASSERT_TRUE(lp_ok.ok) << context << ": lp " << lp_ok.detail;

  const double mcf_routed = heuristic.total_routed.value;
  const double lp_routed = reference.total_routed.value;
  EXPECT_GE(lp_routed, mcf_routed - kAbsoluteTolerance)
      << context << ": the LP reference routed less than the heuristic";
  ASSERT_GT(lp_routed, 0.0) << context;
  EXPECT_LE((lp_routed - mcf_routed) / lp_routed, kRelativeGapTolerance)
      << context << ": heuristic routed " << mcf_routed << " Gbps vs LP "
      << lp_routed << " Gbps";

  const double offered = te::total_demand(instance.demands).value;
  const bool both_route_everything =
      mcf_routed >= offered - kAbsoluteTolerance &&
      lp_routed >= offered - kAbsoluteTolerance;
  if (both_route_everything) {
    // Same throughput -> the LP's cost-minimizing tiebreak must not lose
    // to the heuristic (relative slack for simplex pivoting noise).
    EXPECT_LE(reference.total_cost,
              heuristic.total_cost * (1.0 + 1e-9) + kAbsoluteTolerance)
        << context << ": lp cost " << reference.total_cost
        << " exceeds mcf cost " << heuristic.total_cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TeDifferentialLp, ::testing::ValuesIn(kSeeds));

TEST(TeDifferential, GreedyEnginesRespectAugmentedCapacities) {
  const te::SwanTe swan;
  const te::B4Te b4;
  const te::EcmpTe ecmp;
  const te::TeAlgorithm* engines[] = {&swan, &b4, &ecmp};
  const core::TrafficProportionalPenalty penalty;

  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng = util::Rng::stream(seed, 401);
    const graph::Graph base = prop::random_topology(rng);
    const te::TrafficMatrix demands = prop::random_demands(base, rng);

    // Roughly a third of the links currently support a higher ladder rate.
    std::vector<core::VariableLink> variable;
    std::vector<double> current_traffic(base.edge_count(), 0.0);
    for (std::size_t e = 0; e < base.edge_count(); ++e) {
      current_traffic[e] =
          rng.uniform(0.0, base.edge(graph::EdgeId{static_cast<std::int32_t>(
                                         e)}).capacity.value);
      if (!rng.bernoulli(0.35)) continue;
      const graph::EdgeId edge{static_cast<std::int32_t>(e)};
      variable.push_back(core::VariableLink{
          edge, util::Gbps{base.edge(edge).capacity.value +
                           (rng.bernoulli(0.5) ? 50.0 : 100.0)}});
    }

    const core::AugmentedTopology augmented = core::augment_topology(
        base, variable, penalty, current_traffic);

    for (const te::TeAlgorithm* engine : engines) {
      const te::FlowAssignment assignment =
          engine->solve(augmented.graph, demands);
      // check_flow_conservation re-derives per-edge load from the paths and
      // rejects any edge loaded above its (augmented) capacity.
      const prop::InvariantResult ok =
          prop::check_flow_conservation(augmented.graph, assignment);
      EXPECT_TRUE(ok.ok) << "seed " << seed << ", engine " << engine->name()
                         << ": " << ok.detail;
    }
  }
}

}  // namespace
}  // namespace rwc
