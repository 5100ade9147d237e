// LP memo (docs/SOLVERS.md): a solve through an LpMemo must be bit-identical
// to a cold solve — an exact-fingerprint hit returns the stored solution,
// and any change to the problem misses and solves cold.
#include <gtest/gtest.h>

#include <vector>

#include "graph/graph.hpp"
#include "lp/simplex.hpp"
#include "obs/registry.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"

namespace rwc::lp {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

void expect_bit_identical(const LpSolution& a, const LpSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.values, b.values);
}

/// A small allocation LP with >= rows (phase-1 + artificials), an equality,
/// and a finite upper bound — every structural feature the solver lowers.
LpProblem make_lp(double cap_x, double cap_shared, double floor_y) {
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable(3.0, 15.0);
  const int y = p.add_variable(2.0);
  const int z = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEqual, cap_x);
  p.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Relation::kLessEqual,
                   cap_shared);
  p.add_constraint({{y, 1.0}}, Relation::kGreaterEqual, floor_y);
  p.add_constraint({{y, 1.0}, {z, -1.0}}, Relation::kEqual, 2.0);
  return p;
}

TEST(LpWarm, MemoReturnsRecordedSolutionBitwise) {
  LpMemo memo;
  LpProblem p = make_lp(5.0, 20.0, 3.0);
  const LpSolution cold = p.solve();
  ASSERT_TRUE(cold.optimal());

  const LpSolution first = p.solve(&memo);
  expect_bit_identical(cold, first);

  const std::uint64_t hits_before = counter_value("lp.memo_hits");
  const LpSolution memo_hit = p.solve(&memo);
  expect_bit_identical(cold, memo_hit);
  EXPECT_EQ(counter_value("lp.memo_hits"), hits_before + 1);
}

TEST(LpWarm, StructureChangeMissesAndRerecords) {
  LpMemo memo;
  (void)make_lp(5.0, 20.0, 3.0).solve(&memo);

  // An extra row, and separately an rhs-only change: both are new
  // problems to the memo, solved cold and then stored.
  LpProblem different = make_lp(5.0, 20.0, 3.0);
  different.add_constraint({{2, 1.0}}, Relation::kLessEqual, 7.0);
  LpProblem rhs_only = make_lp(4.0, 18.0, 2.5);
  const std::uint64_t misses_before = counter_value("lp.memo_misses");
  expect_bit_identical(different.solve(), different.solve(&memo));
  expect_bit_identical(rhs_only.solve(), rhs_only.solve(&memo));
  EXPECT_EQ(counter_value("lp.memo_misses"), misses_before + 2);
  EXPECT_EQ(memo.size(), 3u);
}

TEST(LpMemo, StoresFindsAndEvictsFifo) {
  const auto solution = [](double objective) {
    LpSolution out;
    out.status = LpStatus::kOptimal;
    out.objective = objective;
    return out;
  };
  LpMemo memo(2);
  memo.store(1, solution(1.0));
  memo.store(2, solution(2.0));
  EXPECT_EQ(memo.size(), 2u);
  ASSERT_NE(memo.find(1), nullptr);

  // Replacing an entry does not consume a FIFO slot.
  memo.store(1, solution(9.0));
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(1)->objective, 9.0);

  memo.store(3, solution(3.0));  // evicts 1 (oldest insertion)
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(1), nullptr);
  ASSERT_NE(memo.find(2), nullptr);
  ASSERT_NE(memo.find(3), nullptr);

  LpMemo clamped(0);  // a zero bound still holds one entry
  clamped.store(1, solution(1.0));
  clamped.store(2, solution(2.0));
  EXPECT_EQ(clamped.size(), 1u);
  EXPECT_NE(clamped.find(2), nullptr);
}

TEST(SwanTeWarm, PerturbedRoundMatchesEngineWithoutWarmBasis) {
  // End-to-end through SWAN: across a capacity perturbation every LP is new
  // to the memo, and a repeat of the perturbed round is served from it.
  // Both must route identically to an engine with the memo off.
  util::Rng topo_rng = util::Rng::stream(31, 0);
  const graph::Graph base = sim::waxman(12, topo_rng);
  util::Rng demand_rng = util::Rng::stream(31, 1);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{base.total_capacity().value / 3.0};
  gravity.sparsity = 0.8;
  const te::TrafficMatrix demands =
      sim::gravity_matrix(base, gravity, demand_rng);

  graph::Graph perturbed;
  for (graph::NodeId node : base.node_ids())
    perturbed.add_node(base.node_name(node));
  for (graph::EdgeId edge : base.edge_ids()) {
    const graph::Edge& e = base.edge(edge);
    const util::Gbps capacity =
        edge.value == 0 ? util::Gbps{e.capacity.value * 0.8} : e.capacity;
    perturbed.add_edge(e.src, e.dst, capacity, e.cost, e.weight);
  }

  te::SwanTe::Options cold_options;
  cold_options.lp_memo = false;
  const te::SwanTe cold_engine(cold_options);
  te::SwanTe::Options memo_options;
  memo_options.lp_memo = true;
  const te::SwanTe memo_engine(memo_options);

  (void)cold_engine.solve(base, demands);
  (void)memo_engine.solve(base, demands);

  const std::uint64_t misses_before = counter_value("lp.memo_misses");
  const auto cold = cold_engine.solve(perturbed, demands);
  const auto first = memo_engine.solve(perturbed, demands);
  EXPECT_GT(counter_value("lp.memo_misses"), misses_before);
  const std::uint64_t hits_before = counter_value("lp.memo_hits");
  const auto warm = memo_engine.solve(perturbed, demands);
  EXPECT_GT(counter_value("lp.memo_hits"), hits_before);
  EXPECT_EQ(first.edge_load_gbps, warm.edge_load_gbps);

  ASSERT_EQ(warm.total_routed.value, cold.total_routed.value);
  ASSERT_EQ(warm.edge_load_gbps, cold.edge_load_gbps);
  ASSERT_EQ(warm.routings.size(), cold.routings.size());
  for (std::size_t d = 0; d < warm.routings.size(); ++d) {
    ASSERT_EQ(warm.routings[d].paths.size(), cold.routings[d].paths.size());
    for (std::size_t p = 0; p < warm.routings[d].paths.size(); ++p) {
      EXPECT_EQ(warm.routings[d].paths[p].second.value,
                cold.routings[d].paths[p].second.value);
      EXPECT_EQ(warm.routings[d].paths[p].first.edges,
                cold.routings[d].paths[p].first.edges);
    }
  }
}

}  // namespace
}  // namespace rwc::lp
