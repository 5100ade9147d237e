// Removed-edge prefix reuse in te::McfTe (docs/SOLVERS.md, "Removed-edge
// prefix reuse"): a solve of the same demands on a traced graph with edges
// removed copies the routing of every demand served before the first one
// whose search improved a label through a removed edge. Every case here
// compares the resumed solve bit for bit with a cold engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "exec/thread_pool.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "prop/invariants.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/assignment_bits.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc::te {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Gbps;

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Prefix reuse on explicitly, whatever the environment.
McfTe::Options traced_options() {
  McfTe::Options options;
  options.prefix_reuse = true;
  return options;
}

McfTe::Options cold_options() {
  McfTe::Options options;
  options.prefix_reuse = false;
  return options;
}

/// `graph` without the edges in `removed`, the rest in their order.
graph::Graph without(const graph::Graph& graph,
                     const std::set<std::int32_t>& removed) {
  graph::Graph out;
  for (NodeId node : graph.node_ids()) out.add_node(graph.node_name(node));
  for (EdgeId edge : graph.edge_ids()) {
    if (removed.contains(edge.value)) continue;
    const graph::Edge& e = graph.edge(edge);
    out.add_edge(e.src, e.dst, e.capacity, e.cost, e.weight);
  }
  return out;
}

/// Two demands into B: the cheap A->B edge saturates during the second,
/// whose next search then improves B's label through the pricey parallel
/// edge (e3) before the A-C-B detour beats it. Edge ids:
///   e0 A->B cap 10 cost 1    e1 A->C cap 10 cost 5   e2 C->B cap 10 cost 1
///   e3 A->B cap 10 cost 10   e4 B->A cap 10 cost 1 (never improves A)
///   e5 S->A cap 100 cost 0
/// Serve order: d0 (A->B 5, prio 2), d1 (S->B 10, prio 1), d2 (A->C 2).
struct HandBuilt {
  graph::Graph graph;
  TrafficMatrix demands;
};

HandBuilt hand_built() {
  HandBuilt fixture;
  graph::Graph& g = fixture.graph;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  g.add_edge(a, b, Gbps{10.0}, 1.0);
  g.add_edge(a, c, Gbps{10.0}, 5.0);
  g.add_edge(c, b, Gbps{10.0}, 1.0);
  g.add_edge(a, b, Gbps{10.0}, 10.0);
  g.add_edge(b, a, Gbps{10.0}, 1.0);
  const NodeId s = g.add_node("S");
  g.add_edge(s, a, Gbps{100.0}, 0.0);
  fixture.demands = {{a, c, Gbps{2.0}, 0},
                     {a, b, Gbps{5.0}, 2},
                     {s, b, Gbps{10.0}, 1}};
  return fixture;
}

struct ResumeCounts {
  std::uint64_t resumes = 0;
  std::uint64_t reused = 0;
  std::uint64_t mincost_runs = 0;
};

/// Solves `graph` on `engine`, checks it against a cold engine bitwise and
/// returns what the prefix rung did.
ResumeCounts solve_and_check(const McfTe& engine, const graph::Graph& graph,
                             const TrafficMatrix& demands,
                             const std::string& context) {
  const std::uint64_t resumes = counter_value("solver.trace_resumes");
  const std::uint64_t reused = counter_value("solver.trace_reused_demands");
  const std::uint64_t runs = counter_value("flow.mincost.runs");
  const FlowAssignment got = engine.solve(graph, demands);
  const ResumeCounts counts{
      counter_value("solver.trace_resumes") - resumes,
      counter_value("solver.trace_reused_demands") - reused,
      counter_value("flow.mincost.runs") - runs};
  const McfTe cold(cold_options());
  expect_bitwise_equal(cold.solve(graph, demands), got, context);
  return counts;
}

TEST(McfTePrefixReuse, PrefixEndsAtFirstDemandThatImprovedThroughRemovedEdge) {
  const HandBuilt fixture = hand_built();
  const McfTe engine(traced_options());
  const ResumeCounts reference =
      solve_and_check(engine, fixture.graph, fixture.demands, "reference");
  EXPECT_EQ(reference.resumes, 0u);
  EXPECT_EQ(reference.mincost_runs, 3u);

  // e3 first improved a label during d1 (serve position 1): only d0 is
  // copied, d1 and d2 solve.
  const ResumeCounts drop_e3 = solve_and_check(
      engine, without(fixture.graph, {3}), fixture.demands, "without e3");
  EXPECT_EQ(drop_e3.resumes, 1u);
  EXPECT_EQ(drop_e3.reused, 1u);
  EXPECT_EQ(drop_e3.mincost_runs, 2u);

  // e4 never improved a label: the whole routing is copied.
  const McfTe fresh(traced_options());
  solve_and_check(fresh, fixture.graph, fixture.demands, "reference");
  const ResumeCounts drop_e4 = solve_and_check(
      fresh, without(fixture.graph, {4}), fixture.demands, "without e4");
  EXPECT_EQ(drop_e4.resumes, 1u);
  EXPECT_EQ(drop_e4.reused, 3u);
  EXPECT_EQ(drop_e4.mincost_runs, 0u);

  // e0 and e1 were improved through by d0 itself: nothing to copy.
  const McfTe third(traced_options());
  solve_and_check(third, fixture.graph, fixture.demands, "reference");
  const ResumeCounts drop_e0 = solve_and_check(
      third, without(fixture.graph, {0}), fixture.demands, "without e0");
  EXPECT_EQ(drop_e0.resumes, 0u);
  EXPECT_EQ(drop_e0.mincost_runs, 3u);
}

TEST(McfTePrefixReuse, IneligibleSolvesRunThePlainLadder) {
  const HandBuilt fixture = hand_built();
  const graph::Graph reduced = without(fixture.graph, {4});

  // Identical inputs remove no edge.
  {
    const McfTe engine(traced_options());
    solve_and_check(engine, fixture.graph, fixture.demands, "reference");
    EXPECT_EQ(solve_and_check(engine, fixture.graph, fixture.demands,
                              "identical")
                  .resumes,
              0u);
  }
  // Other demands, or a changed (not removed) edge, do not embed.
  {
    const McfTe engine(traced_options());
    solve_and_check(engine, fixture.graph, fixture.demands, "reference");
    TrafficMatrix other = fixture.demands;
    other[0].volume = Gbps{3.0};
    EXPECT_EQ(solve_and_check(engine, reduced, other, "other demands").resumes,
              0u);
    graph::Graph changed = reduced;
    changed.edge(EdgeId{1}).capacity = Gbps{9.0};
    EXPECT_EQ(solve_and_check(engine, changed, fixture.demands, "changed edge")
                  .resumes,
              0u);
  }
  // A removed negative-cost edge could flip the potential set-up.
  {
    graph::Graph negative = fixture.graph;
    negative.edge(EdgeId{4}).cost = -0.5;
    const McfTe engine(traced_options());
    solve_and_check(engine, negative, fixture.demands, "reference");
    EXPECT_EQ(solve_and_check(engine, without(negative, {4}),
                              fixture.demands, "without negative e4")
                  .resumes,
              0u);
  }
  // The rung's own switch turns it off.
  {
    const McfTe engine(cold_options());
    solve_and_check(engine, fixture.graph, fixture.demands, "reference");
    EXPECT_EQ(solve_and_check(engine, reduced, fixture.demands,
                              "prefix_reuse off")
                  .resumes,
              0u);
  }
  // Under an armed fault plan traces are neither used...
  const auto armed = [] {
    return fault::FaultPlan::parse("core.snr%1000@999:drop");
  };
  {
    const McfTe engine(traced_options());
    solve_and_check(engine, fixture.graph, fixture.demands, "reference");
    const fault::ScopedPlan plan(armed());
    EXPECT_EQ(solve_and_check(engine, reduced, fixture.demands, "armed")
                  .resumes,
              0u);
  }
  // ...nor recorded.
  {
    const McfTe engine(traced_options());
    {
      const fault::ScopedPlan plan(armed());
      solve_and_check(engine, fixture.graph, fixture.demands, "armed");
    }
    EXPECT_EQ(solve_and_check(engine, reduced, fixture.demands, "disarmed")
                  .resumes,
              0u);
  }
}

TEST(McfTePrefixReuse, RandomRemovalsMatchColdSolveBitwise) {
  std::size_t strict_prefixes = 0;
  std::size_t two_trace_references = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng = util::Rng::stream(seed, 0x50524658);
    const auto nodes = static_cast<int>(rng.uniform_int(4, 8));
    graph::Graph graph;
    for (int n = 0; n < nodes; ++n) graph.add_node();
    const auto edges = rng.uniform_int(nodes, 3 * nodes);
    for (std::int64_t i = 0; i < edges; ++i) {
      const auto src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      auto dst = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 2));
      if (dst >= src) ++dst;
      // Edges up the node order may cost -1..5; edges down it cost at
      // least 10, so no cycle (at most 7 edges up) has negative cost.
      const double cost =
          src < dst ? static_cast<double>(rng.uniform_int(-1, 5))
                    : static_cast<double>(rng.uniform_int(10, 20));
      graph.add_edge(NodeId{src}, NodeId{dst},
                     Gbps{static_cast<double>(rng.uniform_int(1, 20))}, cost,
                     rng.uniform(0.5, 2.0));
    }
    TrafficMatrix demands;
    const auto count = rng.uniform_int(2, 6);
    for (std::int64_t i = 0; i < count; ++i) {
      const auto src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      auto dst = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 2));
      if (dst >= src) ++dst;
      demands.push_back({NodeId{src}, NodeId{dst},
                         Gbps{rng.uniform(1.0, 15.0)},
                         static_cast<int>(rng.uniform_int(0, 2))});
    }

    const McfTe engine(traced_options());
    const std::string context = "seed " + std::to_string(seed);
    if (rng.bernoulli(0.5)) {
      // A second trace in the store: a solve of the same structure with
      // edge 0's capacity changed. A trial that drops edge 0 embeds in it
      // too, so the store must pick a sound prefix among both traces.
      graph::Graph perturbed = graph;
      graph::Edge& edge = perturbed.edge(EdgeId{0});
      edge.capacity = Gbps{edge.capacity.value + 1.0};
      solve_and_check(engine, perturbed, demands, context + ", perturbed");
      ++two_trace_references;
    }
    solve_and_check(engine, graph, demands, context + ", reference");

    for (int trial = 0; trial < 4; ++trial) {
      std::set<std::int32_t> removed;
      const auto drop = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < drop; ++i)
        removed.insert(static_cast<std::int32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edges) - 1)));
      const ResumeCounts counts = solve_and_check(
          engine, without(graph, removed), demands,
          context + ", trial " + std::to_string(trial));
      if (counts.resumes == 1 && counts.reused > 0 &&
          counts.reused < demands.size())
        ++strict_prefixes;
    }
  }
  // Vacuity guard: the property must have exercised real partial copies.
  EXPECT_GE(strict_prefixes, 10u);
  EXPECT_GT(two_trace_references, 0u);
}

/// Weather rounds on a 40-node WAN: each round dips a fresh 15% of links
/// (both directions) to 5-10 dB and clears the previous round's, so every
/// round solves and consolidates.
std::vector<prop::RoundSignature> weather_rounds(const McfTe& engine,
                                                 exec::ThreadPool& pool,
                                                 int rounds) {
  util::Rng rng = util::Rng::stream(0x5745, 40);
  const graph::Graph topology = sim::waxman(40, rng);
  sim::GravityParams gravity;
  gravity.total = Gbps{topology.total_capacity().value * 0.3};
  gravity.sparsity = 0.91;
  const TrafficMatrix demands = sim::gravity_matrix(topology, gravity, rng);

  core::ControllerOptions options;
  options.pool = &pool;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, options);
  util::Rng weather = util::Rng::stream(0x5745, 41);
  const std::size_t links = topology.edge_count() / 2;
  std::vector<util::Db> snr(topology.edge_count(), util::Db{15.0});
  std::vector<std::size_t> dipped;
  std::vector<prop::RoundSignature> signatures;
  for (int round = 0; round < rounds; ++round) {
    for (const std::size_t link : dipped)
      snr[2 * link] = snr[2 * link + 1] = util::Db{15.0};
    dipped.clear();
    for (std::size_t i = 0; i < links * 15 / 100; ++i) {
      const auto link = static_cast<std::size_t>(
          weather.uniform_int(0, static_cast<std::int64_t>(links) - 1));
      snr[2 * link] = snr[2 * link + 1] = util::Db{weather.uniform(5.0, 10.0)};
      dipped.push_back(link);
    }
    signatures.push_back(
        prop::signature_of(controller.run_round(snr, demands)));
  }
  return signatures;
}

TEST(McfTePrefixReuse, WeatherRoundsMatchPartialOffAtEveryPoolSize) {
  constexpr int kRounds = 4;
  exec::ThreadPool serial(0);
  const std::vector<prop::RoundSignature> expected =
      weather_rounds(McfTe(cold_options()), serial, kRounds);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    const std::uint64_t resumes = counter_value("solver.trace_resumes");
    const std::vector<prop::RoundSignature> got =
        weather_rounds(McfTe(traced_options()), pool, kRounds);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      const prop::InvariantResult check = prop::check_signatures_equal(
          expected[r], got[r],
          std::to_string(threads) + " threads, round " + std::to_string(r));
      EXPECT_TRUE(check.ok) << check.detail;
    }
    // The comparison means something only if trials resumed.
    EXPECT_GT(counter_value("solver.trace_resumes"), resumes)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace rwc::te
