// Integration tests for the observability instrumentation: a controller
// round must populate RoundReport::stats (stage timings, evaluation and
// solver counters) and feed the contractual metrics in the global registry
// (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "sim/topology.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"

namespace rwc::core {
namespace {

using util::Db;
using namespace util::literals;

std::vector<Db> uniform_snr(const graph::Graph& g, double db) {
  return std::vector<Db>(g.edge_count(), Db{db});
}

ControllerOptions no_margin_options() {
  ControllerOptions options;
  options.snr_margin = 0.0_dB;
  return options;
}

TEST(ObsIntegration, McfRoundPopulatesStageTimingsAndSolverCounters) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 80_Gbps, 0}};

  auto& registry = obs::Registry::global();
  const std::uint64_t rounds_before =
      registry.counter("controller.rounds").value();
  const std::uint64_t round_hist_before =
      registry.histogram("controller.round.seconds").count();
  const std::uint64_t te_solves_before =
      registry.counter("te.mcf.solves").value();

  const auto report = controller.run_round(uniform_snr(base, 20.0), demands);

  // Every stage of the pipeline ran and was timed.
  const auto& stats = report.stats;
  EXPECT_GT(stats.augment_seconds, 0.0);
  EXPECT_GT(stats.solve_seconds, 0.0);
  EXPECT_GT(stats.translate_seconds, 0.0);
  EXPECT_GT(stats.total_seconds, 0.0);
  // Stage buckets are parts of the whole round.
  EXPECT_LE(stats.augment_seconds + stats.solve_seconds +
                stats.translate_seconds,
            stats.total_seconds);
  EXPECT_GE(stats.evaluations, 1u);

  // The MCF engine drives the min-cost flow solver, not the simplex.
  EXPECT_GT(stats.mincost_runs, 0u);
  EXPECT_GT(stats.mincost_paths, 0u);
  EXPECT_EQ(stats.simplex_solves, 0u);

  // The round also landed in the global registry's contractual metrics.
  EXPECT_EQ(registry.counter("controller.rounds").value(),
            rounds_before + 1);
  EXPECT_EQ(registry.histogram("controller.round.seconds").count(),
            round_hist_before + 1);
  EXPECT_GT(registry.counter("te.mcf.solves").value(), te_solves_before);
  EXPECT_GT(registry.histogram("controller.round.solve.seconds").count(), 0u);
}

TEST(ObsIntegration, SwanRoundCountsSimplexWork) {
  graph::Graph base = sim::fig7_square();
  te::SwanTe engine;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine,
      no_margin_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("D"), 120_Gbps, 0}};

  const auto report = controller.run_round(uniform_snr(base, 20.0), demands);

  // SWAN's LP formulation exercises the simplex, not the min-cost solver.
  EXPECT_GT(report.stats.simplex_solves, 0u);
  EXPECT_GT(report.stats.simplex_iterations, 0u);
  EXPECT_EQ(report.stats.mincost_runs, 0u);
  EXPECT_GT(report.stats.solve_seconds, 0.0);
  EXPECT_GT(obs::Registry::global()
                .histogram("te.swan.solve_seconds")
                .count(),
            0u);
}

TEST(ObsIntegration, ConsolidationTimeIsAttributed) {
  // Two disjoint links both need an upgrade, so the consolidation post-pass
  // must run trial evaluations (and reject them): the extra work shows up in
  // `evaluations` and `consolidate_seconds`.
  graph::Graph base;
  const auto a = base.add_node("A");
  const auto b = base.add_node("B");
  const auto c = base.add_node("C");
  const auto d = base.add_node("D");
  base.add_edge(a, b, 100_Gbps);
  base.add_edge(c, d, 100_Gbps);
  te::McfTe engine;
  ControllerOptions options = no_margin_options();
  options.consolidate = true;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine, options);

  const te::TrafficMatrix demands = {{a, b, 150_Gbps, 0},
                                     {c, d, 150_Gbps, 0}};
  const auto report = controller.run_round(uniform_snr(base, 20.0), demands);
  // Both upgrades are load-bearing, so consolidation keeps them...
  EXPECT_EQ(report.plan.upgrades.size(), 2u);
  // ...but its trial evaluations are visible in the stats.
  EXPECT_GT(report.stats.evaluations, 1u);
  EXPECT_GT(report.stats.consolidate_seconds, 0.0);
  // Trial time counts under consolidate only, so the stage buckets are
  // exclusive and never sum past the round's wall time.
  const auto& stats = report.stats;
  EXPECT_LE(stats.augment_seconds + stats.solve_seconds +
                stats.translate_seconds + stats.consolidate_seconds +
                stats.update_seconds,
            stats.total_seconds);
}

}  // namespace
}  // namespace rwc::core
