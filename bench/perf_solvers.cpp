// google-benchmark microbenchmarks: solver and abstraction scaling on
// Waxman random WANs (25..200 nodes). Establishes that the augmentation
// layer adds negligible cost on top of the TE solve itself.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "bench_common.hpp"
#include "core/augment.hpp"
#include "core/controller.hpp"
#include "core/translate.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/loop.hpp"
#include "dataplane/timeline.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "flow/graph_adapter.hpp"
#include "flow/maxflow.hpp"
#include "flow/mincost.hpp"
#include "graph/ksp.hpp"
#include "lp/simplex.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/loop_fixture.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "telemetry/analysis.hpp"
#include "util/rng.hpp"

namespace {

using namespace rwc;

graph::Graph make_topology(int nodes, std::uint64_t seed) {
  // Stream 0 of a seed is bit-identical to Rng(seed), so the topologies
  // match the pre-split benchmarks exactly.
  util::Rng rng = util::Rng::stream(seed, 0);
  return sim::waxman(nodes, rng);
}

std::vector<core::VariableLink> every_other_link(const graph::Graph& g) {
  std::vector<core::VariableLink> variable;
  for (graph::EdgeId e : g.edge_ids())
    if (e.value % 2 == 0)
      variable.push_back({e, g.edge(e).capacity + util::Gbps{100.0}});
  return variable;
}

void BM_MaxFlowDinic(benchmark::State& state) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    auto view = flow::make_network(g);
    benchmark::DoNotOptimize(
        flow::max_flow_dinic(view.net, 0, static_cast<int>(g.node_count()) - 1));
  }
  state.SetLabel(std::to_string(g.edge_count()) + " edges");
}
BENCHMARK(BM_MaxFlowDinic)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_MinCostMaxFlow(benchmark::State& state) {
  auto g = make_topology(static_cast<int>(state.range(0)), 2);
  util::Rng rng(3);
  for (graph::EdgeId e : g.edge_ids()) g.edge(e).cost = rng.uniform(0.0, 5.0);
  for (auto _ : state) {
    auto view = flow::make_network(g);
    benchmark::DoNotOptimize(flow::min_cost_max_flow(
        view.net, 0, static_cast<int>(g.node_count()) - 1));
  }
}
BENCHMARK(BM_MinCostMaxFlow)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_KShortestPaths(benchmark::State& state) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 4);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::k_shortest_paths(
        g, graph::NodeId{0},
        graph::NodeId{static_cast<std::int32_t>(g.node_count()) - 1}, 4));
}
BENCHMARK(BM_KShortestPaths)->Arg(25)->Arg(50)->Arg(100);

void BM_Augmentation(benchmark::State& state) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 5);
  const auto variable = every_other_link(g);
  const core::TrafficProportionalPenalty penalty;
  const std::vector<double> traffic(g.edge_count(), 20.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::augment_topology(g, variable, penalty, traffic));
  state.SetLabel(std::to_string(variable.size()) + " variable links");
}
BENCHMARK(BM_Augmentation)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// One MCF TE round with prefix reuse off, so every iteration times the
// cold min-cost kernel (docs/SOLVERS.md §1.4).
void BM_McfTeRound(benchmark::State& state) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 6);
  util::Rng rng(7);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{g.total_capacity().value / 3.0};
  gravity.sparsity = 0.9;  // a few dozen demands
  const auto demands = sim::gravity_matrix(g, gravity, rng);
  te::McfTe::Options options;
  options.prefix_reuse = false;
  const te::McfTe engine(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.solve(g, demands));
  state.SetLabel(std::to_string(demands.size()) + " demands");
}
BENCHMARK(BM_McfTeRound)->Arg(25)->Arg(50)->Arg(100);

void BM_AugmentSolveTranslate(benchmark::State& state) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 8);
  const auto variable = every_other_link(g);
  const core::TrafficProportionalPenalty penalty;
  util::Rng rng(9);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{g.total_capacity().value / 2.0};
  gravity.sparsity = 0.9;
  const auto demands = sim::gravity_matrix(g, gravity, rng);
  const te::McfTe engine;
  for (auto _ : state) {
    const auto augmented = core::augment_topology(g, variable, penalty);
    const auto assignment = engine.solve(augmented.graph, demands);
    benchmark::DoNotOptimize(
        core::translate_assignment(g, augmented, variable, assignment));
  }
}
BENCHMARK(BM_AugmentSolveTranslate)->Arg(25)->Arg(50)->Arg(100);

void BM_SwanLpRound(benchmark::State& state) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 10);
  util::Rng rng(11);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{g.total_capacity().value / 3.0};
  gravity.sparsity = 0.93;
  const auto demands = sim::gravity_matrix(g, gravity, rng);
  // Memo off: every iteration times the LP solves, not memo hits.
  te::SwanTe::Options options;
  options.lp_memo = false;
  const te::SwanTe engine(options);
  for (auto _ : state) benchmark::DoNotOptimize(engine.solve(g, demands));
  state.SetLabel(std::to_string(demands.size()) + " demands");
}
BENCHMARK(BM_SwanLpRound)->Arg(25)->Arg(50);

// Exact (sort-based HDR) per-link analysis over 30-day to 2.5-year traces.
telemetry::SnrTrace perf_trace(int days) {
  telemetry::SnrFleetGenerator::FleetParams params;
  params.fiber_count = 1;
  params.wavelengths_per_fiber = 1;
  params.duration = days * util::kDay;
  return telemetry::SnrFleetGenerator(params, 42).generate_trace(0, 0);
}

void BM_AnalyzeLinkExact(benchmark::State& state) {
  const auto trace = perf_trace(static_cast<int>(state.range(0)));
  const auto table = optical::ModulationTable::standard();
  for (auto _ : state)
    benchmark::DoNotOptimize(telemetry::analyze_link(trace, table));
  state.SetLabel(std::to_string(trace.size()) + " samples");
}
BENCHMARK(BM_AnalyzeLinkExact)->Arg(30)->Arg(180)->Arg(912);

// Controller-round setup shared by the pool-sweep and reuse variants:
// a loaded Waxman WAN with SNR headroom everywhere, so every round has
// variable links, upgrades and a real consolidation pass.
struct ControllerRoundFixture {
  graph::Graph g;
  te::TrafficMatrix demands;
  std::vector<util::Db> snr;

  explicit ControllerRoundFixture(int nodes) : g(make_topology(nodes, 6)) {
    util::Rng rng = util::Rng::stream(7, 0);
    sim::GravityParams gravity;
    gravity.total = util::Gbps{g.total_capacity().value / 2.0};
    gravity.sparsity = 0.9;
    demands = sim::gravity_matrix(g, gravity, rng);
    snr.assign(g.edge_count(), util::Db{20.0});
  }
};

// Full controller round (augment -> solve -> translate -> consolidate) at
// pool sizes 1..8. Prefix reuse off so the timing isolates the speculative-
// wave consolidation scaling; the chosen plan is identical at every size.
void BM_ControllerRound(benchmark::State& state) {
  const ControllerRoundFixture fixture(static_cast<int>(state.range(0)));
  te::McfTe::Options engine_options;
  engine_options.prefix_reuse = false;
  const te::McfTe engine(engine_options);
  exec::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  core::ControllerOptions options;
  options.pool = &pool;
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    core::DynamicCapacityController controller(
        fixture.g, optical::ModulationTable::standard(), engine, options);
    const auto report = controller.run_round(fixture.snr, fixture.demands);
    evaluations = report.stats.evaluations;
    benchmark::DoNotOptimize(report.total_routed.value);
  }
  state.SetLabel(std::to_string(state.range(1)) + " threads, " +
                 std::to_string(evaluations) + " evals");
}
BENCHMARK(BM_ControllerRound)
    ->Args({50, 1})
    ->Args({50, 2})
    ->Args({50, 4})
    ->Args({50, 8})
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({100, 8});

// The same round with the engine's default options: removed-edge prefix
// reuse on (docs/SOLVERS.md §1.1), so consolidation trials resume from the
// plan they test. A fresh engine per round keeps iterations independent.
void BM_ControllerRoundDefaults(benchmark::State& state) {
  const ControllerRoundFixture fixture(static_cast<int>(state.range(0)));
  exec::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  core::ControllerOptions options;
  options.pool = &pool;
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    const te::McfTe engine;
    core::DynamicCapacityController controller(
        fixture.g, optical::ModulationTable::standard(), engine, options);
    const auto report = controller.run_round(fixture.snr, fixture.demands);
    evaluations = report.stats.evaluations;
    benchmark::DoNotOptimize(report.total_routed.value);
  }
  state.SetLabel(std::to_string(state.range(1)) + " threads, " +
                 std::to_string(evaluations) + " evals");
}
BENCHMARK(BM_ControllerRoundDefaults)->Args({50, 1});

// A controller round without consolidation at pool size 1: augment, one
// solve and translate. The baseline the consolidation gate divides by
// (ROADMAP); prefix reuse is off, and it has no trials to serve anyway.
void BM_ControllerRoundUnconsolidated(benchmark::State& state) {
  const ControllerRoundFixture fixture(static_cast<int>(state.range(0)));
  te::McfTe::Options engine_options;
  engine_options.prefix_reuse = false;
  const te::McfTe engine(engine_options);
  exec::ThreadPool pool(1);
  core::ControllerOptions options;
  options.pool = &pool;
  options.consolidate = false;
  for (auto _ : state) {
    core::DynamicCapacityController controller(
        fixture.g, optical::ModulationTable::standard(), engine, options);
    benchmark::DoNotOptimize(
        controller.run_round(fixture.snr, fixture.demands).total_routed);
  }
}
BENCHMARK(BM_ControllerRoundUnconsolidated)->Arg(50)->Arg(100);

// Four-policy simulator sweep through sim::run_scenarios at pool sizes
// 1..8. Scenario results are positionally ordered and identical at every
// pool size.
void BM_ScenarioSweep(benchmark::State& state) {
  const graph::Graph topology = sim::abilene();
  util::Rng rng = util::Rng::stream(42, 1);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value / 2.0};
  const auto demands = sim::gravity_matrix(topology, gravity, rng);
  const te::McfTe engine;
  std::vector<sim::Scenario> scenarios;
  for (sim::CapacityPolicy policy :
       {sim::CapacityPolicy::kStatic, sim::CapacityPolicy::kStaticAggressive,
        sim::CapacityPolicy::kDynamic,
        sim::CapacityPolicy::kDynamicHitless}) {
    sim::SimulationConfig config;
    config.horizon = 6.0 * util::kHour;
    config.te_interval = 30.0 * util::kMinute;
    config.policy = policy;
    config.seed = 1701;
    scenarios.push_back({sim::to_string(policy), config});
  }
  exec::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto results =
        sim::run_scenarios(topology, engine, demands, scenarios, &pool);
    benchmark::DoNotOptimize(results.front().metrics.delivered_gbps_hours);
  }
  state.SetLabel(std::to_string(scenarios.size()) + " scenarios, " +
                 std::to_string(state.range(0)) + " threads");
}
BENCHMARK(BM_ScenarioSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One steady-state flowlet dataplane round (docs/DATAPLANE.md §2) on a
// run_xcheck-like fixture: a Waxman WAN, gravity demands at 0.4 load, the
// controller's first assignment (solved on an inline pool) and a flat
// capacity timeline. An untimed round first fills the pipelines, so each
// timed round replays the same installed plan over live queues, under
// `faults` (a fault-plan spec) when it is set.
void run_dataplane_rounds(benchmark::State& state, const char* faults) {
  const int nodes = static_cast<int>(state.range(0));
  util::Rng topo_rng = util::Rng::stream(1, 810);
  const graph::Graph topology = sim::waxman(nodes, topo_rng);
  util::Rng demand_rng = util::Rng::stream(1, 811);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value * 0.4};
  const te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, demand_rng);

  exec::ThreadPool pool(0);
  core::ControllerOptions options;
  options.pool = &pool;
  const te::McfTe engine;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, options);
  controller.run_round(
      std::vector<util::Db>(topology.edge_count(), util::Db{20.0}), demands);
  const te::FlowAssignment& assignment = controller.last_assignment();
  const std::span<const util::Gbps> configured =
      controller.configured_capacities();
  const std::vector<util::Gbps> caps(configured.begin(), configured.end());

  const dataplane::DataplaneConfig config;
  const dataplane::CapacityTimeline timeline = dataplane::build_timeline(
      caps, caps, nullptr, config.ticks_per_round, config.tick_seconds);
  dataplane::DataplaneSim sim(topology, demands.size(), config);
  std::optional<fault::ScopedPlan> armed;
  if (faults != nullptr) armed.emplace(fault::FaultPlan::parse(faults));
  benchmark::DoNotOptimize(sim.run_round(assignment, timeline).signature);
  for (auto _ : state) {
    const dataplane::RoundResult result = sim.run_round(assignment, timeline);
    benchmark::DoNotOptimize(result.signature);
    benchmark::DoNotOptimize(result.delivered_bytes);
  }
  const std::size_t flowlets = demands.size() * config.flowlets_per_od;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flowlets *
                                                    config.ticks_per_round));
  state.counters["classes"] =
      obs::Registry::global().gauge("dataplane.classes").value();
  state.SetLabel(std::to_string(flowlets) + " flowlets");
}

void BM_DataplaneRound(benchmark::State& state) {
  run_dataplane_rounds(state, nullptr);
}
BENCHMARK(BM_DataplaneRound)->Arg(10)->Arg(24);

// The flowlet-class kernel's worst case: every tick a delay fault hits one
// flowlet in 97, at an offset that moves with the tick, so each class
// sheds a member per hit and is down to single flowlets within the
// round; every install merges them back. The armed registry also costs
// one evaluation per flowlet per tick.
void BM_DataplaneRoundSplit(benchmark::State& state) {
  run_dataplane_rounds(state, "dataplane.packet%97@0:delay");
}
BENCHMARK(BM_DataplaneRoundSplit)->Arg(10);

// Steady closed-loop rounds (dataplane::ClosedLoop, docs/DATAPLANE.md §5)
// on the loop_dataplane workload's fixture at `nodes` nodes, in the
// golden loop rows' configuration (tests/support/loop_fixture.hpp):
// estimated demand fed by the dataplane's counters, the update stage at
// 10% headroom and the SNR walk, at seed 1. The cold first round runs
// untimed; the 32 timed iterations are the next 32 rounds, one benchmark
// pass. The count is fixed because the loop's state moves from round to
// round (the dataplane's classes fragment), so the mean depends on it.
void BM_ClosedLoopRound(benchmark::State& state) {
  const loop_fixture::Fixture fixture =
      loop_fixture::make_fixture(static_cast<int>(state.range(0)));
  exec::ThreadPool pool(0);
  const te::McfTe engine;
  dataplane::ClosedLoop loop(fixture.topology, fixture.intent, engine,
                             loop_fixture::loop_options(1, &pool));
  loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 1);
  loop.step(walk.next());
  for (auto _ : state)
    benchmark::DoNotOptimize(loop.step(walk.next()).result.signature);
  state.counters["classes"] =
      obs::Registry::global().gauge("dataplane.classes").value();
  state.SetLabel(std::to_string(fixture.topology.edge_count()) + " links, " +
                 std::to_string(fixture.intent.size()) + " ODs");
}
BENCHMARK(BM_ClosedLoopRound)
    ->Arg(12)
    ->Arg(24)
    ->Iterations(32)
    ->Unit(benchmark::kMillisecond);

void BM_SimplexDense(benchmark::State& state) {
  // Random feasible LP: n variables, n/2 constraints.
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(13);
  lp::LpProblem problem(lp::Sense::kMaximize);
  for (int v = 0; v < n; ++v)
    problem.add_variable(rng.uniform(0.5, 2.0), rng.uniform(5.0, 20.0));
  for (int r = 0; r < n / 2; ++r) {
    std::vector<lp::Term> terms;
    for (int v = 0; v < n; ++v)
      if (rng.bernoulli(0.3)) terms.push_back({v, rng.uniform(0.1, 1.0)});
    if (!terms.empty())
      problem.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                             rng.uniform(10.0, 50.0));
  }
  for (auto _ : state) benchmark::DoNotOptimize(problem.solve());
}
BENCHMARK(BM_SimplexDense)->Arg(50)->Arg(100)->Arg(200);

}  // namespace

// Expanded BENCHMARK_MAIN with `--json <path>` support: after the benchmark
// run, the solver/TE metrics the runs accumulated in the global
// obs::Registry (flow.*, lp.*, te.* — see docs/OBSERVABILITY.md) are dumped
// as machine-readable JSON for perf-trajectory tracking.
int main(int argc, char** argv) {
  rwc::bench::JsonExportGuard json_guard(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
