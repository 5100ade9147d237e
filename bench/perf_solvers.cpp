// google-benchmark microbenchmarks: solver and abstraction scaling on
// Waxman random WANs (25..200 nodes). Establishes that the augmentation
// layer adds negligible cost on top of the TE solve itself.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "obs/registry.hpp"
#include "core/augment.hpp"
#include "core/controller.hpp"
#include "core/translate.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/timeline.hpp"
#include "exec/thread_pool.hpp"
#include "flow/graph_adapter.hpp"
#include "flow/maxflow.hpp"
#include "flow/mincost.hpp"
#include "graph/ksp.hpp"
#include "lp/simplex.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/streaming.hpp"
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

void mcf_te_round(benchmark::State& state, const te::McfTe::Options& options) {
  const auto g = make_topology(static_cast<int>(state.range(0)), 6);
  util::Rng rng(7);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{g.total_capacity().value / 3.0};
  gravity.sparsity = 0.9;  // a few dozen demands
  const auto demands = sim::gravity_matrix(g, gravity, rng);
  const te::McfTe engine(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.solve(g, demands));
  state.SetLabel(std::to_string(demands.size()) + " demands");
}

// The engine's default options: from the second iteration on, every
// demand is an exact replay of the first iteration's recording.
void BM_McfTeRound(benchmark::State& state) {
  mcf_te_round(state, te::McfTe::Options{});
}
BENCHMARK(BM_McfTeRound)->Arg(25)->Arg(50)->Arg(100);

// The same round with warm starts off, so every iteration times the cold
// min-cost kernel (docs/SOLVERS.md §1.5).
void BM_McfTeRoundCold(benchmark::State& state) {
  te::McfTe::Options options;
  options.warm_start = false;
  mcf_te_round(state, options);
}
BENCHMARK(BM_McfTeRoundCold)->Arg(25)->Arg(50)->Arg(100);

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
  const te::SwanTe engine;
  for (auto _ : state) benchmark::DoNotOptimize(engine.solve(g, demands));
  state.SetLabel(std::to_string(demands.size()) + " demands");
}
BENCHMARK(BM_SwanLpRound)->Arg(25)->Arg(50);

// Exact (sort-based HDR) vs streaming (P-square) per-link analysis.
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

void BM_AnalyzeLinkStreaming(benchmark::State& state) {
  const auto trace = perf_trace(static_cast<int>(state.range(0)));
  const auto table = optical::ModulationTable::standard();
  for (auto _ : state) {
    telemetry::StreamingLinkAnalyzer analyzer;
    analyzer.add(trace);
    benchmark::DoNotOptimize(analyzer.stats(table));
  }
  state.SetLabel(std::to_string(trace.size()) + " samples");
}
BENCHMARK(BM_AnalyzeLinkStreaming)->Arg(30)->Arg(180)->Arg(912);

// Controller-round setup shared by the pool-sweep and warm-start variants:
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
// pool sizes 1..8. Warm starts off so the timing isolates the speculative-
// wave consolidation scaling; the chosen plan is identical at every size.
void BM_ControllerRound(benchmark::State& state) {
  const ControllerRoundFixture fixture(static_cast<int>(state.range(0)));
  te::McfTe::Options engine_options;
  engine_options.warm_start = false;
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

// The same round with the engine's default options: warm start, partial
// repair and removed-edge prefix reuse on (docs/SOLVERS.md §1.3), so
// consolidation trials resume from the plan they test. A fresh engine per
// round keeps iterations independent.
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

// Warm-started vs cold min-cost solves across repeated controller rounds at
// pool size 1: the engine (and its replay cache) persists across
// iterations, so every round after the first hits recorded augmenting-path
// sequences. Identical plans either way; only the time differs.
// Consolidation is off so the rounds exercise the steady-state re-solve
// path the warm start targets (recurring per-demand networks); trial
// evaluations during consolidation each build one-shot networks that no
// bounded cache can usefully retain (docs/CONCURRENCY.md, "Warm starts").
void BM_ControllerRoundWarm(benchmark::State& state) {
  const ControllerRoundFixture fixture(static_cast<int>(state.range(0)));
  te::McfTe::Options engine_options;
  engine_options.warm_start = state.range(1) != 0;
  const te::McfTe engine(engine_options);
  exec::ThreadPool pool(1);
  core::ControllerOptions options;
  options.pool = &pool;
  options.consolidate = false;
  {
    // Untimed warm-up round: populates the engine's replay cache with this
    // round's augmenting-path recordings (steady-state controller rounds
    // re-solve recurring networks). A no-op for the cold arm.
    core::DynamicCapacityController controller(
        fixture.g, optical::ModulationTable::standard(), engine, options);
    benchmark::DoNotOptimize(
        controller.run_round(fixture.snr, fixture.demands).total_routed);
  }
  for (auto _ : state) {
    core::DynamicCapacityController controller(
        fixture.g, optical::ModulationTable::standard(), engine, options);
    benchmark::DoNotOptimize(
        controller.run_round(fixture.snr, fixture.demands).total_routed);
  }
  state.SetLabel(state.range(1) != 0 ? "warm" : "cold");
}
BENCHMARK(BM_ControllerRoundWarm)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({100, 0})
    ->Args({100, 1});

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
// timed round replays the same installed plan over live queues.
void BM_DataplaneRound(benchmark::State& state) {
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
  state.SetLabel(std::to_string(flowlets) + " flowlets");
}
BENCHMARK(BM_DataplaneRound)->Arg(10)->Arg(24);

/// Solver-ladder microbenchmark (docs/SOLVERS.md): one recorded mincost
/// solve, re-served three ways. kReplay replays it exactly on the pristine
/// network (the memo rung). kRepair steps `dirty` forward arcs OFF the
/// recorded augmenting paths up 25% — support-preserving, so every
/// iteration verifies on the repair rung with zero rollbacks — and solves
/// the perturbed network warm. kCold solves the same perturbed network
/// with the warm path disabled (the full rung).
enum class RepairArm { kReplay, kRepair, kCold };

void partial_repair_bench(benchmark::State& state, std::size_t dirty,
                          RepairArm arm) {
  auto g = make_topology(100, 17);
  util::Rng rng(18);
  for (graph::EdgeId e : g.edge_ids()) g.edge(e).cost = rng.uniform(0.0, 5.0);
  const int sink = static_cast<int>(g.node_count()) - 1;

  auto view = flow::make_network(g);
  const std::vector<double> pristine = view.net.residuals();
  flow::MinCostWarmStart recorded;
  flow::min_cost_max_flow(view.net, 0, sink,
                          std::numeric_limits<double>::infinity(), &recorded);

  std::vector<bool> on_path(view.net.arc_count(), false);
  for (const auto& aug : recorded.augmentations)
    for (const int arc : aug.arcs) {
      on_path[static_cast<std::size_t>(arc)] = true;
      on_path[static_cast<std::size_t>(arc ^ 1)] = true;
    }
  std::vector<double> perturbed = pristine;
  std::size_t dirtied = 0;
  for (std::size_t arc = 0; arc + 1 < perturbed.size() && dirtied < dirty;
       arc += 2) {
    if (on_path[arc] || on_path[arc + 1] || perturbed[arc] <= 0.0) continue;
    perturbed[arc] *= 1.25;
    ++dirtied;
  }

  const std::vector<double>& start =
      arm == RepairArm::kReplay ? pristine : perturbed;
  auto& registry = obs::Registry::global();
  const std::uint64_t repairs0 =
      registry.counter("solver.partial_repairs").value();
  const std::uint64_t rollbacks0 =
      registry.counter("solver.partial_rollbacks").value();

  flow::MinCostWarmStart warm;
  for (auto _ : state) {
    // A successful repair rewrites the recording for the perturbed
    // network, so the pre-iteration reset (untimed) is what keeps every
    // iteration on the same ladder rung.
    state.PauseTiming();
    view.net.restore_residuals(start);
    if (arm != RepairArm::kCold) warm = recorded;
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::min_cost_max_flow(
        view.net, 0, sink, std::numeric_limits<double>::infinity(),
        arm == RepairArm::kCold ? nullptr : &warm));
  }

  const auto per_iter = [&](std::uint64_t delta) {
    return static_cast<double>(delta) /
           static_cast<double>(state.iterations());
  };
  state.counters["dirty_arcs"] = static_cast<double>(dirtied);
  state.counters["repairs/iter"] =
      per_iter(registry.counter("solver.partial_repairs").value() - repairs0);
  state.counters["rollbacks/iter"] = per_iter(
      registry.counter("solver.partial_rollbacks").value() - rollbacks0);
  state.SetLabel(std::to_string(view.net.arc_count()) + " arcs");
}

void BM_MinCostExactReplay(benchmark::State& state) {
  partial_repair_bench(state, 0, RepairArm::kReplay);
}
BENCHMARK(BM_MinCostExactReplay);

void BM_MinCostPartialRepair(benchmark::State& state) {
  partial_repair_bench(state, static_cast<std::size_t>(state.range(0)),
                       RepairArm::kRepair);
}
BENCHMARK(BM_MinCostPartialRepair)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MinCostPerturbedCold(benchmark::State& state) {
  partial_repair_bench(state, static_cast<std::size_t>(state.range(0)),
                       RepairArm::kCold);
}
BENCHMARK(BM_MinCostPerturbedCold)->Arg(4);

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
  // `--perturb k`: register an extra BM_MinCostPartialRepair instance at
  // exactly k dirty links, alongside the built-in 1/2/4/8 sweep. Stripped
  // before google-benchmark sees the argument list.
  int perturb = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--perturb") != 0) continue;
    perturb = std::atoi(argv[i + 1]);
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    break;
  }
  static std::string perturb_name;
  if (perturb > 0) {
    perturb_name = "BM_MinCostPartialRepair/perturb:" + std::to_string(perturb);
    benchmark::RegisterBenchmark(
        perturb_name.c_str(),
        [perturb](benchmark::State& state) {
          partial_repair_bench(state, static_cast<std::size_t>(perturb),
                               RepairArm::kRepair);
        });
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
