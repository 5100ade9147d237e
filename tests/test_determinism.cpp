// Pool-size invariance: the parallel hot paths (speculative-wave
// consolidation, scenario sweeps) must produce bit-identical results at
// every pool size, including the serial pool, whose one-trial waves are the
// serial decision sequence. The signature extraction and comparison live in
// tests/prop/invariants.hpp, shared with the property harness (which
// re-checks the same contract under active fault plans).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/controller.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "optical/modulation.hpp"
#include "prop/invariants.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

struct RoundOutcome {
  prop::RoundSignature signature;
  std::uint64_t evaluations = 0;
};

/// One controller round on a WAN loaded to `load` of its capacity with SNR
/// headroom everywhere, so the consolidation pass has real candidates to
/// try.
RoundOutcome run_controller_round(const te::TeAlgorithm& engine,
                                  exec::ThreadPool& pool, double load = 0.5,
                                  bool consolidate = true) {
  util::Rng topo_rng = util::Rng::stream(21, 0);
  const graph::Graph g = sim::waxman(16, topo_rng);
  util::Rng demand_rng = util::Rng::stream(21, 1);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{g.total_capacity().value * load};
  gravity.sparsity = 0.9;
  const auto demands = sim::gravity_matrix(g, gravity, demand_rng);
  const std::vector<util::Db> snr(g.edge_count(), util::Db{20.0});

  core::ControllerOptions options;
  options.consolidate = consolidate;
  options.pool = &pool;
  core::DynamicCapacityController controller(
      g, optical::ModulationTable::standard(), engine, options);
  const auto report = controller.run_round(snr, demands);
  return {prop::signature_of(report), report.stats.evaluations};
}

void expect_same_outcome(const RoundOutcome& expected,
                         const RoundOutcome& got, std::size_t threads) {
  const prop::InvariantResult check = prop::check_signatures_equal(
      expected.signature, got.signature,
      std::to_string(threads) + " threads");
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(Determinism, ControllerRoundIsPoolSizeInvariantWithMcf) {
  // Cold engine: isolates the consolidation waves from prefix reuse.
  te::McfTe::Options engine_options;
  engine_options.prefix_reuse = false;
  const te::McfTe engine(engine_options);
  exec::ThreadPool serial(0);  // one-trial waves: the serial loop
  const RoundOutcome expected = run_controller_round(engine, serial);
  // The fixture must actually exercise consolidation, or this test proves
  // nothing about the speculative waves.
  ASSERT_GT(expected.evaluations, 1u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    expect_same_outcome(expected, run_controller_round(engine, pool),
                        threads);
  }
}

TEST(Determinism, ControllerRoundIsPoolSizeInvariantWhenTrialsAccept) {
  // At 0.3 of capacity consolidation accepts trials, so a wave's first
  // acceptance must win over the later trials of its window. Each pool
  // size also runs two rounds at once on its own workers, where
  // parallel_for runs inline: there the window is one trial, so the
  // evaluation count must be the serial one too. Cold engine, as above.
  te::McfTe::Options engine_options;
  engine_options.prefix_reuse = false;
  const te::McfTe engine(engine_options);
  exec::ThreadPool serial(0);
  const RoundOutcome expected = run_controller_round(engine, serial, 0.3);
  const RoundOutcome unconsolidated =
      run_controller_round(engine, serial, 0.3, /*consolidate=*/false);
  ASSERT_LT(expected.signature.upgrades.size(),
            unconsolidated.signature.upgrades.size())
      << "the fixture must accept at least one consolidation trial";
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    expect_same_outcome(expected, run_controller_round(engine, pool, 0.3),
                        threads);
    std::vector<RoundOutcome> nested(2);
    exec::parallel_for(pool, nested.size(), [&](std::size_t i) {
      nested[i] = run_controller_round(engine, pool, 0.3);
    });
    for (const RoundOutcome& outcome : nested) {
      expect_same_outcome(expected, outcome, threads);
      EXPECT_EQ(outcome.evaluations, expected.evaluations)
          << threads << " threads, nested";
    }
  }
}

TEST(Determinism, ControllerRoundIsPoolSizeInvariantWithWarmMcf) {
  // Default engine: prefix reuse and its concurrent trace store must not
  // perturb results either. A fresh engine per pool size keeps every arm
  // starting from an empty store.
  exec::ThreadPool serial(0);
  const te::McfTe serial_engine;
  const RoundOutcome expected = run_controller_round(serial_engine, serial);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    const te::McfTe engine;
    expect_same_outcome(expected, run_controller_round(engine, pool),
                        threads);
  }
}

TEST(Determinism, ControllerRoundIsPoolSizeInvariantWithSwan) {
  // LP engine with the shared LP memo: concurrent solves during waves
  // store and read it from several workers at once.
  exec::ThreadPool serial(0);
  const te::SwanTe serial_engine;
  const RoundOutcome expected = run_controller_round(serial_engine, serial);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    const te::SwanTe engine;
    expect_same_outcome(expected, run_controller_round(engine, pool),
                        threads);
  }
}

void expect_same_metrics(const sim::SimulationMetrics& a,
                         const sim::SimulationMetrics& b) {
  EXPECT_EQ(a.offered_gbps_hours, b.offered_gbps_hours);
  EXPECT_EQ(a.delivered_gbps_hours, b.delivered_gbps_hours);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.link_failures, b.link_failures);
  EXPECT_EQ(a.link_flaps, b.link_flaps);
  EXPECT_EQ(a.upgrades, b.upgrades);
  EXPECT_EQ(a.restorations, b.restorations);
  EXPECT_EQ(a.lock_failures, b.lock_failures);
  EXPECT_EQ(a.reconfig_downtime_hours, b.reconfig_downtime_hours);
  EXPECT_EQ(a.te_rounds, b.te_rounds);
}

TEST(Determinism, ScenarioSweepIsPoolSizeInvariant) {
  // The sim_throughput_gain shape at test scale: three policy arms over
  // Abilene. run_scenarios at any pool size must reproduce the direct
  // serial WanSimulator runs bit for bit, in order.
  const graph::Graph topology = sim::abilene();
  util::Rng rng = util::Rng::stream(42, 0);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value};
  const auto demands = sim::gravity_matrix(topology, gravity, rng);
  const te::McfTe engine;

  std::vector<sim::Scenario> scenarios;
  for (sim::CapacityPolicy policy :
       {sim::CapacityPolicy::kStatic, sim::CapacityPolicy::kDynamic,
        sim::CapacityPolicy::kDynamicHitless}) {
    sim::SimulationConfig config;
    config.horizon = 4.0 * util::kHour;
    config.te_interval = 30.0 * util::kMinute;
    config.policy = policy;
    config.seed = 1701;
    scenarios.push_back({sim::to_string(policy), config});
  }

  // Baseline: the pre-run_scenarios serial path, one simulator per arm.
  std::vector<sim::SimulationMetrics> serial;
  for (const sim::Scenario& scenario : scenarios) {
    sim::WanSimulator simulator(topology, engine, scenario.config);
    serial.push_back(simulator.run(demands));
  }
  ASSERT_GT(serial.front().te_rounds, 0u);

  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    const auto results =
        sim::run_scenarios(topology, engine, demands, scenarios, &pool);
    ASSERT_EQ(results.size(), scenarios.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].name, scenarios[i].name);
      expect_same_metrics(serial[i], results[i].metrics);
    }
  }
}

}  // namespace
}  // namespace rwc
