// Differential layer for the fleet engine (docs/FLEET.md): the incremental
// re-solve hot path must be bit-identical to full re-solves on every round
// signature, the fleet chain must be invariant to shard count and pool
// size, each instance's slot must equal a direct run of that instance, and
// checkpointing must stay observational. Signatures come from the shared
// tests/support/round_signature.hpp helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "fleet/fleet.hpp"
#include "replay/driver.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/round_signature.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using fleet::FleetConfig;
using fleet::FleetResult;
using replay::ReplayConfig;
using replay::ReplayDriver;

/// Small fleet the suite can afford to run several times.
FleetConfig small_fleet(std::uint64_t seed) {
  FleetConfig config;
  config.instances = 6;
  config.shards = 2;
  config.rounds = 10;
  config.seed = seed;
  config.min_nodes = 8;
  config.max_nodes = 10;
  return config;
}

/// One instance-shaped replay fixture (what fleet::run_instance drives).
struct InstanceFixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  ReplayConfig config;
};

InstanceFixture make_instance_fixture(std::uint64_t seed,
                                      std::uint64_t rounds) {
  util::Rng rng = util::Rng::stream(seed, 1);
  InstanceFixture fixture;
  fixture.topology = sim::waxman(9, rng);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{fixture.topology.total_capacity().value * 0.5};
  fixture.demands = sim::gravity_matrix(fixture.topology, gravity, rng);
  fixture.config.rounds = rounds;
  fixture.config.diurnal = false;
  fixture.config.hysteresis = core::HysteresisParams{};
  fixture.config.seed = util::Rng::stream(seed, 2).next_u64();
  return fixture;
}

struct ArmResult {
  std::vector<prop::RoundSignature> signatures;
  std::vector<bool> hits;
  std::vector<bool> partials;
  std::uint64_t chain = 0;
};

ArmResult run_arm(const InstanceFixture& fixture, bool incremental,
                  bool partial = true) {
  ReplayConfig config = fixture.config;
  config.incremental = incremental;
  te::McfTe::Options options;
  options.prefix_reuse = partial;
  te::McfTe engine(options);
  ReplayDriver driver(fixture.topology, engine, fixture.demands, config);
  ArmResult result;
  while (!driver.done()) {
    const auto report = driver.step();
    result.signatures.push_back(prop::signature_of(report));
    result.hits.push_back(report.stats.incremental_hit);
    result.partials.push_back(report.stats.partial_resolve);
  }
  result.chain = driver.signature_chain();
  return result;
}

void expect_arms_equal(const ArmResult& full, const ArmResult& incremental,
                       const std::string& context) {
  ASSERT_EQ(full.signatures.size(), incremental.signatures.size()) << context;
  for (std::size_t r = 0; r < full.signatures.size(); ++r) {
    const prop::InvariantResult check = prop::check_signatures_equal(
        full.signatures[r], incremental.signatures[r],
        context + ", round " + std::to_string(r));
    ASSERT_TRUE(check.ok) << check.detail;
  }
  EXPECT_EQ(full.chain, incremental.chain) << context;
}

TEST(FleetDifferential, IncrementalMatchesFullOnEveryRound) {
  for (const std::uint64_t seed : {11u, 23u}) {
    const InstanceFixture fixture = make_instance_fixture(seed, 24);
    const ArmResult full = run_arm(fixture, false);
    const ArmResult incremental = run_arm(fixture, true);
    expect_arms_equal(full, incremental, "seed " + std::to_string(seed));
    // The comparison only means something if the hot path actually fired.
    EXPECT_NE(std::count(incremental.hits.begin(), incremental.hits.end(),
                         true),
              0)
        << "seed " << seed << ": no memo hit in 24 rounds";
    EXPECT_EQ(std::count(full.hits.begin(), full.hits.end(), true), 0)
        << "seed " << seed;
  }
}

TEST(FleetDifferential, IncrementalMatchesFullUnderFaultPlans) {
  // Parallel-keyed sites only (docs/FLEET.md): injections fire by edge id /
  // network fingerprint, so both arms see identical faults.
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::Injection snr_garbage;
  snr_garbage.site = "core.snr";
  snr_garbage.period = 3;
  snr_garbage.hit = 1;
  snr_garbage.action.kind = fault::Kind::kGarbage;
  plan.injections.push_back(snr_garbage);
  fault::Injection mincost_budget;
  mincost_budget.site = "flow.mincost";
  mincost_budget.period = 2;
  mincost_budget.hit = 0;
  mincost_budget.action.kind = fault::Kind::kBudget;
  mincost_budget.action.magnitude = 12.0;
  plan.injections.push_back(mincost_budget);

  const InstanceFixture fixture = make_instance_fixture(31, 20);
  const auto faulted_arm = [&](bool incremental) {
    fault::ScopedPlan armed(plan);
    return run_arm(fixture, incremental);
  };
  const ArmResult full = faulted_arm(false);
  const ArmResult incremental = faulted_arm(true);
  expect_arms_equal(full, incremental, "faulted instance");
}

TEST(FleetDifferential, PartialTierMatchesColdSolversOnEveryRound) {
  // Diurnal scaling shifts demand volumes every round, so the controller
  // memo misses and every round re-solves and consolidates; consolidation
  // trials resume from the round's own trace — prefix reuse's case. Its
  // rounds must be bit-identical to the same rounds with reuse disabled
  // and to full re-solves.
  for (const std::uint64_t seed : {11u, 23u}) {
    InstanceFixture fixture = make_instance_fixture(seed, 24);
    fixture.config.diurnal = true;
    const ArmResult cold = run_arm(fixture, false, false);
    const ArmResult no_partial = run_arm(fixture, true, false);
    const ArmResult partial = run_arm(fixture, true, true);
    expect_arms_equal(cold, no_partial,
                      "seed " + std::to_string(seed) + ", partial off");
    expect_arms_equal(cold, partial,
                      "seed " + std::to_string(seed) + ", partial on");
    // The comparison only means something if the tier actually fired.
    EXPECT_NE(std::count(partial.partials.begin(), partial.partials.end(),
                         true),
              0)
        << "seed " << seed << ": no partial re-solve in 24 diurnal rounds";
    EXPECT_EQ(std::count(no_partial.partials.begin(),
                         no_partial.partials.end(), true),
              0)
        << "seed " << seed;
  }
}

TEST(FleetDifferential, PartialTierMatchesUnderFaultPlans) {
  // Same parallel-keyed plan discipline as the incremental test: budget
  // faults truncate solves mid-flight and garbage faults shift the SNR
  // inputs, and reuse must stay bit-identical through both.
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::Injection snr_garbage;
  snr_garbage.site = "core.snr";
  snr_garbage.period = 3;
  snr_garbage.hit = 1;
  snr_garbage.action.kind = fault::Kind::kGarbage;
  plan.injections.push_back(snr_garbage);
  fault::Injection mincost_budget;
  mincost_budget.site = "flow.mincost";
  mincost_budget.period = 2;
  mincost_budget.hit = 0;
  mincost_budget.action.kind = fault::Kind::kBudget;
  mincost_budget.action.magnitude = 12.0;
  plan.injections.push_back(mincost_budget);

  InstanceFixture fixture = make_instance_fixture(31, 20);
  fixture.config.diurnal = true;
  const auto faulted_arm = [&](bool partial) {
    fault::ScopedPlan armed(plan);
    return run_arm(fixture, true, partial);
  };
  const ArmResult without = faulted_arm(false);
  const ArmResult with = faulted_arm(true);
  expect_arms_equal(without, with, "faulted instance, reuse on");
}

TEST(FleetDifferential, FleetChainInvariantToShardsAndPoolSizes) {
  const FleetConfig base = small_fleet(101);
  const FleetResult reference = fleet::run_fleet(base);
  ASSERT_EQ(reference.instances.size(), base.instances);
  EXPECT_EQ(reference.total_rounds, base.instances * base.rounds);

  struct Variant {
    std::size_t shards;
    std::size_t pool_threads;
  };
  for (const Variant variant : {Variant{1, 1}, Variant{3, 2}, Variant{6, 8}}) {
    exec::ThreadPool pool(variant.pool_threads);
    FleetConfig config = base;
    config.shards = variant.shards;
    config.pool = &pool;
    const FleetResult got = fleet::run_fleet(config);
    EXPECT_EQ(got.fleet_chain, reference.fleet_chain)
        << "shards=" << variant.shards << " pool=" << variant.pool_threads;
    EXPECT_EQ(got.failure_events, reference.failure_events)
        << "shards=" << variant.shards << " pool=" << variant.pool_threads;
  }
}

TEST(FleetDifferential, FleetChainInvariantToIncrementalFlag) {
  FleetConfig config = small_fleet(202);
  config.incremental = true;
  const FleetResult incremental = fleet::run_fleet(config);
  config.incremental = false;
  const FleetResult full = fleet::run_fleet(config);
  EXPECT_EQ(incremental.fleet_chain, full.fleet_chain);
  EXPECT_EQ(full.incremental_hits, 0u);
  EXPECT_GT(incremental.incremental_hits, 0u)
      << "hot path never fired across "
      << incremental.total_rounds << " fleet rounds";
}

TEST(FleetDifferential, FleetChainInvariantToPartialFlag) {
  // The fleet-level statement of the solver ladder's contract: enabling
  // engine-side reuse changes work counters only, never the fleet chain.
  // Both engines are covered so prefix reuse AND the LP memo cross the
  // fleet determinism bar. For mcf, diurnal demands make every round
  // consolidate, so trials resume from traces. For swan, stable demands
  // with SNR-driven capacity flips make consolidation trials and settled
  // rounds re-solve LPs an earlier trial already solved.
  for (const fleet::EngineKind engine :
       {fleet::EngineKind::kMcf, fleet::EngineKind::kSwan}) {
    FleetConfig config = small_fleet(505);
    config.instances = 3;
    config.engine = engine;
    config.diurnal = engine == fleet::EngineKind::kMcf;
    if (engine == fleet::EngineKind::kSwan) config.rounds = 24;
    config.partial = true;
    const FleetResult partial = fleet::run_fleet(config);
    config.partial = false;
    const FleetResult cold = fleet::run_fleet(config);
    const char* name = engine == fleet::EngineKind::kMcf ? "mcf" : "swan";
    EXPECT_EQ(partial.fleet_chain, cold.fleet_chain) << name;
    EXPECT_EQ(cold.partial_rounds, 0u) << name;
    EXPECT_GT(partial.partial_rounds, 0u)
        << name << ": engine-side reuse never fired across "
        << partial.total_rounds << " fleet rounds";

    // Reuse must also be invariant to execution parallelism: the trace
    // store and the LP memo are shared across a pool's workers, so a lost
    // or reordered store may change which rounds reuse — never what they
    // compute.
    for (const std::size_t pool_threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(pool_threads);
      FleetConfig pooled = config;
      pooled.partial = true;
      pooled.pool = &pool;
      EXPECT_EQ(fleet::run_fleet(pooled).fleet_chain, cold.fleet_chain)
          << name << " pool=" << pool_threads;
    }
  }
}

TEST(FleetDifferential, InstanceSlotsMatchDirectRuns) {
  const FleetConfig config = small_fleet(303);
  const FleetResult fleet_run = fleet::run_fleet(config);
  ASSERT_EQ(fleet_run.instances.size(), config.instances);
  for (std::size_t i = 0; i < config.instances; ++i) {
    const fleet::InstanceResult direct = fleet::run_instance(config, i);
    EXPECT_EQ(direct.signature_chain, fleet_run.instances[i].signature_chain)
        << "instance " << i;
    EXPECT_EQ(direct.failure_events, fleet_run.instances[i].failure_events)
        << "instance " << i;
    EXPECT_EQ(direct.link_capability_gbps,
              fleet_run.instances[i].link_capability_gbps)
        << "instance " << i;
  }
}

TEST(FleetDifferential, CheckpointingIsObservational) {
  const FleetConfig plain = small_fleet(404);
  const FleetResult reference = fleet::run_fleet(plain);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rwc-fleet-ckpt-test";
  std::filesystem::remove_all(dir);
  FleetConfig checkpointed = plain;
  checkpointed.checkpoint_dir = dir.string();
  checkpointed.checkpoint_every = 4;
  const FleetResult got = fleet::run_fleet(checkpointed);
  EXPECT_EQ(got.fleet_chain, reference.fleet_chain);
  // Every instance actually wrote a store.
  for (std::size_t i = 0; i < plain.instances; ++i)
    EXPECT_TRUE(std::filesystem::exists(dir / ("instance-" +
                                               std::to_string(i))))
        << "instance " << i;
  std::filesystem::remove_all(dir);
}

TEST(FleetDifferential, RestoreMidHorizonColdMemoStaysBitIdentical) {
  // The memo is deliberately not checkpointed: restoring mid-horizon costs
  // one full re-solve (first resumed round is never a hit) but the round
  // signatures and the final chain must match the uninterrupted run.
  const InstanceFixture fixture = make_instance_fixture(55, 20);
  ReplayConfig config = fixture.config;
  config.incremental = true;
  te::McfTe engine;

  ReplayDriver driver(fixture.topology, engine, fixture.demands, config);
  std::vector<prop::RoundSignature> reference;
  replay::Checkpoint mid;
  while (!driver.done()) {
    if (driver.round() == 10) mid = driver.checkpoint();
    reference.push_back(prop::signature_of(driver.step()));
  }

  ReplayDriver resumed(fixture.topology, engine, fixture.demands, config);
  ASSERT_EQ(resumed.restore(mid), replay::Error::kNone);
  bool first = true;
  for (std::size_t r = 10; r < reference.size(); ++r) {
    const auto report = resumed.step();
    if (first) {
      EXPECT_FALSE(report.stats.incremental_hit)
          << "memo survived a restore; it must be rebuilt cold";
      first = false;
    }
    const prop::InvariantResult check = prop::check_signatures_equal(
        reference[r], prop::signature_of(report),
        "resumed round " + std::to_string(r));
    ASSERT_TRUE(check.ok) << check.detail;
  }
  EXPECT_EQ(resumed.signature_chain(), driver.signature_chain());
}

}  // namespace
}  // namespace rwc
