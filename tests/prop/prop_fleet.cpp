// Fleet-level properties (docs/FLEET.md): on randomized fleet
// configurations, (1) the incremental re-solve hot path is bit-identical
// to full re-solves under randomized fault plans drawn from the
// parallel-keyed sites, (2) the fleet chain is invariant to shard count
// and pool size, and (3) each instance is a pure function of
// (seed, instance id) — its slot equals a direct run. Failing plans are
// minimized by the shrinking runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/registry.hpp"
#include "fleet/fleet.hpp"
#include "prop/generators.hpp"
#include "prop/seeds.hpp"
#include "prop/shrink.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using fleet::FleetConfig;
using fleet::FleetResult;

/// Fleet fixture sized for a property iteration: a handful of instances
/// with randomized size/load parameters.
FleetConfig random_fleet(std::uint64_t seed, util::Rng& rng) {
  FleetConfig config;
  config.instances = static_cast<std::size_t>(rng.uniform_int(3, 5));
  config.shards = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(config.instances)));
  config.rounds = static_cast<std::uint64_t>(rng.uniform_int(6, 9));
  config.seed = seed * 977 + 13;
  config.min_nodes = 8;
  config.max_nodes = 10;
  config.demand_load = rng.uniform(0.3, 0.6);
  return config;
}

TEST(PropFleet, IncrementalEqualsFullUnderFaultPlans) {
  for (const std::uint64_t seed : prop::sweep_seeds({5, 19, 37})) {
    util::Rng rng = util::Rng::stream(seed, 500);
    const FleetConfig base = random_fleet(seed, rng);
    // Parallel-keyed degrading sites only: injections fire by per-instance
    // keys, so both arms (and any shard layout) see identical faults.
    const fault::FaultPlan plan =
        prop::random_fault_plan(prop::degrading_sites(), rng, seed);
    prop::expect_property(
        seed, plan, [&](const fault::FaultPlan& active) {
          const auto run = [&](bool incremental) {
            FleetConfig config = base;
            config.incremental = incremental;
            fault::ScopedPlan armed(active);
            return fleet::run_fleet(config);
          };
          const FleetResult full = run(false);
          const FleetResult incremental = run(true);
          if (full.fleet_chain != incremental.fleet_chain)
            return prop::InvariantResult::fail(
                "fleet chain diverged: full vs incremental under plan \"" +
                active.to_string() + "\"");
          for (std::size_t i = 0; i < full.instances.size(); ++i)
            if (full.instances[i].signature_chain !=
                incremental.instances[i].signature_chain)
              return prop::InvariantResult::fail(
                  "instance " + std::to_string(i) + " diverged under plan \"" +
                  active.to_string() + "\"");
          return prop::InvariantResult::pass();
        });
  }
}

TEST(PropFleet, PartialTierEqualsColdSolversUnderFaultPlans) {
  // The solver ladder's engine-side reuse (docs/SOLVERS.md) on randomized
  // fleets: with it on, every fleet chain — under a randomized
  // parallel-keyed fault plan — equals the run with it off. McfTe drops
  // prefix reuse while a plan is armed; SWAN's LP memo stays on.
  for (const std::uint64_t seed : prop::sweep_seeds({9, 27})) {
    util::Rng rng = util::Rng::stream(seed, 503);
    FleetConfig base = random_fleet(seed, rng);
    base.diurnal = true;
    const fault::FaultPlan plan =
        prop::random_fault_plan(prop::degrading_sites(), rng, seed);
    prop::expect_property(
        seed, plan, [&](const fault::FaultPlan& active) {
          const auto run = [&](bool partial) {
            FleetConfig config = base;
            config.partial = partial;
            fault::ScopedPlan armed(active);
            return fleet::run_fleet(config);
          };
          const FleetResult cold = run(false);
          const FleetResult partial = run(true);
          if (cold.fleet_chain != partial.fleet_chain)
            return prop::InvariantResult::fail(
                "fleet chain diverged: reuse off vs on under plan \"" +
                active.to_string() + "\"");
          for (std::size_t i = 0; i < cold.instances.size(); ++i)
            if (cold.instances[i].signature_chain !=
                partial.instances[i].signature_chain)
              return prop::InvariantResult::fail(
                  "instance " + std::to_string(i) + " diverged under plan \"" +
                  active.to_string() + "\"");
          return prop::InvariantResult::pass();
        });
  }
}

TEST(PropFleet, FleetChainInvariantToShardsAndPools) {
  for (const std::uint64_t seed : prop::sweep_seeds({7, 21})) {
    util::Rng rng = util::Rng::stream(seed, 501);
    const FleetConfig base = random_fleet(seed, rng);
    const std::string context = "seed " + std::to_string(seed);
    const FleetResult reference = fleet::run_fleet(base);

    const std::size_t other_shards = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(base.instances)));
    const std::size_t pool_threads =
        static_cast<std::size_t>(rng.uniform_int(0, 8));
    exec::ThreadPool pool(pool_threads);
    FleetConfig variant = base;
    variant.shards = other_shards;
    variant.pool = &pool;
    const FleetResult got = fleet::run_fleet(variant);
    EXPECT_EQ(got.fleet_chain, reference.fleet_chain)
        << context << ": shards " << base.shards << " -> " << other_shards
        << ", pool " << pool_threads;
    EXPECT_EQ(got.total_rounds, reference.total_rounds) << context;
    EXPECT_EQ(got.failure_events, reference.failure_events) << context;
  }
}

TEST(PropFleet, InstancesArePureFunctionsOfSeedAndId) {
  for (const std::uint64_t seed : prop::sweep_seeds({3, 13})) {
    util::Rng rng = util::Rng::stream(seed, 502);
    const FleetConfig config = random_fleet(seed, rng);
    const std::string context = "seed " + std::to_string(seed);
    const FleetResult fleet_run = fleet::run_fleet(config);
    ASSERT_EQ(fleet_run.instances.size(), config.instances) << context;
    for (std::size_t i = 0; i < config.instances; ++i) {
      const fleet::InstanceResult direct = fleet::run_instance(config, i);
      EXPECT_EQ(direct.signature_chain,
                fleet_run.instances[i].signature_chain)
          << context << ", instance " << i;
      EXPECT_EQ(direct.rounds, fleet_run.instances[i].rounds)
          << context << ", instance " << i;
    }
  }
}

}  // namespace
}  // namespace rwc
