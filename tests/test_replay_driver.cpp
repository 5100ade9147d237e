// ReplayDriver contract tests: the streaming driver reproduces the
// WanSimulator's analytic dynamic-policy run bit-for-bit, and a kill at
// any checkpoint followed by restore-then-continue is bit-identical to the
// uninterrupted run — at pool sizes 1/2/8, on warm or fresh engines, for
// both built-in engine families.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "prop/invariants.hpp"
#include "replay/checkpoint.hpp"
#include "replay/driver.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/checkpoint_splice.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using replay::Checkpoint;
using replay::CheckpointStore;
using replay::Error;
using replay::ReplayConfig;
using replay::ReplayDriver;

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
};

/// Mid-load WAN fixture shared by every test in this file.
Fixture make_fixture(std::uint64_t seed, int nodes = 10) {
  util::Rng topo_rng = util::Rng::stream(seed, 0);
  Fixture f{sim::waxman(nodes, topo_rng), {}};
  util::Rng demand_rng = util::Rng::stream(seed, 1);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{f.topology.total_capacity().value * 0.4};
  f.demands = sim::gravity_matrix(f.topology, gravity, demand_rng);
  return f;
}

ReplayConfig small_config(std::uint64_t rounds, std::uint64_t chunk_rounds) {
  ReplayConfig config;
  config.rounds = rounds;
  config.seed = 7;
  config.chunk_rounds = chunk_rounds;
  return config;
}

void expect_metrics_equal(const sim::SimulationMetrics& a,
                          const sim::SimulationMetrics& b,
                          const std::string& context) {
  EXPECT_EQ(a.offered_gbps_hours, b.offered_gbps_hours) << context;
  EXPECT_EQ(a.delivered_gbps_hours, b.delivered_gbps_hours) << context;
  EXPECT_EQ(a.availability, b.availability) << context;
  EXPECT_EQ(a.link_failures, b.link_failures) << context;
  EXPECT_EQ(a.link_flaps, b.link_flaps) << context;
  EXPECT_EQ(a.upgrades, b.upgrades) << context;
  EXPECT_EQ(a.restorations, b.restorations) << context;
  EXPECT_EQ(a.lock_failures, b.lock_failures) << context;
  EXPECT_EQ(a.reconfig_downtime_hours, b.reconfig_downtime_hours) << context;
  EXPECT_EQ(a.te_rounds, b.te_rounds) << context;
}

/// Uninterrupted reference: per-round signatures, final chain and metrics.
struct Reference {
  std::vector<prop::RoundSignature> signatures;
  std::uint64_t chain = 0;
  sim::SimulationMetrics metrics;
};

Reference reference_run(const Fixture& f, const te::TeAlgorithm& engine,
                        const ReplayConfig& config) {
  Reference ref;
  ReplayDriver driver(f.topology, engine, f.demands, config);
  while (!driver.done())
    ref.signatures.push_back(prop::signature_of(driver.step()));
  ref.chain = driver.signature_chain();
  ref.metrics = driver.metrics();
  return ref;
}

/// Drives to every checkpoint round in `kill_rounds`, captures, then
/// restores each capture into a FRESH driver and proves the continuation
/// matches the reference tail bit-for-bit.
void check_kill_restore(const Fixture& f, const te::TeAlgorithm& engine,
                        const ReplayConfig& config, const Reference& ref,
                        std::initializer_list<std::uint64_t> kill_rounds,
                        const std::string& context) {
  ReplayDriver source(f.topology, engine, f.demands, config);
  std::vector<Checkpoint> checkpoints;
  std::vector<std::uint64_t> kills(kill_rounds);
  std::size_t next_kill = 0;
  while (!source.done()) {
    if (next_kill < kills.size() && source.round() == kills[next_kill]) {
      checkpoints.push_back(source.checkpoint());
      ++next_kill;
    }
    source.step();
  }
  ASSERT_EQ(checkpoints.size(), kills.size()) << context;

  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    const std::string at = context + ", killed at round " +
                           std::to_string(kills[k]);
    ReplayDriver resumed(f.topology, engine, f.demands, config);
    ASSERT_EQ(resumed.restore(checkpoints[k]), Error::kNone) << at;
    ASSERT_EQ(resumed.round(), kills[k]) << at;
    for (std::uint64_t r = kills[k]; r < config.rounds; ++r) {
      const prop::InvariantResult check = prop::check_signatures_equal(
          ref.signatures[r], prop::signature_of(resumed.step()),
          at + ", round " + std::to_string(r));
      ASSERT_TRUE(check.ok) << check.detail;
    }
    EXPECT_EQ(resumed.signature_chain(), ref.chain) << at;
    expect_metrics_equal(ref.metrics, resumed.metrics(), at);
  }
}

TEST(ReplayDriver, MatchesWanSimulatorBitForBit) {
  const Fixture f = make_fixture(20170701);
  const te::McfTe engine;
  const ReplayConfig config = small_config(/*rounds=*/16, /*chunk_rounds=*/256);

  ReplayDriver driver(f.topology, engine, f.demands, config);
  const sim::SimulationMetrics streamed = driver.run();

  sim::SimulationConfig sim_config;
  sim_config.horizon = static_cast<double>(config.rounds) * config.te_interval;
  sim_config.te_interval = config.te_interval;
  sim_config.snr_margin = config.snr_margin;
  sim_config.policy = sim::CapacityPolicy::kDynamic;
  sim_config.diurnal = config.diurnal;
  sim_config.snr_model = config.snr_model;
  sim_config.latency = config.latency;
  sim_config.seed = config.seed;
  sim::WanSimulator simulator(f.topology, engine, sim_config);
  const sim::SimulationMetrics reference = simulator.run(f.demands);

  expect_metrics_equal(reference, streamed, "driver vs WanSimulator");
  EXPECT_EQ(streamed.te_rounds, config.rounds);
}

TEST(ReplayDriver, KillRestoreBitIdenticalAcrossPoolSizes) {
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::McfTe engine;
  // chunk_rounds 8 < rounds forces refills, so kills land both on and off
  // chunk boundaries (6 mid-chunk, 8 on a boundary, 18 mid-chunk again).
  ReplayConfig config = small_config(/*rounds=*/24, /*chunk_rounds=*/8);

  exec::ThreadPool serial(0);
  config.pool = &serial;
  const Reference ref = reference_run(f, engine, config);
  ASSERT_EQ(ref.signatures.size(), config.rounds);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    config.pool = &pool;
    check_kill_restore(f, engine, config, ref, {6, 8, 18},
                       "pool size " + std::to_string(threads));
  }
}

TEST(ReplayDriver, ColdCacheRestoreIsStillBitIdentical) {
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::McfTe engine;
  const ReplayConfig config = small_config(/*rounds=*/12, /*chunk_rounds=*/8);
  const Reference ref = reference_run(f, engine, config);

  // Engine reuse state (prefix traces) is never checkpointed and only
  // changes timing: a restore onto a fresh engine must continue
  // bit-identically.
  ReplayDriver source(f.topology, engine, f.demands, config);
  source.run(5);
  const te::McfTe fresh;
  ReplayDriver resumed(f.topology, fresh, f.demands, config);
  ASSERT_EQ(resumed.restore(source.checkpoint()), Error::kNone);
  for (std::uint64_t r = 5; r < config.rounds; ++r) {
    const prop::InvariantResult check = prop::check_signatures_equal(
        ref.signatures[r], prop::signature_of(resumed.step()),
        "fresh engine, round " + std::to_string(r));
    ASSERT_TRUE(check.ok) << check.detail;
  }
  EXPECT_EQ(resumed.signature_chain(), ref.chain);
  expect_metrics_equal(ref.metrics, resumed.metrics(), "fresh engine");
}

TEST(ReplayDriver, SwanEngineKillRestoreIsBitIdentical) {
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::SwanTe engine;
  const ReplayConfig config = small_config(/*rounds=*/12, /*chunk_rounds=*/8);
  const Reference ref = reference_run(f, engine, config);
  check_kill_restore(f, engine, config, ref, {5, 8}, "swan engine");
}

TEST(ReplayDriver, RestoresCheckpointCarryingRetiredCacheSections) {
  // A mid-run checkpoint as an earlier build wrote it, with sections under
  // the retired ids 5, 6, 7, 9 and 11, restores and finishes the horizon on
  // the uninterrupted run's chain.
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::McfTe engine;
  const ReplayConfig config = small_config(/*rounds=*/12, /*chunk_rounds=*/8);
  const Reference ref = reference_run(f, engine, config);

  ReplayDriver source(f.topology, engine, f.demands, config);
  source.run(5);
  const std::vector<std::byte> bytes =
      replay::with_retired_sections(replay::encode(source.checkpoint()));
  Checkpoint checkpoint;
  ASSERT_EQ(replay::decode(bytes, checkpoint), Error::kNone);
  ReplayDriver resumed(f.topology, engine, f.demands, config);
  ASSERT_EQ(resumed.restore(checkpoint), Error::kNone);
  resumed.run();
  EXPECT_EQ(resumed.signature_chain(), ref.chain);
  expect_metrics_equal(ref.metrics, resumed.metrics(), "retired sections");
}

TEST(ReplayDriver, RestoreRejectsConfigMismatchAndLeavesDriverUntouched) {
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::McfTe engine;
  ReplayConfig config = small_config(/*rounds=*/12, /*chunk_rounds=*/8);

  ReplayDriver other(f.topology, engine, f.demands, config);
  other.run(4);
  const Checkpoint foreign = [&] {
    ReplayConfig changed = config;
    changed.seed = config.seed + 1;
    ReplayDriver driver(f.topology, engine, f.demands, changed);
    driver.run(4);
    return driver.checkpoint();
  }();

  const Reference ref = reference_run(f, engine, config);
  ReplayDriver driver(f.topology, engine, f.demands, config);
  driver.run(6);
  const std::uint64_t chain_before = driver.signature_chain();
  EXPECT_EQ(driver.restore(foreign), Error::kConfigMismatch);
  EXPECT_EQ(driver.round(), 6u) << "failed restore must not move the driver";
  EXPECT_EQ(driver.signature_chain(), chain_before);
  // ...and it still finishes exactly like the uninterrupted run.
  driver.run();
  EXPECT_EQ(driver.signature_chain(), ref.chain);
}

TEST(ReplayDriver, PeriodicStoreAndRestoreLatestResumeTheRun) {
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::McfTe engine;
  ReplayConfig config = small_config(/*rounds=*/12, /*chunk_rounds=*/8);
  const Reference ref = reference_run(f, engine, config);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rwc-replay-test-periodic";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir, /*keep=*/2);
    config.checkpoint_every = 5;
    ReplayDriver driver(f.topology, engine, f.demands, config);
    driver.attach_store(&store);
    driver.run(11);  // dies after round 11; checkpoints exist at 5 and 10

    ReplayDriver resumed(f.topology, engine, f.demands, config);
    ASSERT_EQ(resumed.restore_latest(store), Error::kNone);
    EXPECT_EQ(resumed.round(), 10u);
    resumed.run();
    EXPECT_EQ(resumed.signature_chain(), ref.chain);
    expect_metrics_equal(ref.metrics, resumed.metrics(), "restore_latest");
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplayDriver, ConfigFingerprintSeparatesRuns) {
  const Fixture f = make_fixture(20170701, /*nodes=*/8);
  const te::McfTe engine;
  const ReplayConfig config = small_config(/*rounds=*/12, /*chunk_rounds=*/8);
  const ReplayDriver a(f.topology, engine, f.demands, config);
  ReplayConfig other = config;
  other.seed = config.seed + 1;
  const ReplayDriver b(f.topology, engine, f.demands, other);
  EXPECT_NE(a.config_fingerprint(), b.config_fingerprint());
  const ReplayDriver c(f.topology, engine, f.demands, config);
  EXPECT_EQ(a.config_fingerprint(), c.config_fingerprint());
}

}  // namespace
}  // namespace rwc
