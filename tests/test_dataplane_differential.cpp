// Differential tests of the dataplane against the solver allocation
// (docs/DATAPLANE.md §5): the gap oracle for both TE engines over two
// seeds, capacity safety, bitwise determinism across thread-pool sizes,
// save/restore-then-continue, the pinned save_state() wire format, and
// the dataplane-backed demand counter source certifying exact recovery on a
// clean round.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/counters.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/xcheck.hpp"
#include "demand/estimator.hpp"
#include "demand/routing_matrix.hpp"
#include "exec/thread_pool.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "replay/wire.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using dataplane::XcheckConfig;
using dataplane::XcheckEngine;
using dataplane::XcheckOutcome;
using dataplane::run_xcheck;

XcheckConfig small_config(std::uint64_t seed, XcheckEngine engine) {
  XcheckConfig config;
  config.seed = seed;
  config.rounds = 3;
  config.engine = engine;
  return config;
}

TEST(DataplaneDifferential, GapOracleHoldsForMcf) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    const XcheckOutcome outcome =
        run_xcheck(small_config(seed, XcheckEngine::kMcf));
    EXPECT_TRUE(outcome.pass) << "seed " << seed << ": " << outcome.failure;
    EXPECT_EQ(outcome.capacity_violations, 0u) << "seed " << seed;
  }
}

TEST(DataplaneDifferential, GapOracleHoldsForSwan) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    const XcheckOutcome outcome =
        run_xcheck(small_config(seed, XcheckEngine::kSwan));
    EXPECT_TRUE(outcome.pass) << "seed " << seed << ": " << outcome.failure;
    EXPECT_EQ(outcome.capacity_violations, 0u) << "seed " << seed;
  }
}

TEST(DataplaneDifferential, GapOracleHoldsOnDemandAwareWorkload) {
  XcheckConfig config = small_config(31, XcheckEngine::kMcf);
  config.demand_aware = true;
  const XcheckOutcome outcome = run_xcheck(config);
  EXPECT_TRUE(outcome.pass) << outcome.failure;
}

TEST(DataplaneDifferential, ChainIsBitIdenticalAcrossPoolSizes) {
  const XcheckConfig config = small_config(17, XcheckEngine::kMcf);
  const XcheckOutcome reference = run_xcheck(config);
  for (const std::size_t pool_size : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
    exec::ThreadPool pool(pool_size);
    XcheckConfig pooled = config;
    pooled.pool = &pool;
    const XcheckOutcome outcome = run_xcheck(pooled);
    EXPECT_EQ(outcome.chain, reference.chain) << "pool " << pool_size;
  }
}

TEST(DataplaneDifferential, CheckpointRestoreThenContinueIsBitIdentical) {
  const XcheckConfig config = small_config(19, XcheckEngine::kMcf);
  const XcheckOutcome reference = run_xcheck(config);
  for (const std::size_t at : {std::size_t{1}, std::size_t{2}}) {
    XcheckConfig restored = config;
    restored.checkpoint_round = at;
    const XcheckOutcome outcome = run_xcheck(restored);
    EXPECT_EQ(outcome.chain, reference.chain) << "checkpoint before round "
                                              << at;
    EXPECT_TRUE(outcome.pass) << outcome.failure;
  }
}

TEST(DataplaneDifferential, SimStateRoundTripsThroughSaveRestore) {
  util::Rng topo_rng = util::Rng::stream(29, 810);
  const graph::Graph topology = sim::waxman(8, topo_rng);
  dataplane::DataplaneConfig config;
  dataplane::DataplaneSim sim(topology, 12, config);
  const std::vector<std::byte> state = sim.save_state();

  dataplane::DataplaneSim restored(topology, 12, config);
  restored.restore_state(state);
  EXPECT_EQ(restored.state_signature(), sim.state_signature());

  // Corrupt payloads are rejected, not absorbed.
  std::vector<std::byte> corrupt = state;
  corrupt[corrupt.size() / 2] ^= std::byte{0x40};
  dataplane::DataplaneSim victim(topology, 12, config);
  EXPECT_THROW(victim.restore_state(corrupt), util::CheckError);
  // Mismatched shape (different OD count) is rejected too.
  dataplane::DataplaneSim other(topology, 13, config);
  EXPECT_THROW(other.restore_state(state), util::CheckError);
}

/// FNV-1a over a save_state() payload.
std::uint64_t payload_hash(const std::vector<std::byte>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    hash ^= std::to_integer<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Pins the kDataplane wire format and the transition paths behind it: a
// re-install that migrates flowlets with bytes still in flight (draining
// pipelines), then a round with one OD's routing emptied (its sources stop
// and its active pipelines retire to draining). The final payload's hash
// was recorded from the reference kernel; any change to the encoding, the
// field order or the tick arithmetic moves it.
TEST(DataplaneDifferential, SaveStatePinnedAcrossMigrationAndUnrouting) {
  util::Rng topo_rng = util::Rng::stream(43, 810);
  const graph::Graph topology = sim::waxman(8, topo_rng);
  util::Rng demand_rng = util::Rng::stream(43, 811);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value * 0.5};
  const te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, demand_rng);

  const te::McfTe engine;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, {});
  std::vector<util::Db> snr(topology.edge_count(), util::Db{20.0});
  controller.run_round(snr, demands);
  const te::FlowAssignment first = controller.last_assignment();
  const std::span<const util::Gbps> configured =
      controller.configured_capacities();
  const std::vector<util::Gbps> caps(configured.begin(), configured.end());

  dataplane::DataplaneConfig dp_config;
  dataplane::DataplaneSim sim(topology, demands.size(), dp_config);
  const dataplane::CapacityTimeline steady = dataplane::build_timeline(
      caps, caps, nullptr, dp_config.ticks_per_round, dp_config.tick_seconds);
  sim.run_round(first, steady);

  // Fade the busiest link so the controller re-routes around it.
  const std::vector<double>& load = first.edge_load_gbps;
  std::size_t busiest = 0;
  for (std::size_t e = 1; e < load.size(); ++e)
    if (load[e] > load[busiest]) busiest = e;
  snr[busiest] = util::Db{8.0};
  controller.run_round(snr, demands);
  const te::FlowAssignment second = controller.last_assignment();
  const std::span<const util::Gbps> faded_span =
      controller.configured_capacities();
  const std::vector<util::Gbps> faded(faded_span.begin(), faded_span.end());
  const dataplane::RoundResult migrated = sim.run_round(
      second,
      dataplane::build_timeline(caps, faded, nullptr,
                                dp_config.ticks_per_round,
                                dp_config.tick_seconds));
  ASSERT_GT(migrated.migrations, 0u) << "the re-install must migrate";
  ASSERT_GT(migrated.inflight_bytes, 0u);

  te::FlowAssignment unrouted = second;
  std::size_t emptied = unrouted.routings.size();
  for (std::size_t i = 0; i < unrouted.routings.size(); ++i)
    if (!unrouted.routings[i].paths.empty()) {
      emptied = i;
      break;
    }
  ASSERT_LT(emptied, unrouted.routings.size());
  unrouted.routings[emptied].paths.clear();
  const dataplane::RoundResult last = sim.run_round(
      unrouted,
      dataplane::build_timeline(faded, faded, nullptr,
                                dp_config.ticks_per_round,
                                dp_config.tick_seconds));
  EXPECT_EQ(last.od_goodput_gbps[emptied], 0.0);

  const std::vector<std::byte> state = sim.save_state();
  EXPECT_EQ(payload_hash(state), 0x59d7e3dc759c3488ull)
      << std::hex << payload_hash(state);
}

using util::combine64;

/// Per flowlet after its u32 od: offered, rate and carry (f64), then the
/// deferred, injected, delivered and dropped quanta (u64).
constexpr int kFlowletWords = 7;

/// Rewrites a save_state() payload's trailing integrity fold, walking the
/// fields in state_signature() order, so a tampered payload gets past the
/// signature check and reaches restore_state's field checks.
void resign(std::vector<std::byte>& payload) {
  replay::wire::ByteReader reader(payload);
  reader.u32();  // magic
  reader.u32();  // version
  const std::uint64_t edges = reader.u64();
  const std::uint64_t flowlets = reader.u64() * reader.u64();
  std::uint64_t hash = combine64(0x64617461706c616eull, reader.u64());
  auto fold_pipeline = [&] {
    hash = combine64(hash, reader.u64());  // path id
    const std::uint32_t hops = reader.u32();
    for (std::uint32_t h = 0; h < hops; ++h) {
      hash = combine64(hash, reader.u32());  // edge
      hash = combine64(hash, reader.u64());  // queued
      hash = combine64(hash, reader.u64());  // arriving
    }
  };
  for (std::uint64_t f = 0; f < flowlets; ++f) {
    hash = combine64(hash, reader.u32());  // od
    for (int field = 0; field < kFlowletWords; ++field)
      hash = combine64(hash, reader.u64());
    fold_pipeline();
    const std::uint32_t draining = reader.u32();
    hash = combine64(hash, draining);
    for (std::uint32_t d = 0; d < draining; ++d) fold_pipeline();
  }
  for (std::uint64_t e = 0; e < edges; ++e)
    hash = combine64(hash, reader.u64());  // utilization signal
  ASSERT_FALSE(reader.failed());
  for (int b = 0; b < 8; ++b)
    payload[payload.size() - 8 + b] =
        std::byte{static_cast<std::uint8_t>(hash >> (8 * b))};
}

void put_u32(std::vector<std::byte>& payload, std::size_t at,
             std::uint32_t value) {
  for (int b = 0; b < 4; ++b)
    payload[at + b] = std::byte{static_cast<std::uint8_t>(value >> (8 * b))};
}

// Payload layout (DataplaneSim::save_state): a 40-byte header (magic,
// version, edge/OD/flowlet counts, round), then per flowlet its u32 od,
// kFlowletWords 8-byte fields and the active pipeline (u64 path id, u32
// hop count, hops).
constexpr std::size_t kFirstOd = 40;
constexpr std::size_t kFirstHopCount = kFirstOd + 4 + kFlowletWords * 8 + 8;
constexpr std::size_t kFirstHopEdge = kFirstHopCount + 4;

/// A seeded Waxman WAN with gravity demands, the controller's first
/// assignment, and a steady timeline at its configured capacities.
struct FirstRound {
  graph::Graph topology;
  te::TrafficMatrix demands;
  te::FlowAssignment assignment;
  dataplane::DataplaneConfig config;
  dataplane::CapacityTimeline timeline;

  explicit FirstRound(std::uint64_t seed) {
    util::Rng topo_rng = util::Rng::stream(seed, 810);
    topology = sim::waxman(8, topo_rng);
    util::Rng demand_rng = util::Rng::stream(seed, 811);
    sim::GravityParams gravity;
    gravity.total = util::Gbps{topology.total_capacity().value * 0.4};
    demands = sim::gravity_matrix(topology, gravity, demand_rng);
    const te::McfTe engine;
    core::DynamicCapacityController controller(
        topology, optical::ModulationTable::standard(), engine, {});
    controller.run_round(
        std::vector<util::Db>(topology.edge_count(), util::Db{20.0}),
        demands);
    assignment = controller.last_assignment();
    const std::span<const util::Gbps> configured =
        controller.configured_capacities();
    const std::vector<util::Gbps> caps(configured.begin(), configured.end());
    timeline = dataplane::build_timeline(caps, caps, nullptr,
                                         config.ticks_per_round,
                                         config.tick_seconds);
  }
};

// restore_state must reject a malformed payload with CheckError before it
// allocates or indexes anything with the decoded values, and leave the
// sim untouched.
TEST(DataplaneDifferential, RestoreRejectsMalformedCountsEdgesAndOds) {
  const FirstRound fixture(47);
  const graph::Graph& topology = fixture.topology;
  dataplane::DataplaneSim sim(topology, fixture.demands.size(),
                              fixture.config);
  sim.run_round(fixture.assignment, fixture.timeline);
  const std::vector<std::byte> state = sim.save_state();

  // The test-local fold reproduces the real one on an untampered payload.
  std::vector<std::byte> resigned = state;
  resign(resigned);
  ASSERT_EQ(resigned, state);

  dataplane::DataplaneSim victim(topology, fixture.demands.size(),
                                 fixture.config);
  const std::uint64_t before = victim.state_signature();
  auto expect_rejected = [&](const std::vector<std::byte>& payload,
                             const char* what) {
    EXPECT_THROW(victim.restore_state(payload), util::CheckError) << what;
    EXPECT_EQ(victim.state_signature(), before) << what;
  };

  // A hop count the payload cannot hold: no allocation is attempted.
  std::vector<std::byte> huge = state;
  ASSERT_GT(huge[kFirstHopCount], std::byte{0}) << "flowlet 0 has no path";
  put_u32(huge, kFirstHopCount, 0xFFFFFFFFu);
  expect_rejected(huge, "hop count 0xFFFFFFFF");

  // Hop edges outside the topology, behind a valid signature.
  for (const std::int32_t edge :
       {std::int32_t{-1}, static_cast<std::int32_t>(topology.edge_count())}) {
    std::vector<std::byte> bad_edge = state;
    put_u32(bad_edge, kFirstHopEdge, static_cast<std::uint32_t>(edge));
    resign(bad_edge);
    expect_rejected(bad_edge, "out-of-range hop edge");
  }

  // Flowlet 0 filed under OD 1, behind a valid signature.
  std::vector<std::byte> bad_od = state;
  put_u32(bad_od, kFirstOd, 1);
  resign(bad_od);
  expect_rejected(bad_od, "flowlet under the wrong OD");

  // The untampered payload still restores.
  victim.restore_state(state);
  EXPECT_EQ(victim.state_signature(), sim.state_signature());
}

// dataplane.round.seconds times every run_round exactly once.
TEST(DataplaneDifferential, EveryRoundObservesTheRoundHistogram) {
  const FirstRound fixture(53);
  dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                              fixture.config);
  const obs::Histogram& seconds =
      obs::Registry::global().histogram("dataplane.round.seconds");
  const std::uint64_t before = seconds.count();
  constexpr std::uint64_t kRounds = 3;
  for (std::uint64_t r = 0; r < kRounds; ++r)
    sim.run_round(fixture.assignment, fixture.timeline);
  EXPECT_EQ(seconds.count() - before, kRounds);
}

// The quantum (docs/DATAPLANE.md §2): sources inject whole quanta and
// carry the remainder. An OD at the oracle's smallest scored allocation
// (dataplane::kMinAllocGbps, 1 Mbps: 5000 quanta per flowlet per tick)
// and one whose flowlets generate 19.5 quanta per tick, where rounding
// down without the carry would lose 2.6%, both hold the 2% gap over 16
// clean rounds.
TEST(DataplaneDifferential, SmallAllocationsHoldTheGapOverCleanRounds) {
  const FirstRound fixture(59);
  const double quanta_per_gbps_tick = fixture.config.tick_seconds * 1e9 /
                                      8.0 *
                                      static_cast<double>(
                                          dataplane::kQuantaPerByte);
  const double allocations[] = {
      dataplane::kMinAllocGbps,
      19.5 * static_cast<double>(fixture.config.flowlets_per_od) /
          quanta_per_gbps_tick};
  // Each allocation replaces a routed OD's split with its first path.
  te::FlowAssignment assignment = fixture.assignment;
  std::vector<std::size_t> small;
  for (std::size_t od = 0;
       od < assignment.routings.size() && small.size() < 2; ++od) {
    te::FlowAssignment::DemandRouting& routing = assignment.routings[od];
    if (routing.paths.empty()) continue;
    const util::Gbps gbps{allocations[small.size()]};
    routing.paths.resize(1);
    routing.paths[0].second = gbps;
    routing.routed = gbps;
    small.push_back(od);
  }
  ASSERT_EQ(small.size(), 2u);

  dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                              fixture.config);
  for (int round = 0; round < 16; ++round) {
    const dataplane::RoundResult result =
        sim.run_round(assignment, fixture.timeline);
    for (const std::size_t od : small) {
      const double alloc = assignment.routings[od].routed.value;
      const double gap = (alloc - result.od_goodput_gbps[od]) / alloc;
      EXPECT_LE(std::abs(gap), dataplane::kGapTolerance)
          << "round " << round << " od " << od << " at " << alloc << " Gbps";
    }
  }
}

// Whole-quantum ledgers conserve exactly, through migrations, draining
// pipelines and re-installs: injected == delivered + dropped + inflight
// after every one of 64 rounds that alternate between two plans.
TEST(DataplaneDifferential, ConservationIsExactOverMigratingRounds) {
  const FirstRound fixture(61);
  const te::McfTe engine;
  core::DynamicCapacityController controller(
      fixture.topology, optical::ModulationTable::standard(), engine, {});
  std::vector<util::Db> snr(fixture.topology.edge_count(), util::Db{20.0});
  const std::vector<double>& load = fixture.assignment.edge_load_gbps;
  std::size_t busiest = 0;
  for (std::size_t e = 1; e < load.size(); ++e)
    if (load[e] > load[busiest]) busiest = e;
  snr[busiest] = util::Db{8.0};
  controller.run_round(snr, fixture.demands);
  const te::FlowAssignment faded = controller.last_assignment();

  dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                              fixture.config);
  std::uint64_t migrations = 0;
  for (int round = 0; round < 64; ++round) {
    const dataplane::RoundResult result = sim.run_round(
        round % 2 == 0 ? fixture.assignment : faded, fixture.timeline);
    migrations += result.migrations;
    EXPECT_EQ(result.injected_bytes, result.delivered_bytes +
                                         result.dropped_bytes +
                                         result.inflight_bytes)
        << "round " << round;
  }
  EXPECT_GT(migrations, 0u) << "the plans must move flowlets";
}

// The dataplane-backed counter source (docs/DATAPLANE.md §6): on a clean
// measured round every link reconciles with the installed analytic model,
// the exported counters equal the synthetic zero-noise stream
// byte-for-byte, and the estimator certifies exact recovery from them.
TEST(DataplaneDifferential, CleanRoundCountersCertifyExactRecovery) {
  util::Rng topo_rng = util::Rng::stream(37, 810);
  const graph::Graph topology = sim::waxman(8, topo_rng);
  util::Rng demand_rng = util::Rng::stream(37, 811);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value * 0.3};
  te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, demand_rng);
  for (te::Demand& demand : demands)
    demand.volume = util::Gbps{demand::snap_to_grid(demand.volume.value)};

  const te::McfTe engine;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, {});
  const std::vector<util::Db> snr(topology.edge_count(), util::Db{20.0});
  controller.run_round(snr, demands);
  const te::FlowAssignment& assignment = controller.last_assignment();

  // Steady capacities, no schedule: the whole trailing half measures.
  const std::span<const util::Gbps> configured =
      controller.configured_capacities();
  const std::vector<util::Gbps> caps(configured.begin(), configured.end());
  dataplane::DataplaneConfig dp_config;
  const dataplane::CapacityTimeline timeline = dataplane::build_timeline(
      caps, caps, nullptr, dp_config.ticks_per_round, dp_config.tick_seconds);
  dataplane::DataplaneSim sim(topology, demands.size(), dp_config);
  const dataplane::RoundResult result = sim.run_round(assignment, timeline);

  std::vector<double> volumes;
  for (const te::Demand& demand : demands)
    volumes.push_back(demand.volume.value);
  const demand::RoutingMatrix matrix =
      demand::build_routing_matrix(topology.edge_count(), demands, assignment);

  const std::vector<demand::DataplaneLinkObservation> observations =
      dataplane::counter_observations(result, matrix, volumes);
  std::size_t reconciled = 0;
  for (const demand::DataplaneLinkObservation& obs : observations)
    reconciled += obs.reconcilable ? 1 : 0;
  EXPECT_EQ(reconciled, observations.size())
      << "a clean measured round must reconcile every link";

  demand::DemandConfig demand_config;
  const demand::CounterSet set = demand::counters_from_observations(
      matrix, volumes, observations, demand_config.interval_seconds, 1);
  // Byte-for-byte the zero-noise synthetic stream (the estimator's
  // record/replay substrate, so the log composes with both sources).
  const demand::CounterSet synthetic =
      demand::synthesize_counters(matrix, volumes, {}, demand_config, 1);
  ASSERT_EQ(set.samples.size(), synthetic.samples.size());
  for (std::size_t i = 0; i < set.samples.size(); ++i)
    EXPECT_EQ(set.samples[i], synthetic.samples[i]) << "link " << i;

  demand::CounterLog log(4);
  log.append(set);
  ASSERT_EQ(log.size(), 1u);

  const demand::EstimateResult estimate = demand::estimate_od_volumes(
      matrix, log.at(0), volumes, {}, demand_config);
  EXPECT_TRUE(estimate.stats.exact)
      << "exact-recovery certificate must fire on reconciled counters";
  ASSERT_EQ(estimate.volumes.size(), volumes.size());
  for (std::size_t j = 0; j < volumes.size(); ++j)
    EXPECT_EQ(estimate.volumes[j], volumes[j]) << "od " << j;
}

// A mid-measurement downshift breaks reconciliation on the affected
// links: the source degrades to raw measured counters instead of lying
// with the analytic model.
TEST(DataplaneDifferential, CongestedRoundDoesNotReconcile) {
  util::Rng topo_rng = util::Rng::stream(41, 810);
  const graph::Graph topology = sim::waxman(8, topo_rng);
  util::Rng demand_rng = util::Rng::stream(41, 811);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value * 0.4};
  te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, demand_rng);

  const te::McfTe engine;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, {});
  const std::vector<util::Db> snr(topology.edge_count(), util::Db{20.0});
  controller.run_round(snr, demands);
  const te::FlowAssignment& assignment = controller.last_assignment();

  const std::span<const util::Gbps> configured =
      controller.configured_capacities();
  const std::vector<util::Gbps> caps(configured.begin(), configured.end());
  dataplane::DataplaneConfig dp_config;
  dataplane::CapacityTimeline timeline = dataplane::build_timeline(
      caps, caps, nullptr, dp_config.ticks_per_round, dp_config.tick_seconds);
  const std::vector<double>& load = assignment.edge_load_gbps;
  std::size_t busiest = 0;
  for (std::size_t e = 1; e < load.size(); ++e)
    if (load[e] > load[busiest]) busiest = e;
  ASSERT_GT(load[busiest], 0.0);
  timeline.add_event(
      busiest,
      static_cast<std::uint32_t>(dp_config.ticks_per_round * 3 / 4),
      load[busiest] * 0.25);

  dataplane::DataplaneSim sim(topology, demands.size(), dp_config);
  const dataplane::RoundResult result = sim.run_round(assignment, timeline);

  std::vector<double> volumes;
  for (const te::Demand& demand : demands)
    volumes.push_back(demand.volume.value);
  const demand::RoutingMatrix matrix =
      demand::build_routing_matrix(topology.edge_count(), demands, assignment);
  const std::vector<demand::DataplaneLinkObservation> observations =
      dataplane::counter_observations(result, matrix, volumes);
  EXPECT_FALSE(observations[busiest].reconcilable)
      << "the downshifted link must not reconcile";
  // The degraded export still feeds the estimator without tripping it.
  demand::DemandConfig demand_config;
  const demand::CounterSet set = demand::counters_from_observations(
      matrix, volumes, observations, demand_config.interval_seconds, 1);
  const demand::EstimateResult estimate = demand::estimate_od_volumes(
      matrix, set, volumes, {}, demand_config);
  for (const double volume : estimate.volumes) {
    EXPECT_TRUE(std::isfinite(volume));
    EXPECT_GE(volume, 0.0);
  }
}

}  // namespace
}  // namespace rwc
