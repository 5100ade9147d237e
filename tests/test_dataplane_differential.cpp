// Differential tests of the dataplane against the solver allocation
// (docs/DATAPLANE.md §5): the gap oracle for both TE engines over two
// seeds, capacity safety, bitwise determinism across thread-pool sizes,
// save/restore-then-continue, restore's range checks, a pinned state
// signature, packet faults on one member of a class, and the
// dataplane-backed demand counter source certifying exact recovery on a
// clean round.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/counters.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/xcheck.hpp"
#include "demand/estimator.hpp"
#include "demand/routing_matrix.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/path_reference.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"
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
  const dataplane::DataplaneSim::State state = sim.save_state();

  dataplane::DataplaneSim restored(topology, 12, config);
  restored.restore_state(state);
  EXPECT_EQ(restored.state_signature(), sim.state_signature());
  EXPECT_TRUE(restored.save_state() == state);

  // Mismatched shape (different OD count) is rejected.
  dataplane::DataplaneSim other(topology, 13, config);
  EXPECT_THROW(other.restore_state(state), util::CheckError);
}

// Pins the transition paths behind the saved state: a re-install that
// migrates flowlets with bytes still in flight (draining pipelines), then
// a round with one OD's routing emptied (its sources stop and its active
// pipelines retire to draining). The pinned final state_signature() moves
// with any change to the tick arithmetic or to the state it leaves.
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

  EXPECT_EQ(sim.state_signature(), 0x9e1f96cc4b72c0cdull)
      << std::hex << sim.state_signature();
}

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

// restore_state must refuse, with CheckError, any state that run_round
// would index out of range or convert out of range, and leave the sim
// untouched.
TEST(DataplaneDifferential, RestoreRejectsOutOfRangeState) {
  using State = dataplane::DataplaneSim::State;
  const FirstRound fixture(47);
  const graph::Graph& topology = fixture.topology;
  dataplane::DataplaneSim sim(topology, fixture.demands.size(),
                              fixture.config);
  sim.run_round(fixture.assignment, fixture.timeline);
  const State state = sim.save_state();
  ASSERT_GE(state.classes.size(), 2u) << "the round left fewer than 2 classes";
  ASSERT_NE(state.classes[0].od, state.classes[1].od)
      << "classes 0 and 1 share an OD";

  dataplane::DataplaneSim victim(topology, fixture.demands.size(),
                                 fixture.config);
  const std::uint64_t before = victim.state_signature();
  auto expect_rejected = [&](const char* what, auto&& edit) {
    State bad = state;
    edit(bad);
    EXPECT_THROW(victim.restore_state(bad), util::CheckError) << what;
    EXPECT_EQ(victim.state_signature(), before) << what;
  };
  auto first_hop = [](State& s) -> State::Hop& {
    return s.classes[0].active.hops[0];
  };
  // A flowlet of class 0's OD that picks it.
  auto member_of_first = [&](const State& s) {
    const std::size_t kF = fixture.config.flowlets_per_od;
    std::size_t f = s.classes[0].od * kF;
    while (s.picks[f] != s.classes[0].active.path_id) ++f;
    return f;
  };
  const std::int32_t edges = static_cast<std::int32_t>(topology.edge_count());
  constexpr std::uint64_t k2p53 = std::uint64_t{1} << 53;

  expect_rejected("hop edge -1", [&](State& s) { first_hop(s).edge = -1; });
  expect_rejected("hop edge == edge_count",
                  [&](State& s) { first_hop(s).edge = edges; });
  expect_rejected("class under no OD", [&](State& s) {
    s.classes.back().od = static_cast<std::uint32_t>(s.ods.size());
  });
  expect_rejected("classes out of OD order",
                  [](State& s) { std::swap(s.classes[0], s.classes[1]); });
  expect_rejected("two classes on one path", [](State& s) {
    s.classes.insert(s.classes.begin() + 1, s.classes[0]);
  });
  expect_rejected("class without a path",
                  [](State& s) { s.classes[0].active.hops.clear(); });
  expect_rejected("pick naming no class of its OD", [&](State& s) {
    s.picks[member_of_first(s)] = s.classes[1].active.path_id;
  });
  expect_rejected("class without members", [&](State& s) {
    for (std::uint64_t& pick : s.picks)
      if (pick == s.classes[0].active.path_id) pick = 0;
  });
  expect_rejected("NaN rate", [](State& s) {
    s.classes[0].rate_gbps = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected("negative rate",
                  [](State& s) { s.classes[0].offered_gbps = -1.0; });
  expect_rejected("carry 1.0", [](State& s) { s.classes[0].carry = 1.0; });
  expect_rejected("2^53 quanta",
                  [&](State& s) { first_hop(s).queued = k2p53; });
  expect_rejected("2^53 deferred quanta",
                  [](State& s) { s.classes[0].deferred = k2p53; });
  expect_rejected("2^53 parked quanta",
                  [](State& s) { s.ods[0].parked = k2p53; });
  // Two hops of 2^52 quanta each on one link: each count is in range,
  // their per-link total is not.
  expect_rejected("per-link total of 2^53", [&](State& s) {
    State::Hop& other = s.classes[1].active.hops.at(0);
    first_hop(s).queued = k2p53 / 2;
    other = first_hop(s);
  });
  expect_rejected("one flowlet too few", [](State& s) { s.picks.pop_back(); });
  expect_rejected("one OD too few", [](State& s) { s.ods.pop_back(); });
  expect_rejected("one link too few",
                  [](State& s) { s.link_util.pop_back(); });

  // The untouched state still restores.
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

// dataplane.packet faults on aggregates (docs/DATAPLANE.md §7): a plan
// that hits one member of a class on every tick, and no other flowlet,
// leaves the class whole, and each outcome adds that member's quanta to
// the class's totals. At half load no rate is cut and no buffer
// overflows, so every class generates, per member, the whole quanta of
// its offered rate plus its carry, and the OD's ledger deltas are sums
// over members: a drop charges the member's quanta as injected and as
// dropped, a duplicate charges them twice, and a delay leaves its last
// tick's quanta deferred.
TEST(DataplaneDifferential, PacketFaultsOnOneMemberAddToItsClassTotals) {
  using State = dataplane::DataplaneSim::State;
  FirstRound fixture(67);
  for (te::FlowAssignment::DemandRouting& routing :
       fixture.assignment.routings) {
    for (auto& [path, volume] : routing.paths)
      volume = util::Gbps{volume.value * 0.5};
    routing.routed = util::Gbps{routing.routed.value * 0.5};
  }
  const std::size_t kF = fixture.config.flowlets_per_od;
  const double quanta_per_gbps_tick =
      fixture.config.tick_seconds * 1e9 / 8.0 *
      static_cast<double>(dataplane::kQuantaPerByte);
  auto members = [kF](const State& state, const State::Class& cls) {
    std::vector<std::size_t> out;
    for (std::size_t f = cls.od * kF; f < (cls.od + 1) * kF; ++f)
      if (state.picks[f] == cls.active.path_id) out.push_back(f);
    return out;
  };

  // The class to hit: the first with at least two members.
  dataplane::DataplaneSim probe(fixture.topology, fixture.demands.size(),
                                fixture.config);
  probe.run_round(fixture.assignment, fixture.timeline);
  const State placed = probe.save_state();
  std::size_t target = 0;
  while (target < placed.classes.size() &&
         members(placed, placed.classes[target]).size() < 2)
    ++target;
  ASSERT_LT(target, placed.classes.size());
  const std::uint32_t od = placed.classes[target].od;
  const std::uint64_t path = placed.classes[target].active.path_id;
  const std::size_t hit = members(placed, placed.classes[target])[1];

  for (const std::string kind : {"drop", "duplicate", "delay"}) {
    SCOPED_TRACE(kind);
    // Keys are tick * flowlets + flowlet, so period `flowlets` at offset
    // `hit` fires for that flowlet on every tick and for no other.
    const fault::ScopedPlan armed(fault::FaultPlan::parse(
        "dataplane.packet%" + std::to_string(placed.picks.size()) + "@" +
        std::to_string(hit) + ":" + kind));
    dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                                fixture.config);
    State before = sim.save_state();
    for (int round = 0; round < 3; ++round) {
      const dataplane::RoundResult result =
          sim.run_round(fixture.assignment, fixture.timeline);
      const State after = sim.save_state();
      ASSERT_EQ(result.rate_cuts, 0u) << "round " << round;
      for (const dataplane::LinkRoundStats& link : result.links)
        ASSERT_EQ(link.dropped_bytes, 0u) << "round " << round;
      EXPECT_LE(after.classes.size(),
                dataplane::reference::od_path_pairs(after))
          << "round " << round;
      EXPECT_EQ(dataplane::reference::unbalanced_od(after), "")
          << "round " << round;

      // Per class of the OD: its members' generation over the round,
      // from its rate and its carry when the round began.
      std::uint64_t generated = 0, hit_generated = 0, hit_last = 0;
      const State::Class* hit_class = nullptr;
      for (const State::Class& cls : after.classes) {
        if (cls.od != od) continue;
        ASSERT_EQ(cls.rate_gbps, cls.offered_gbps) << "round " << round;
        double carry = 0.0;
        for (const State::Class& old : before.classes)
          if (old.od == od && old.active.path_id == cls.active.path_id)
            carry = old.carry;
        std::uint64_t sum = 0, last = 0;
        for (std::size_t t = 0; t < fixture.config.ticks_per_round; ++t) {
          const double generating =
              cls.rate_gbps * quanta_per_gbps_tick + carry;
          last = static_cast<std::uint64_t>(generating);
          carry = generating - static_cast<double>(last);
          sum += last;
        }
        EXPECT_EQ(cls.carry, carry) << "round " << round;
        generated += members(after, cls).size() * sum;
        if (cls.active.path_id == path) {
          hit_class = &cls;
          hit_generated = sum;
          hit_last = last;
        }
      }
      ASSERT_NE(hit_class, nullptr) << "round " << round;
      ASSERT_GE(members(after, *hit_class).size(), 2u) << "round " << round;
      ASSERT_GT(hit_generated, 0u) << "round " << round;
      const dataplane::DataplaneSim::Ledger& then = before.ods[od].ledger;
      const dataplane::DataplaneSim::Ledger& now = after.ods[od].ledger;
      EXPECT_EQ(now.injected - then.injected,
                generated + (kind == "duplicate" ? hit_generated : 0))
          << "round " << round;
      EXPECT_EQ(now.dropped - then.dropped,
                kind == "drop" ? hit_generated : 0)
          << "round " << round;
      EXPECT_EQ(hit_class->deferred, kind == "delay" ? hit_last : 0)
          << "round " << round;
      before = after;
    }
    EXPECT_EQ(fault::Registry::global().injected("dataplane.packet"),
              3 * fixture.config.ticks_per_round);
  }
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
