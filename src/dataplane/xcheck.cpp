#include "dataplane/xcheck.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

#include "core/controller.hpp"
#include "exec/thread_pool.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"

namespace rwc::dataplane {

namespace {

inline std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  return hash;
}

/// Relative conservation slack: long rounds accumulate ulp-level error in
/// the byte ledgers.
constexpr double kConservationRelTol = 1e-9;
constexpr double kConservationAbsTolBytes = 1.0;

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  std::vector<std::vector<util::Db>> snr_rounds;
};

Fixture make_fixture(const XcheckConfig& config) {
  Fixture fixture;
  util::Rng topo_rng = util::Rng::stream(config.seed, 810);
  fixture.topology = sim::waxman(config.nodes, topo_rng);
  util::Rng demand_rng = util::Rng::stream(config.seed, 811);
  const util::Gbps total{fixture.topology.total_capacity().value *
                         config.demand_load};
  if (config.demand_aware) {
    sim::DemandAwareParams params;
    params.total = total;
    fixture.demands =
        sim::demand_aware_matrix(fixture.topology, params, demand_rng);
  } else {
    sim::GravityParams gravity;
    gravity.total = total;
    fixture.demands =
        sim::gravity_matrix(fixture.topology, gravity, demand_rng);
  }
  // SNR random walk between deep fade and strong headroom: rounds carry
  // flaps, restorations and TE upgrades — real transition material.
  util::Rng snr_rng = util::Rng::stream(config.seed, 812);
  const std::size_t edges = fixture.topology.edge_count();
  std::vector<util::Db> snr(edges, util::Db{20.0});
  for (std::size_t r = 0; r < config.rounds; ++r) {
    for (std::size_t e = 0; e < edges; ++e) {
      double db = snr[e].value + snr_rng.uniform(-3.0, 3.0);
      snr[e] = util::Db{std::clamp(db, 8.0, 24.0)};
    }
    fixture.snr_rounds.push_back(snr);
  }
  return fixture;
}

void fail(XcheckOutcome& outcome, std::string message) {
  if (outcome.pass) {
    outcome.pass = false;
    outcome.failure = std::move(message);
  }
}

}  // namespace

XcheckOutcome run_xcheck(const XcheckConfig& config) {
  const Fixture fixture = make_fixture(config);
  const std::size_t edges = fixture.topology.edge_count();

  core::ControllerOptions options;
  options.pool = config.pool;
  if (config.schedule_updates) {
    update::SchedulerConfig update;
    update.headroom = 0.1;
    update.seed = config.seed;
    options.update = update;
  }
  const te::McfTe mcf;
  const te::SwanTe swan;
  const te::TeAlgorithm& engine =
      config.engine == XcheckEngine::kMcf
          ? static_cast<const te::TeAlgorithm&>(mcf)
          : static_cast<const te::TeAlgorithm&>(swan);
  auto controller = std::make_unique<core::DynamicCapacityController>(
      fixture.topology, optical::ModulationTable::standard(), engine,
      options);

  const DataplaneConfig& dp_config = config.dataplane;
  auto sim = std::make_unique<DataplaneSim>(
      fixture.topology, fixture.demands.size(), dp_config);

  XcheckOutcome outcome;
  outcome.chain = 0x78636865636bull;  // "xcheck"
  for (std::size_t r = 0; r < config.rounds; ++r) {
    if (r == config.checkpoint_round) {
      // Restore-then-continue must be invisible: rebuild both the
      // controller and the dataplane from their captured state.
      core::DynamicCapacityController::PersistentState ctrl_state =
          controller->save_state();
      const std::vector<std::byte> dp_state = sim->save_state();
      controller = std::make_unique<core::DynamicCapacityController>(
          fixture.topology, optical::ModulationTable::standard(), engine,
          options);
      controller->restore_state(std::move(ctrl_state));
      sim = std::make_unique<DataplaneSim>(
          fixture.topology, fixture.demands.size(), dp_config);
      sim->restore_state(dp_state);
    }

    const std::span<const util::Gbps> configured =
        controller->configured_capacities();
    const std::vector<util::Gbps> before(configured.begin(),
                                         configured.end());
    const core::DynamicCapacityController::RoundReport report =
        controller->run_round(fixture.snr_rounds[r], fixture.demands);
    const std::span<const util::Gbps> after =
        controller->configured_capacities();

    const update::UpdateSchedule* schedule =
        report.update.has_value() && report.update_valid
            ? &*report.update
            : nullptr;
    CapacityTimeline timeline = build_timeline(
        before, after, schedule, dp_config.ticks_per_round,
        dp_config.tick_seconds);

    XcheckRound round;
    round.scheduled = schedule != nullptr;
    if (r == config.downshift_round && edges > 0) {
      // Force an UNSCHEDULED mid-round downshift of the busiest link:
      // the HPCC reaction leg. The tick sits inside the measurement
      // region on purpose — the shortfall clause is exempted below.
      const std::vector<double>& load =
          controller->last_assignment().edge_load_gbps;
      std::size_t busiest = 0;
      for (std::size_t e = 1; e < load.size(); ++e)
        if (load[e] > load[busiest]) busiest = e;
      const double now = timeline.capacity_gbps(
          busiest, dp_config.ticks_per_round - 1);
      timeline.add_event(
          busiest,
          static_cast<std::uint32_t>(dp_config.ticks_per_round * 5 / 8),
          now * config.downshift_factor);
      round.downshifted = true;
    }

    const RoundResult result =
        sim->run_round(controller->last_assignment(), timeline);

    // Gap oracle against the solver allocation.
    const te::FlowAssignment& assignment = controller->last_assignment();
    for (std::size_t i = 0; i < assignment.routings.size(); ++i) {
      const double alloc = assignment.routings[i].routed.value;
      if (alloc < config.min_alloc_gbps) continue;
      const double goodput = result.od_goodput_gbps[i];
      round.total_alloc_gbps += alloc;
      round.total_goodput_gbps += goodput;
      round.max_shortfall =
          std::max(round.max_shortfall, (alloc - goodput) / alloc);
      round.max_overshoot =
          std::max(round.max_overshoot, (goodput - alloc) / alloc);
    }
    round.capacity_violations = result.capacity_violations;
    round.window_violations = result.window_violations;
    round.migrations = result.migrations;
    round.rate_cuts = result.rate_cuts;
    round.delivered_bytes = result.delivered_bytes;
    round.dropped_bytes = result.dropped_bytes;
    for (const LinkRoundStats& link : result.links)
      round.max_queued_bytes =
          std::max(round.max_queued_bytes, link.max_queued_bytes);
    round.signature = result.signature;

    if (!round.downshifted && round.max_shortfall > config.gap_tolerance)
      fail(outcome, "round " + std::to_string(r) + ": goodput shortfall " +
                        std::to_string(round.max_shortfall) + " > " +
                        std::to_string(config.gap_tolerance));
    if (round.max_overshoot > config.overshoot_tolerance)
      fail(outcome, "round " + std::to_string(r) + ": goodput overshoot " +
                        std::to_string(round.max_overshoot) + " > " +
                        std::to_string(config.overshoot_tolerance));
    if (round.capacity_violations > 0)
      fail(outcome, "round " + std::to_string(r) +
                        ": capacity violated outside update windows");
    if (round.downshifted && round.rate_cuts == 0)
      fail(outcome, "round " + std::to_string(r) +
                        ": forced downshift produced no HPCC rate cuts");
    const double ledger = result.delivered_bytes + result.dropped_bytes +
                          result.inflight_bytes;
    if (std::abs(ledger - result.injected_bytes) >
        result.injected_bytes * kConservationRelTol +
            kConservationAbsTolBytes)
      fail(outcome, "round " + std::to_string(r) +
                        ": byte conservation broken (injected " +
                        std::to_string(result.injected_bytes) +
                        " vs accounted " + std::to_string(ledger) + ")");

    outcome.max_shortfall =
        std::max(outcome.max_shortfall, round.downshifted
                                            ? 0.0
                                            : round.max_shortfall);
    outcome.max_overshoot =
        std::max(outcome.max_overshoot, round.max_overshoot);
    outcome.capacity_violations += round.capacity_violations;
    outcome.window_violations += round.window_violations;
    outcome.migrations += round.migrations;
    outcome.chain = mix64(outcome.chain, round.signature);
    outcome.chain = mix64(
        outcome.chain, std::bit_cast<std::uint64_t>(round.max_shortfall));
    outcome.rounds.push_back(round);
  }
  return outcome;
}

}  // namespace rwc::dataplane
