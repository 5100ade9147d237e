#include "dataplane/xcheck.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/controller.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rwc::dataplane {

namespace {

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

XcheckOutcome run_xcheck(const XcheckConfig& config,
                         const XcheckObserver& observer) {
  const Fixture fixture = make_fixture(config);
  const std::size_t edges = fixture.topology.edge_count();

  core::ControllerOptions options;
  options.pool = config.pool;
  update::SchedulerConfig update;
  update.headroom = 0.1;
  update.seed = config.seed;
  options.update = update;
  const te::McfTe mcf;
  const te::SwanTe swan;
  const te::TeAlgorithm& engine =
      config.engine == XcheckEngine::kMcf
          ? static_cast<const te::TeAlgorithm&>(mcf)
          : static_cast<const te::TeAlgorithm&>(swan);
  const auto make_loop = [&] {
    return std::make_unique<ClosedLoop>(fixture.topology, fixture.demands,
                                        engine, options, config.dataplane);
  };
  std::unique_ptr<ClosedLoop> loop = make_loop();

  XcheckOutcome outcome;
  outcome.chain = 0x78636865636bull;  // "xcheck"
  for (std::size_t r = 0; r < config.rounds; ++r) {
    if (r == config.checkpoint_round) {
      // Restore-then-continue must be invisible.
      ClosedLoop::State state = loop->save_state();
      loop = make_loop();
      loop->restore_state(std::move(state));
    }

    XcheckRound round;
    const ClosedLoop::Round step = loop->step(
        fixture.snr_rounds[r],
        [&](const te::FlowAssignment& assignment, CapacityTimeline& timeline) {
          if (r != config.downshift_round || edges == 0) return;
          // Force an UNSCHEDULED mid-round downshift of the busiest link:
          // the HPCC reaction leg. The tick sits inside the measurement
          // region on purpose — the shortfall clause is exempted below.
          const std::vector<double>& load = assignment.edge_load_gbps;
          std::size_t busiest = 0;
          for (std::size_t e = 1; e < load.size(); ++e)
            if (load[e] > load[busiest]) busiest = e;
          const std::size_t ticks = timeline.ticks;
          const double now = timeline.capacity_gbps(busiest, ticks - 1);
          timeline.add_event(busiest,
                             static_cast<std::uint32_t>(ticks * 5 / 8),
                             now * config.downshift_factor);
          round.downshifted = true;
        });
    if (observer) observer(r, *loop, step);
    round.scheduled = step.report.execution.has_value();
    const RoundResult& result = step.result;

    // Gap oracle against the solver allocation.
    const te::FlowAssignment& assignment =
        step.report.plan.physical_assignment;
    for (std::size_t i = 0; i < assignment.routings.size(); ++i) {
      const double alloc = assignment.routings[i].routed.value;
      if (alloc < kMinAllocGbps) continue;
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
    const auto bytes = [](std::uint64_t quanta) {
      return static_cast<double>(quanta) /
             static_cast<double>(kQuantaPerByte);
    };
    round.delivered_bytes = bytes(result.delivered_bytes);
    round.dropped_bytes = bytes(result.dropped_bytes);
    for (const LinkRoundStats& link : result.links)
      round.max_queued_bytes =
          std::max(round.max_queued_bytes, bytes(link.max_queued_bytes));
    round.signature = result.signature;

    if (!round.downshifted && round.max_shortfall > kGapTolerance)
      fail(outcome, "round " + std::to_string(r) + ": goodput shortfall " +
                        std::to_string(round.max_shortfall) + " > " +
                        std::to_string(kGapTolerance));
    if (round.max_overshoot > kOvershootTolerance)
      fail(outcome, "round " + std::to_string(r) + ": goodput overshoot " +
                        std::to_string(round.max_overshoot) + " > " +
                        std::to_string(kOvershootTolerance));
    if (round.capacity_violations > 0)
      fail(outcome, "round " + std::to_string(r) +
                        ": capacity violated outside update windows");
    if (round.downshifted && round.rate_cuts == 0)
      fail(outcome, "round " + std::to_string(r) +
                        ": forced downshift produced no HPCC rate cuts");
    // Whole-quantum ledgers: conservation is an exact equality.
    const std::uint64_t ledger = result.delivered_bytes +
                                 result.dropped_bytes + result.inflight_bytes;
    if (ledger != result.injected_bytes)
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
    outcome.chain = util::combine64(outcome.chain, round.signature);
    outcome.chain =
        util::combine_double(outcome.chain, round.max_shortfall);
    outcome.rounds.push_back(round);
  }
  return outcome;
}

}  // namespace rwc::dataplane
