#include "sim/simulator.hpp"

#include <algorithm>
#include <vector>

#include "core/controller.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace rwc::sim {

using graph::EdgeId;
using util::Db;
using util::Gbps;
using util::Seconds;

const char* to_string(CapacityPolicy policy) {
  switch (policy) {
    case CapacityPolicy::kStatic:
      return "static-100";
    case CapacityPolicy::kStaticAggressive:
      return "static-aggressive";
    case CapacityPolicy::kDynamic:
      return "dynamic";
    case CapacityPolicy::kDynamicHitless:
      return "dynamic-hitless";
  }
  return "unknown";
}

WanSimulator::WanSimulator(graph::Graph topology,
                           const te::TeAlgorithm& engine,
                           SimulationConfig config)
    : topology_(std::move(topology)), engine_(engine), config_(config) {
  RWC_EXPECTS(topology_.edge_count() % 2 == 0);
  RWC_EXPECTS(config_.horizon > 0.0);
  RWC_EXPECTS(config_.te_interval > 0.0);
}

SimulationMetrics WanSimulator::run(const te::TrafficMatrix& base_demands) {
  const auto table = optical::ModulationTable::standard();
  const std::size_t edges = topology_.edge_count();

  // One fiber per bidirectional pair, one wavelength per direction.
  telemetry::SnrFleetGenerator::FleetParams fleet_params;
  fleet_params.fiber_count = static_cast<int>(edges / 2);
  fleet_params.wavelengths_per_fiber = 2;
  fleet_params.duration = config_.horizon + config_.te_interval;
  fleet_params.interval = config_.te_interval;
  fleet_params.model = config_.snr_model;
  telemetry::SnrFleetGenerator fleet(fleet_params, config_.seed);
  // Traces are pure per (fiber, lambda), so the fleet can be generated in
  // parallel with results landing in edge order — identical to the serial
  // loop at every pool size.
  exec::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : exec::ThreadPool::global();
  const std::vector<telemetry::SnrTrace> traces = exec::parallel_map(
      pool, edges, [&](std::size_t e) {
        return fleet.generate_trace(static_cast<int>(e / 2),
                                    static_cast<int>(e % 2));
      });

  const bool dynamic = config_.policy == CapacityPolicy::kDynamic ||
                       config_.policy == CapacityPolicy::kDynamicHitless;
  RoundAccount account(config_.latency,
                       config_.policy == CapacityPolicy::kDynamicHitless
                           ? bvt::Procedure::kEfficient
                           : bvt::Procedure::kStandard,
                       config_.te_interval, config_.seed);
  SimulationMetrics& metrics = account.metrics;

  // Dynamic policies share one controller across rounds.
  core::ControllerOptions controller_options;
  controller_options.snr_margin = config_.snr_margin;
  controller_options.pool = config_.pool;
  controller_options.demand = config_.demand;
  core::DynamicCapacityController controller(topology_, table, engine_,
                                             controller_options);

  // Static policies track binary link state themselves.
  graph::Graph static_topology = topology_;
  const Gbps static_rate = config_.policy == CapacityPolicy::kStatic
                               ? Gbps{100.0}
                               : config_.static_capacity;
  if (!dynamic) RWC_EXPECTS(table.has_rate(static_rate));
  std::vector<bool> static_up(edges, true);
  const double tick_hours = config_.te_interval / util::kHour;

  const auto ticks = static_cast<std::size_t>(config_.horizon /
                                              config_.te_interval);
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    const Seconds now = static_cast<double>(tick) * config_.te_interval;
    const te::TrafficMatrix demands =
        config_.diurnal ? scale_matrix(base_demands, diurnal_factor(now))
                        : base_demands;
    std::vector<Db> snr(edges);
    for (std::size_t e = 0; e < edges; ++e)
      snr[e] = traces[e].at(std::min(tick, traces[e].size() - 1));

    if (dynamic) {
      account.charge(demands, controller.run_round(snr, demands), controller);
      continue;
    }

    // Static policy: binary up/down at the fixed rate's threshold.
    metrics.offered_gbps_hours += te::total_demand(demands).value * tick_hours;
    ++metrics.te_rounds;
    const Db threshold = table.threshold_for(static_rate);
    std::size_t links_up = 0;
    for (std::size_t e = 0; e < edges; ++e) {
      const bool up = snr[e] >= threshold + config_.snr_margin;
      if (!up && static_up[e]) ++metrics.link_failures;
      static_up[e] = up;
      if (up) ++links_up;
      static_topology.edge(EdgeId{static_cast<std::int32_t>(e)}).capacity =
          up ? static_rate : Gbps{0.0};
    }
    const double routed =
        engine_.solve(static_topology, demands).total_routed.value;
    metrics.delivered_gbps_hours += std::max(0.0, routed * tick_hours);
    metrics.availability +=
        static_cast<double>(links_up) / static_cast<double>(edges);
  }
  return account.totals();
}

RoundAccount::RoundAccount(const bvt::LatencyModelParams& latency,
                           bvt::Procedure procedure, Seconds te_interval,
                           std::uint64_t seed)
    : latency(latency),
      procedure(procedure),
      te_interval(te_interval),
      rng(seed ^ 0x1A7E9C5ull) {}

void RoundAccount::charge(
    const te::TrafficMatrix& demands,
    const core::DynamicCapacityController::RoundReport& report,
    const core::DynamicCapacityController& controller) {
  const double tick_hours = te_interval / util::kHour;
  metrics.offered_gbps_hours += te::total_demand(demands).value * tick_hours;
  ++metrics.te_rounds;
  metrics.upgrades += report.plan.upgrades.size();

  // Each capacity change takes the link out for a sampled duration; the
  // traffic newly assigned to it is lost for the overlap with the round.
  double lost = 0.0;
  const auto account_change = [&](EdgeId edge) {
    const Seconds downtime = latency.sample_downtime(procedure, rng);
    metrics.reconfig_downtime_hours += downtime / util::kHour;
    const double load =
        report.plan.physical_assignment
            .edge_load_gbps[static_cast<std::size_t>(edge.value)];
    lost += load * std::min(downtime, te_interval) / util::kHour;
  };
  for (const auto& restoration : report.restorations) {
    ++metrics.restorations;
    account_change(restoration.edge);
  }
  for (const auto& flap : report.reductions) {
    if (flap.to.value > 0.0) {
      ++metrics.link_flaps;
      account_change(flap.edge);
    } else {
      ++metrics.link_failures;
    }
  }
  for (const auto& change : report.plan.upgrades) account_change(change.edge);

  // Honest delivered account in estimated mode: TE routed the ESTIMATED
  // matrix, but only traffic actually offered can be delivered, so each OD
  // is capped at its TRUE volume (docs/DEMAND.md).
  double delivered = report.total_routed.value;
  if (controller.demand_pipeline() != nullptr) {
    delivered = 0.0;
    const auto& routings = report.plan.physical_assignment.routings;
    for (std::size_t j = 0; j < routings.size(); ++j) {
      const double truth = j < demands.size() ? demands[j].volume.value
                                              : routings[j].routed.value;
      delivered += std::min(routings[j].routed.value, truth);
    }
  }
  metrics.delivered_gbps_hours +=
      std::max(0.0, delivered * tick_hours - lost);

  const std::span<const Gbps> configured = controller.configured_capacities();
  const auto links_up = std::count_if(
      configured.begin(), configured.end(),
      [](Gbps capacity) { return capacity.value > 0.0; });
  metrics.availability += static_cast<double>(links_up) /
                          static_cast<double>(configured.size());
}

SimulationMetrics RoundAccount::totals() const {
  SimulationMetrics out = metrics;
  if (out.te_rounds > 0)
    out.availability /= static_cast<double>(out.te_rounds);
  return out;
}

std::vector<ScenarioResult> run_scenarios(const graph::Graph& topology,
                                          const te::TeAlgorithm& engine,
                                          const te::TrafficMatrix& base_demands,
                                          std::span<const Scenario> scenarios,
                                          exec::ThreadPool* pool) {
  exec::ThreadPool& effective =
      pool != nullptr ? *pool : exec::ThreadPool::global();
  return exec::parallel_map(
      effective, scenarios.size(), [&](std::size_t i) {
        WanSimulator simulator(topology, engine, scenarios[i].config);
        return ScenarioResult{scenarios[i].name,
                              simulator.run(base_demands)};
      });
}

}  // namespace rwc::sim
