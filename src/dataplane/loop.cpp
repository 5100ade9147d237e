#include "dataplane/loop.hpp"

#include <utility>

#include "dataplane/counters.hpp"
#include "demand/routing_matrix.hpp"
#include "optical/modulation.hpp"
#include "util/check.hpp"

namespace rwc::dataplane {

ClosedLoop::ClosedLoop(graph::Graph topology, te::TrafficMatrix intent,
                       const te::TeAlgorithm& engine,
                       core::ControllerOptions options,
                       DataplaneConfig dataplane)
    : controller_(std::move(topology), optical::ModulationTable::standard(),
                  engine, std::move(options)),
      intent_(std::move(intent)),
      sim_(controller_.physical_topology(), intent_.size(), dataplane) {
  RWC_EXPECTS(controller_.options().update.has_value());
}

ClosedLoop::Round ClosedLoop::step(std::span<const util::Db> snr,
                                   const Hook& hook) {
  demand::DemandPipeline* pipeline = controller_.demand_pipeline();
  if (pending_.has_value()) {
    pipeline->push_replay(std::move(*pending_));
    pending_.reset();
  }

  Round round;
  const std::span<const util::Gbps> configured =
      controller_.configured_capacities();
  const std::vector<util::Gbps> before(configured.begin(), configured.end());
  round.report = controller_.run_round(snr, intent_);

  const update::UpdateSchedule* schedule =
      round.report.update_valid ? &*round.report.update : nullptr;
  const DataplaneConfig& config = sim_.config();
  round.timeline =
      build_timeline(before, controller_.configured_capacities(), schedule,
                     config.ticks_per_round, config.tick_seconds);
  const te::FlowAssignment& assignment = controller_.last_assignment();
  if (hook) hook(assignment, round.timeline);
  round.result = sim_.run_round(assignment, round.timeline);

  // Counter feedback: the installed volumes the next estimate inverts
  // for, over the routing the round installed. The set is labelled with
  // the pipeline round that consumes it.
  if (pipeline != nullptr) {
    std::vector<double> installed;
    installed.reserve(assignment.routings.size());
    for (const te::FlowAssignment::DemandRouting& routing :
         assignment.routings)
      installed.push_back(routing.routed.value);
    const demand::RoutingMatrix matrix = demand::build_routing_matrix(
        controller_.physical_topology().edge_count(),
        pipeline->last_estimated(), assignment);
    pending_ = demand::counters_from_observations(
        matrix, installed,
        counter_observations(round.result, matrix, installed),
        pipeline->config().interval_seconds, pipeline->rounds());
  }
  return round;
}

ClosedLoop::State ClosedLoop::save_state() const {
  State state;
  state.controller = controller_.save_state();
  if (const demand::DemandPipeline* pipeline = controller_.demand_pipeline())
    state.demand = pipeline->save_state();
  state.dataplane = sim_.save_state();
  state.pending = pending_;
  return state;
}

void ClosedLoop::restore_state(State state) {
  demand::DemandPipeline* pipeline = controller_.demand_pipeline();
  RWC_EXPECTS(controller_.can_restore(state.controller));
  RWC_EXPECTS(state.demand.has_value() == (pipeline != nullptr));
  RWC_EXPECTS(pipeline != nullptr || !state.pending.has_value());
  sim_.restore_state(state.dataplane);
  controller_.restore_state(std::move(state.controller));
  if (pipeline != nullptr) pipeline->restore_state(std::move(*state.demand));
  pending_ = std::move(state.pending);
}

}  // namespace rwc::dataplane
