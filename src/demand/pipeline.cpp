#include "demand/pipeline.hpp"

#include <span>
#include <utility>

#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::demand {

const char* to_string(DemandSource source) {
  switch (source) {
    case DemandSource::kOracle:
      return "oracle";
    case DemandSource::kEstimated:
      return "estimated";
  }
  return "?";
}

DemandPipeline::DemandPipeline(std::size_t edge_count, DemandConfig config)
    : config_(config),
      edge_count_(edge_count),
      log_(config.record_rounds),
      capacity_(edge_count) {}

DemandPipeline::Result DemandPipeline::round(
    const te::TrafficMatrix& intent, const te::FlowAssignment& previous) {
  static auto& rounds_counter = obs::Registry::global().counter("demand.rounds");
  static auto& round_seconds =
      obs::Registry::global().histogram("demand.round.seconds");
  const obs::StopWatch watch;
  rounds_counter.add();

  std::vector<double> intent_volumes;
  intent_volumes.reserve(intent.size());
  for (const te::Demand& demand : intent)
    intent_volumes.push_back(demand.volume.value);

  const RoutingMatrix matrix =
      build_routing_matrix(edge_count_, intent, previous);

  CounterSet counters;
  if (!replay_queue_.empty()) {
    counters = std::move(replay_queue_.front());
    replay_queue_.pop_front();
    counters.round = round_;
  } else {
    counters = synthesize_counters(matrix, intent_volumes, last_observed_,
                                   config_, round_);
  }
  last_observed_ = counters.samples;
  capacity_.observe(counters, config_.interval_seconds);

  const std::span<const double> prior =
      ewma_warm_ && ewma_.size() == intent.size()
          ? std::span<const double>(ewma_)
          : std::span<const double>{};
  EstimateResult estimate = estimate_od_volumes(matrix, counters,
                                                intent_volumes, prior, config_);
  log_.append(std::move(counters));

  // EWMA history prior over the final estimate (the damped solve's anchor).
  if (!ewma_warm_ || ewma_.size() != estimate.volumes.size()) {
    ewma_ = estimate.volumes;
    ewma_warm_ = true;
  } else {
    for (std::size_t j = 0; j < ewma_.size(); ++j)
      ewma_[j] = kEwmaAlpha * estimate.volumes[j] +
                 (1.0 - kEwmaAlpha) * ewma_[j];
  }

  Result result;
  result.demands = intent;
  for (std::size_t j = 0; j < result.demands.size(); ++j)
    result.demands[j].volume = util::Gbps{estimate.volumes[j]};
  result.stats = estimate.stats;

  last_estimated_ = result.demands;
  last_stats_ = result.stats;
  ++round_;
  round_seconds.observe(watch.seconds());
  return result;
}

DemandPipeline::State DemandPipeline::save_state() const {
  State state;
  state.round = round_;
  state.ewma_warm = ewma_warm_;
  state.ewma = ewma_;
  state.last_observed = last_observed_;
  state.capacity_peak_gbps = capacity_.measured();
  return state;
}

void DemandPipeline::restore_state(State state) {
  RWC_EXPECTS(state.last_observed.empty() ||
              state.last_observed.size() == edge_count_);
  RWC_EXPECTS(state.capacity_peak_gbps.empty() ||
              state.capacity_peak_gbps.size() == edge_count_);
  round_ = state.round;
  ewma_warm_ = state.ewma_warm;
  ewma_ = std::move(state.ewma);
  last_observed_ = std::move(state.last_observed);
  if (state.capacity_peak_gbps.empty())
    state.capacity_peak_gbps.assign(edge_count_, 0.0);
  capacity_.restore_measured(std::move(state.capacity_peak_gbps));
  replay_queue_.clear();
}

}  // namespace rwc::demand
