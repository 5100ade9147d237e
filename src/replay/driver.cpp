#include "replay/driver.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace rwc::replay {

namespace {

/// Handles into the global registry (docs/OBSERVABILITY.md: replay.*).
struct DriverMetrics {
  obs::Counter& rounds;
  obs::Counter& refills;
  obs::Counter& restores;
  obs::Counter& rejected;
  obs::Histogram& write_seconds;
  obs::Histogram& restore_seconds;

  static DriverMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static DriverMetrics metrics{
        registry.counter("replay.rounds"),
        registry.counter("replay.chunk.refills"),
        registry.counter("replay.restores"),
        registry.counter("replay.restore.rejected"),
        registry.histogram("replay.checkpoint.write.seconds"),
        registry.histogram("replay.restore.seconds"),
    };
    return metrics;
  }
};

/// Word-at-a-time mixer (murmur3-finalizer style), same construction as
/// flow::network_fingerprint.
std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  hash = (hash ^ value) * 0x2545f4914f6cdd1dULL;
  return hash ^ (hash >> 29);
}

std::uint64_t mix_double(std::uint64_t hash, double value) {
  return mix64(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fingerprint_of(const graph::Graph& topology,
                             const te::TrafficMatrix& demands,
                             const ReplayConfig& config) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = mix64(hash, topology.node_count());
  hash = mix64(hash, topology.edge_count());
  for (graph::EdgeId id : topology.edge_ids()) {
    const graph::Edge& edge = topology.edge(id);
    hash = mix64(hash, static_cast<std::uint32_t>(edge.src.value));
    hash = mix64(hash, static_cast<std::uint32_t>(edge.dst.value));
    hash = mix_double(hash, edge.capacity.value);
    hash = mix_double(hash, edge.cost);
    hash = mix_double(hash, edge.weight);
  }
  hash = mix64(hash, demands.size());
  for (const te::Demand& demand : demands) {
    hash = mix64(hash, static_cast<std::uint32_t>(demand.src.value));
    hash = mix64(hash, static_cast<std::uint32_t>(demand.dst.value));
    hash = mix_double(hash, demand.volume.value);
    hash = mix64(hash, static_cast<std::uint32_t>(demand.priority));
  }
  hash = mix64(hash, config.rounds);
  hash = mix_double(hash, config.te_interval);
  hash = mix_double(hash, config.snr_margin.value);
  hash = mix64(hash, config.diurnal ? 1 : 0);
  hash = mix64(hash, config.seed);
  hash = mix64(hash, config.chunk_rounds);
  hash = mix64(hash, static_cast<std::uint64_t>(config.procedure));
  const bvt::LatencyModelParams& l = config.latency;
  for (double field :
       {l.laser_shutdown_mean, l.laser_shutdown_sd, l.laser_warmup_mean,
        l.laser_warmup_sd, l.register_program_mean, l.register_program_sd,
        l.fast_program_mean, l.fast_program_sd, l.dsp_relock_mean,
        l.dsp_relock_sd})
    hash = mix_double(hash, field);
  const telemetry::SnrModelParams& m = config.snr_model;
  for (double field :
       {m.fiber_baseline_mean.value, m.fiber_baseline_sigma.value,
        m.fiber_baseline_min.value, m.fiber_baseline_max.value,
        m.lambda_offset_sigma.value, m.jitter_sigma_median_db,
        m.jitter_sigma_log_sigma, m.noisy_lambda_fraction,
        m.noisy_jitter_multiplier, m.drift_amplitude_mean_db,
        m.drift_period_min, m.drift_period_max,
        m.fiber_shallow_rate_per_year, m.lambda_shallow_rate_per_year,
        m.shallow_depth_median_db, m.shallow_depth_log_sigma,
        m.shallow_duration_mean_hours, m.shallow_duration_sd_hours,
        m.fiber_deep_rate_per_year, m.lambda_deep_rate_per_year,
        m.deep_depth_median_db, m.deep_depth_log_sigma,
        m.deep_duration_mean_hours, m.deep_duration_sd_hours,
        m.fiber_cut_rate_per_year, m.cut_duration_mean_hours,
        m.cut_duration_sd_hours, m.event_depth_lambda_log_sigma,
        m.noise_floor.value})
    hash = mix_double(hash, field);
  hash = mix64(hash, config.hysteresis.has_value() ? 1 : 0);
  if (config.hysteresis.has_value()) {
    hash = mix_double(hash, config.hysteresis->extra_up_margin.value);
    hash = mix64(hash,
                 static_cast<std::uint32_t>(config.hysteresis->up_hold_rounds));
  }
  // Demand fields join the fingerprint only in estimated mode: estimation
  // changes results, but oracle runs must keep the exact pre-demand hash so
  // historical checkpoints still restore.
  if (config.demand.estimated()) {
    const demand::DemandConfig& d = config.demand;
    hash = mix64(hash, static_cast<std::uint64_t>(d.source));
    hash = mix_double(hash, d.noise);
    hash = mix_double(hash, d.loss_rate);
    hash = mix_double(hash, d.staleness);
    hash = mix_double(hash, d.interval_seconds);
    hash = mix_double(hash, d.ewma_alpha);
    hash = mix_double(hash, d.damping);
    hash = mix64(hash, d.seed);
  }
  return hash;
}

telemetry::SnrFleetGenerator::FleetParams fleet_params_for(
    const ReplayConfig& config, std::size_t edges) {
  telemetry::SnrFleetGenerator::FleetParams params;
  params.fiber_count = static_cast<int>(edges / 2);
  params.wavelengths_per_fiber = 2;
  // One sample per round plus one spare, like WanSimulator's
  // horizon + te_interval duration.
  params.duration =
      static_cast<double>(config.rounds + 1) * config.te_interval;
  params.interval = config.te_interval;
  params.model = config.snr_model;
  return params;
}

core::ControllerOptions controller_options_for(const ReplayConfig& config) {
  core::ControllerOptions options;
  options.snr_margin = config.snr_margin;
  options.hysteresis = config.hysteresis;
  options.incremental = config.incremental;
  options.pool = config.pool;
  options.demand = config.demand;
  return options;
}

}  // namespace

ReplayDriver::ReplayDriver(graph::Graph topology,
                           const te::TeAlgorithm& engine,
                           te::TrafficMatrix base_demands,
                           ReplayConfig config)
    : topology_(std::move(topology)),
      engine_(engine),
      base_demands_(std::move(base_demands)),
      config_(config),
      table_(optical::ModulationTable::standard()),
      controller_(topology_, table_, engine_,
                  controller_options_for(config_)),
      fleet_(fleet_params_for(config_, topology_.edge_count()), config_.seed),
      latency_(config_.latency),
      // Same stream-split constant as WanSimulator, so the analytic account
      // of a replay run draws the same downtimes as a simulator run of the
      // same seed would.
      latency_rng_(config_.seed ^ 0x1A7E9C5ull) {
  RWC_EXPECTS(topology_.edge_count() > 0);
  RWC_EXPECTS(topology_.edge_count() % 2 == 0);
  RWC_EXPECTS(config_.rounds > 0);
  RWC_EXPECTS(config_.te_interval > 0.0);
  RWC_EXPECTS(config_.chunk_rounds > 0);
  const std::size_t edges = topology_.edge_count();
  cursors_.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e)
    cursors_.emplace_back(fleet_, static_cast<int>(e / 2),
                          static_cast<int>(e % 2));
  chunk_base_states_.reserve(edges);
  for (const auto& cursor : cursors_)
    chunk_base_states_.push_back(cursor.state());
  chunk_.resize(edges);
  config_fingerprint_ = fingerprint_of(topology_, base_demands_, config_);
}

exec::ThreadPool& ReplayDriver::pool() const {
  return config_.pool != nullptr ? *config_.pool
                                 : exec::ThreadPool::global();
}

void ReplayDriver::refill_chunk() {
  chunk_base_round_ = round_;
  fill_chunk_from_cursors();
}

void ReplayDriver::fill_chunk_from_cursors() {
  chunk_base_states_.clear();
  for (const auto& cursor : cursors_)
    chunk_base_states_.push_back(cursor.state());
  const std::uint64_t remaining =
      cursors_[0].total_samples() - cursors_[0].position();
  chunk_len_ = std::min<std::uint64_t>(config_.chunk_rounds, remaining);
  // Each cursor is pure per edge, so chunk generation parallelizes with
  // results landing in per-edge slots — identical at every pool size.
  exec::parallel_for(pool(), cursors_.size(), [&](std::size_t e) {
    chunk_[e].resize(static_cast<std::size_t>(chunk_len_));
    cursors_[e].next(std::span<float>(chunk_[e]));
  });
  DriverMetrics::instance().refills.add();
}

sim::SimulationMetrics ReplayDriver::metrics() const {
  sim::SimulationMetrics out = metrics_;
  if (out.te_rounds > 0)
    out.availability /= static_cast<double>(out.te_rounds);
  return out;
}

core::DynamicCapacityController::RoundReport ReplayDriver::step() {
  RWC_EXPECTS(!done());
  auto& driver_metrics = DriverMetrics::instance();
  if (round_ >= chunk_base_round_ + chunk_len_) refill_chunk();

  const std::size_t edges = topology_.edge_count();
  const util::Seconds now =
      static_cast<double>(round_) * config_.te_interval;
  const double tick_hours = config_.te_interval / util::kHour;

  const te::TrafficMatrix demands =
      config_.diurnal
          ? sim::scale_matrix(base_demands_, sim::diurnal_factor(now))
          : base_demands_;
  metrics_.offered_gbps_hours += te::total_demand(demands).value * tick_hours;
  ++metrics_.te_rounds;

  const auto slot = static_cast<std::size_t>(round_ - chunk_base_round_);
  std::vector<util::Db> snr(edges);
  for (std::size_t e = 0; e < edges; ++e)
    snr[e] = util::Db{static_cast<double>(chunk_[e][slot])};

  auto report = controller_.run_round(snr, demands);
  const double routed = report.total_routed.value;
  metrics_.upgrades += report.plan.upgrades.size();

  // Analytic reconfiguration account — WanSimulator's dynamic-policy path
  // verbatim (its reconfig-complete events are no-ops, so no event queue is
  // needed): each change takes the link out for a sampled duration and the
  // traffic newly assigned to it is lost for the overlap with the round.
  double lost = 0.0;
  auto account_change = [&](graph::EdgeId edge) {
    const util::Seconds downtime =
        latency_.sample_downtime(config_.procedure, latency_rng_);
    metrics_.reconfig_downtime_hours += downtime / util::kHour;
    const double load =
        report.plan.physical_assignment
            .edge_load_gbps[static_cast<std::size_t>(edge.value)];
    lost += load * std::min(downtime, config_.te_interval) / util::kHour;
  };
  for (const auto& restoration : report.restorations) {
    ++metrics_.restorations;
    account_change(restoration.edge);
  }
  for (const auto& flap : report.reductions) {
    if (flap.to.value > 0.0) {
      ++metrics_.link_flaps;
      account_change(flap.edge);
    } else {
      ++metrics_.link_failures;
    }
  }
  for (const auto& change : report.plan.upgrades)
    account_change(change.edge);

  std::size_t links_up = 0;
  for (graph::EdgeId edge : topology_.edge_ids())
    if (controller_.configured_capacity(edge).value > 0.0) ++links_up;

  // Honest delivered account in estimated mode: TE routed the ESTIMATED
  // matrix, but only traffic actually offered can be delivered — each OD
  // is capped at its TRUE volume (docs/DEMAND.md). The signature chain
  // below keeps mixing total_routed (the controller's own output), so the
  // accounting policy never perturbs round-equivalence checks.
  double delivered = routed;
  if (controller_.demand_pipeline() != nullptr) {
    delivered = 0.0;
    const auto& routings = report.plan.physical_assignment.routings;
    for (std::size_t j = 0; j < routings.size(); ++j) {
      const double truth = j < demands.size() ? demands[j].volume.value
                                              : routings[j].routed.value;
      delivered += std::min(routings[j].routed.value, truth);
    }
  }
  metrics_.delivered_gbps_hours +=
      std::max(0.0, delivered * tick_hours - lost);
  metrics_.availability +=
      static_cast<double>(links_up) / static_cast<double>(edges);

  // Fold this round's signature content (the prop::RoundSignature fields)
  // into the chain: bit patterns, not rounded values, so the chain agrees
  // exactly when the rounds agree exactly.
  std::uint64_t chain = mix64(signature_chain_, round_);
  chain = mix64(chain, report.plan.upgrades.size());
  for (const auto& change : report.plan.upgrades) {
    chain = mix64(chain, static_cast<std::uint32_t>(change.edge.value));
    chain = mix_double(chain, change.to.value);
  }
  chain = mix_double(chain, routed);
  chain = mix_double(chain, report.total_penalty);
  chain = mix64(chain, report.reductions.size());
  chain = mix64(chain, report.restorations.size());
  chain = mix64(chain, report.transition_valid ? 1 : 0);
  signature_chain_ = chain;

  // Observation hook (rwc::fleet aggregation): round state is final here,
  // round_ still names the round just executed.
  if (observer_) observer_(round_, snr, report);

  ++round_;
  driver_metrics.rounds.add();

  if (store_ != nullptr && config_.checkpoint_every > 0 &&
      round_ % config_.checkpoint_every == 0) {
    const obs::StopWatch watch;
    (void)store_->write(checkpoint());
    driver_metrics.write_seconds.observe(watch.seconds());
  }
  return report;
}

sim::SimulationMetrics ReplayDriver::run() {
  while (!done()) step();
  return metrics();
}

std::uint64_t ReplayDriver::run(std::uint64_t max_rounds) {
  std::uint64_t ran = 0;
  while (!done() && ran < max_rounds) {
    step();
    ++ran;
  }
  return ran;
}

Checkpoint ReplayDriver::checkpoint() const {
  Checkpoint out;
  out.config_fingerprint = config_fingerprint_;
  out.round = round_;
  out.chunk_base_round = chunk_base_round_;
  out.signature_chain = signature_chain_;
  out.metrics = metrics_;  // availability stays the running sum
  out.controller = controller_.save_state();
  out.cursors = chunk_base_states_;
  out.latency_rng = latency_rng_.state();
  if (const demand::DemandPipeline* pipeline = controller_.demand_pipeline()) {
    out.demand_present = true;
    out.demand_state = pipeline->save_state();
  }
  if (config_.checkpoint_obs) {
    out.obs_present = true;
    auto& registry = obs::Registry::global();
    for (const auto& [name, counter] : registry.counters())
      out.obs_counters.emplace_back(name, counter->value());
    for (const auto& [name, gauge] : registry.gauges())
      out.obs_gauges.emplace_back(name, gauge->value());
  }
  return out;
}

Error ReplayDriver::restore(const Checkpoint& checkpoint) {
  auto& driver_metrics = DriverMetrics::instance();
  const obs::StopWatch watch;
  if (checkpoint.config_fingerprint != config_fingerprint_) {
    driver_metrics.rejected.add();
    return Error::kConfigMismatch;
  }
  // Size validation up front so a failed restore leaves the driver
  // untouched (decode CRCs make a mismatch here near-impossible, but the
  // contract is typed rejection, never a throw from half-applied state).
  const std::size_t edges = topology_.edge_count();
  const auto& state = checkpoint.controller;
  const bool sizes_ok =
      checkpoint.cursors.size() == edges &&
      state.configured.size() == edges &&
      state.last_traffic.size() == edges && state.last_snr.size() == edges &&
      state.hysteresis.has_value() == config_.hysteresis.has_value() &&
      (!state.hysteresis.has_value() ||
       (state.hysteresis->candidate.size() == edges &&
        state.hysteresis->streak.size() == edges)) &&
      checkpoint.round >= checkpoint.chunk_base_round &&
      checkpoint.round <= config_.rounds;
  if (!sizes_ok) {
    driver_metrics.rejected.add();
    return Error::kMalformed;
  }
  bool cursors_ok = true;
  for (const auto& cursor : checkpoint.cursors)
    cursors_ok = cursors_ok && cursor.position == checkpoint.chunk_base_round;
  if (!cursors_ok) {
    driver_metrics.rejected.add();
    return Error::kMalformed;
  }
  // The demand section changes results, so when this driver estimates it is
  // MANDATORY: a checkpoint without it cannot reproduce the run (the round
  // index drives the counter noise stream, the EWMA anchors damped solves).
  demand::DemandPipeline* pipeline = controller_.demand_pipeline();
  if (pipeline != nullptr) {
    if (!checkpoint.demand_present) {
      driver_metrics.rejected.add();
      return Error::kMissingSection;
    }
    const demand::DemandPipeline::State& demand_state = checkpoint.demand_state;
    const bool demand_ok =
        (demand_state.last_observed.empty() ||
         demand_state.last_observed.size() == edges) &&
        (demand_state.capacity_peak_gbps.empty() ||
         demand_state.capacity_peak_gbps.size() == edges);
    if (!demand_ok) {
      driver_metrics.rejected.add();
      return Error::kMalformed;
    }
  }

  // Optional obs rewind first, so the restore's own bookkeeping lands on
  // top of the restored values.
  if (config_.checkpoint_obs && checkpoint.obs_present) {
    auto& registry = obs::Registry::global();
    registry.reset_values();
    for (const auto& [name, value] : checkpoint.obs_counters)
      registry.counter(name).add(value);
    for (const auto& [name, value] : checkpoint.obs_gauges)
      registry.gauge(name).set(value);
  }

  controller_.restore_state(state);
  if (pipeline != nullptr) pipeline->restore_state(checkpoint.demand_state);
  latency_rng_ = util::Rng::from_state(checkpoint.latency_rng);
  round_ = checkpoint.round;
  chunk_base_round_ = checkpoint.chunk_base_round;
  signature_chain_ = checkpoint.signature_chain;
  metrics_ = checkpoint.metrics;
  for (std::size_t e = 0; e < edges; ++e)
    cursors_[e].restore(checkpoint.cursors[e]);
  // Regenerate the in-flight chunk from the restored cursor states; the
  // generation is pure, so the chunk is bit-identical to the one the
  // checkpointed run was consuming.
  fill_chunk_from_cursors();

  driver_metrics.restores.add();
  driver_metrics.restore_seconds.observe(watch.seconds());
  return Error::kNone;
}

Error ReplayDriver::restore_latest(const CheckpointStore& store) {
  Checkpoint checkpoint;
  const Error error = store.load_latest(config_fingerprint_, checkpoint);
  if (error != Error::kNone) return error;
  return restore(checkpoint);
}

}  // namespace rwc::replay
