#include "replay/driver.hpp"

#include <algorithm>
#include <span>

#include "demand/estimator.hpp"
#include "demand/pipeline.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::replay {

using util::mix64;
using util::mix_double;

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

std::uint64_t fingerprint_of(const graph::Graph& topology,
                             const te::TrafficMatrix& demands,
                             const ReplayConfig& config) {
  std::uint64_t hash = fingerprint_network(topology, demands);
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
  hash = fingerprint_hysteresis(hash, config.hysteresis);
  return fingerprint_demand(hash, config.demand);
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

std::uint64_t fingerprint_network(const graph::Graph& topology,
                                  const te::TrafficMatrix& demands) {
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
  return hash;
}

std::uint64_t fingerprint_hysteresis(
    std::uint64_t hash, const std::optional<core::HysteresisParams>& params) {
  hash = mix64(hash, params.has_value() ? 1 : 0);
  if (!params.has_value()) return hash;
  hash = mix_double(hash, params->extra_up_margin.value);
  return mix64(hash, static_cast<std::uint32_t>(params->up_hold_rounds));
}

std::uint64_t fingerprint_demand(std::uint64_t hash,
                                 const demand::DemandConfig& config) {
  if (!config.estimated()) return hash;
  hash = mix64(hash, static_cast<std::uint64_t>(config.source));
  hash = mix_double(hash, config.noise);
  hash = mix_double(hash, config.loss_rate);
  hash = mix_double(hash, config.staleness);
  hash = mix_double(hash, config.interval_seconds);
  // The two estimator constants are folded where their settable
  // predecessors were, so checkpoint fingerprints keep their values.
  hash = mix_double(hash, demand::kEwmaAlpha);
  hash = mix_double(hash, demand::kRidgeDamping);
  return mix64(hash, config.seed);
}

std::uint64_t fold_round(
    std::uint64_t chain, std::uint64_t round,
    const core::DynamicCapacityController::RoundReport& report) {
  chain = mix64(chain, round);
  chain = mix64(chain, report.plan.upgrades.size());
  for (const auto& change : report.plan.upgrades) {
    chain = mix64(chain, static_cast<std::uint32_t>(change.edge.value));
    chain = mix_double(chain, change.to.value);
  }
  chain = mix_double(chain, report.total_routed.value);
  chain = mix_double(chain, report.total_penalty);
  chain = mix64(chain, report.reductions.size());
  chain = mix64(chain, report.restorations.size());
  return mix64(chain, report.transition_valid ? 1 : 0);
}

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
      account_(config_.latency, config_.procedure, config_.te_interval,
               config_.seed) {
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

core::DynamicCapacityController::RoundReport ReplayDriver::step() {
  RWC_EXPECTS(!done());
  auto& driver_metrics = DriverMetrics::instance();
  if (round_ >= chunk_base_round_ + chunk_len_) refill_chunk();

  const util::Seconds now =
      static_cast<double>(round_) * config_.te_interval;
  const te::TrafficMatrix demands =
      config_.diurnal
          ? sim::scale_matrix(base_demands_, sim::diurnal_factor(now))
          : base_demands_;
  const auto slot = static_cast<std::size_t>(round_ - chunk_base_round_);
  std::vector<util::Db> snr(topology_.edge_count());
  for (std::size_t e = 0; e < snr.size(); ++e)
    snr[e] = util::Db{static_cast<double>(chunk_[e][slot])};

  auto report = controller_.run_round(snr, demands);
  account_.charge(demands, report, controller_);
  signature_chain_ = fold_round(signature_chain_, round_, report);

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
  out.metrics = account_.metrics;  // availability stays the running sum
  out.controller = controller_.save_state();
  out.cursors = chunk_base_states_;
  out.latency_rng = account_.rng.state();
  if (const demand::DemandPipeline* pipeline = controller_.demand_pipeline()) {
    out.demand_present = true;
    out.demand_state = pipeline->save_state();
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
  // Shape validation up front so a failed restore leaves the driver
  // untouched (decode CRCs make a mismatch here near-impossible, but the
  // contract is typed rejection, never a throw from half-applied state).
  const std::size_t edges = topology_.edge_count();
  bool cursors_ok = checkpoint.cursors.size() == edges &&
                    checkpoint.round >= checkpoint.chunk_base_round &&
                    checkpoint.round <= config_.rounds;
  for (const auto& cursor : checkpoint.cursors)
    cursors_ok = cursors_ok && cursor.position == checkpoint.chunk_base_round;
  const Error shape = cursors_ok
                          ? check_controller_sections(checkpoint, controller_)
                          : Error::kMalformed;
  if (shape != Error::kNone) {
    driver_metrics.rejected.add();
    return shape;
  }

  controller_.restore_state(checkpoint.controller);
  if (demand::DemandPipeline* pipeline = controller_.demand_pipeline())
    pipeline->restore_state(checkpoint.demand_state);
  account_.rng = util::Rng::from_state(checkpoint.latency_rng);
  round_ = checkpoint.round;
  chunk_base_round_ = checkpoint.chunk_base_round;
  signature_chain_ = checkpoint.signature_chain;
  account_.metrics = checkpoint.metrics;
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
