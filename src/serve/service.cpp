#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "replay/driver.hpp"
#include "replay/wire.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rwc::serve {

using util::mix64;
using util::mix_double;

namespace {

/// Handles into the global registry (docs/OBSERVABILITY.md: serve.*).
struct ServeMetrics {
  obs::Counter& rounds;
  obs::Counter& clamped;
  obs::Counter& epochs;
  obs::Histogram& publish_seconds;

  static ServeMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static ServeMetrics metrics{
        registry.counter("serve.rounds"),
        registry.counter("serve.ingest.clamped"),
        registry.counter("serve.publish.epochs"),
        registry.histogram("serve.publish.seconds"),
    };
    return metrics;
  }
};

/// Legal ranges the apply-time sanitizer clamps raw ingest values into —
/// the deterministic taming of kGarbage/kNan faults (docs/SERVE.md).
constexpr double kSnrMinDb = -10.0;
constexpr double kSnrMaxDb = 40.0;
constexpr double kDemandMaxGbps = 1.0e5;

/// Rng-section stream id of the serve state machine (the service draws no
/// randomness itself; the checkpoint Rng section still needs a well-defined
/// stream so the mandatory-section contract holds).
constexpr std::uint64_t kServeRngStream = 0x53455256;  // "SERV"

/// Inner format version of the kServe checkpoint payload.
constexpr std::uint32_t kServePayloadVersion = 1;

std::uint64_t fingerprint_of(const graph::Graph& topology,
                             const te::TrafficMatrix& base_demands,
                             const ServeConfig& config) {
  std::uint64_t hash = replay::fingerprint_network(topology, base_demands);
  hash = mix64(hash, config.seed);
  hash = mix_double(hash, config.snr_margin.value);
  hash = replay::fingerprint_hysteresis(hash, config.hysteresis);
  hash = mix_double(hash, config.initial_snr_db);
  return replay::fingerprint_demand(hash, config.demand);
}

core::ControllerOptions controller_options_for(const ServeConfig& config) {
  core::ControllerOptions options;
  options.snr_margin = config.snr_margin;
  options.hysteresis = config.hysteresis;
  options.incremental = config.incremental;
  options.pool = config.pool;
  options.update = config.update;
  options.demand = config.demand;
  return options;
}

}  // namespace

ServeService::ServeService(graph::Graph physical,
                           const te::TeAlgorithm& engine,
                           te::TrafficMatrix base_demands, ServeConfig config)
    : topology_(physical),
      controller_(std::move(physical), optical::ModulationTable::standard(),
                  engine, controller_options_for(config)),
      config_(config),
      config_fingerprint_(fingerprint_of(topology_, base_demands, config)),
      base_demands_(base_demands),
      demands_(std::move(base_demands)),
      snr_(topology_.edge_count(), util::Db{config.initial_snr_db}),
      queue_(config.queue_capacity, config.shed),
      domain_(config.max_readers == 0 ? 1 : config.max_readers),
      cell_(domain_) {}

void ServeService::apply_event(const IngestEvent& event) {
  ServeMetrics& metrics = ServeMetrics::instance();
  switch (event.type) {
    case IngestType::kSnr: {
      if (event.index >= snr_.size()) {
        metrics.clamped.add();
        return;  // unroutable index: deterministically ignored
      }
      double value = event.value;
      if (std::isnan(value)) {
        metrics.clamped.add();
        return;  // NaN carries no information: keep the previous sample
      }
      if (value < kSnrMinDb || value > kSnrMaxDb) {
        value = std::clamp(value, kSnrMinDb, kSnrMaxDb);
        metrics.clamped.add();
      }
      snr_[event.index] = util::Db{value};
      return;
    }
    case IngestType::kDemand: {
      if (event.index >= demands_.size()) {
        metrics.clamped.add();
        return;
      }
      double value = event.value;
      if (std::isnan(value)) {
        metrics.clamped.add();
        return;
      }
      if (value < 0.0 || value > kDemandMaxGbps) {
        value = std::clamp(value, 0.0, kDemandMaxGbps);
        metrics.clamped.add();
      }
      demands_[event.index].volume = util::Gbps{value};
      return;
    }
  }
}

ServeService::RoundReport ServeService::step() {
  return step(queue_.drain());
}

ServeService::RoundReport ServeService::step(
    std::span<const IngestEvent> batch) {
  // Record-before-apply: the batch this round consumed becomes the round's
  // log entry verbatim; everything after this line is a pure function of
  // the log (the determinism contract, docs/SERVE.md).
  log_.append(batch);
  for (const IngestEvent& event : batch) apply_event(event);

  // Consistent-update stage (config_.update): run_round executes the
  // round's validated schedule BEFORE the epoch below becomes visible, so
  // readers never observe a plan whose dataplane transition has not
  // finished. Execution is observational (controller state already
  // advanced; the executor walks its own copy of the schedule's
  // dataplane), so the chain is identical with the stage on or off;
  // update.commit/update.rollback faults can stretch or abort the
  // transition but never perturb the published state.
  RoundReport report = controller_.run_round(snr_, demands_);

  // The same fold as replay::ReplayDriver, so serve and replay rounds
  // chain identically given identical reports.
  signature_chain_ = replay::fold_round(signature_chain_, round_, report);

  publish_epoch(report);

  ++round_;
  ServeMetrics::instance().rounds.add();

  if (store_ != nullptr && config_.checkpoint_every > 0 &&
      round_ % config_.checkpoint_every == 0) {
    store_->write(checkpoint());
  }
  return report;
}

void ServeService::publish_epoch(const RoundReport& report) {
  ServeMetrics& metrics = ServeMetrics::instance();
  const auto start = std::chrono::steady_clock::now();

  // Fault site: a stalled/delayed publication must never degrade the read
  // path — readers keep serving the previous epoch wait-free while the
  // writer sleeps here (bench/serve_loop --selfcheck leg C proves it).
  if (const fault::Action action = fault::next("serve.publish")) {
    if (action.kind == fault::Kind::kDelay ||
        action.kind == fault::Kind::kStall) {
      const double seconds = action.kind == fault::Kind::kDelay
                                 ? action.magnitude / 1000.0
                                 : action.magnitude;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          seconds > 0.0 ? seconds : 0.01));
    }
  }

  auto epoch = std::make_unique<PlanEpoch>(make_epoch(
      epochs_ + 1, round_, signature_chain_, controller_, report));
  cell_.publish(std::move(epoch));
  ++epochs_;

  metrics.epochs.add();
  metrics.publish_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

replay::Checkpoint ServeService::checkpoint() const {
  replay::Checkpoint out;
  out.config_fingerprint = config_fingerprint_;
  out.round = round_;
  out.chunk_base_round = round_;  // serve has no trace chunks
  out.signature_chain = signature_chain_;
  out.controller = controller_.save_state();
  // Mandatory Rng section: the serve machine draws no randomness, but the
  // slot must round-trip, so it carries the service's reserved stream.
  out.latency_rng =
      util::Rng::stream(config_.seed, kServeRngStream).state();

  replay::wire::ByteWriter writer;
  writer.u32(kServePayloadVersion);
  writer.u64(demands_.size());
  for (const te::Demand& demand : demands_) writer.f64(demand.volume.value);
  writer.u64(snr_.size());
  for (util::Db snr : snr_) writer.f64(snr.value);
  writer.u64(epochs_);
  out.serve_present = true;
  out.serve_payload = writer.take();
  if (const demand::DemandPipeline* pipeline = controller_.demand_pipeline()) {
    out.demand_present = true;
    out.demand_state = pipeline->save_state();
  }
  return out;
}

replay::Error ServeService::restore(const replay::Checkpoint& checkpoint) {
  if (checkpoint.config_fingerprint != config_fingerprint_)
    return replay::Error::kConfigMismatch;
  if (!checkpoint.serve_present) return replay::Error::kMissingSection;

  replay::wire::ByteReader reader(checkpoint.serve_payload);
  if (reader.u32() != kServePayloadVersion) return replay::Error::kMalformed;
  const std::uint64_t demand_count = reader.u64();
  if (demand_count != demands_.size() || !reader.fits(demand_count))
    return replay::Error::kMalformed;
  std::vector<double> volumes(demand_count);
  for (double& volume : volumes) volume = reader.f64();
  const std::uint64_t edge_count = reader.u64();
  if (edge_count != snr_.size() || !reader.fits(edge_count))
    return replay::Error::kMalformed;
  std::vector<double> snr(edge_count);
  for (double& value : snr) value = reader.f64();
  const std::uint64_t epochs = reader.u64();
  if (reader.failed() || !reader.exhausted()) return replay::Error::kMalformed;

  // Controller and demand shape checks up front, shared with
  // replay::ReplayDriver: a decodable-but-foreign payload must surface as a
  // typed error, never a throw from a half-applied restore.
  const replay::Error shape =
      replay::check_controller_sections(checkpoint, controller_);
  if (shape != replay::Error::kNone) return shape;

  // Point of no return: every mutation below succeeds unconditionally.
  controller_.restore_state(checkpoint.controller);
  if (demand::DemandPipeline* pipeline = controller_.demand_pipeline())
    pipeline->restore_state(checkpoint.demand_state);
  for (std::size_t d = 0; d < demands_.size(); ++d)
    demands_[d].volume = util::Gbps{volumes[d]};
  for (std::size_t e = 0; e < snr_.size(); ++e) snr_[e] = util::Db{snr[e]};
  round_ = checkpoint.round;
  signature_chain_ = checkpoint.signature_chain;
  epochs_ = epochs;
  // The log restarts at the restore point: a restored service's log covers
  // rounds [checkpoint.round, ...), which is exactly what a replay of the
  // continuation needs (docs/SERVE.md, "Restore semantics").
  log_ = IngestLog{};
  return replay::Error::kNone;
}

replay::Error ServeService::restore_latest(
    const replay::CheckpointStore& store) {
  replay::Checkpoint checkpoint;
  const replay::Error error =
      store.load_latest(config_fingerprint_, checkpoint);
  if (error != replay::Error::kNone) return error;
  return restore(checkpoint);
}

}  // namespace rwc::serve
