// Always-on control-plane service (rwc::serve).
//
// ServeService wraps the paper's §4 pipeline (core::DynamicCapacity-
// Controller) into a long-running daemon shape:
//
//   * telemetry/intent updates stream in through a bounded IngestQueue
//     (any number of producer threads, backpressure via ShedPolicy);
//   * one serving thread turns the crank: each step() drains the queue,
//     RECORDS the drained batch into the IngestLog, applies it to the live
//     demand/SNR state with deterministic sanitization, runs one TE round,
//     folds the round into the rolling signature chain, and publishes the
//     result as an immutable PlanEpoch through exec::RcuCell;
//   * any number of reader threads snapshot the current epoch WAIT-FREE
//     (exec::RcuReader + RcuGuard) while rounds and publications race on —
//     no lock, no torn epoch, grace-period reclamation;
//   * periodic checkpoints (replay::CheckpointStore, optional) capture the
//     full state machine; restore-then-continue is bit-identical.
//
// Determinism contract (docs/SERVE.md): the service's results are a pure
// function of (construction inputs, recorded ingest log). Concurrent
// arrival order is absorbed by the record-before-apply rule, and the
// `serve.ingest` faults fire in offer() before recording — so replaying a
// live run's log through step(batch) on a fresh service, WITHOUT faults
// armed and at any pool size, reproduces every round's signature chain
// exactly. bench/serve_loop --selfcheck proves it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "demand/config.hpp"
#include "exec/rcu.hpp"
#include "graph/graph.hpp"
#include "optical/modulation.hpp"
#include "replay/checkpoint.hpp"
#include "serve/epoch.hpp"
#include "serve/ingest.hpp"
#include "te/algorithm.hpp"
#include "update/schedule.hpp"
#include "util/units.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::serve {

struct ServeConfig {
  /// Stream seed (checkpoint Rng section + config fingerprint).
  std::uint64_t seed = 1;
  /// Controller safety margin (fingerprinted).
  util::Db snr_margin{0.5};
  /// Optional flap dampening (presence and params fingerprinted).
  std::optional<core::HysteresisParams> hysteresis;
  /// Incremental re-solve hot path (docs/FLEET.md). Timing-only by the
  /// controller's contract, so NOT fingerprinted — a restored service may
  /// flip it freely.
  bool incremental = true;
  /// SNR every link starts at before the first sample arrives (dB;
  /// fingerprinted — it is round 0 input state).
  double initial_snr_db = 15.0;

  /// Ingest queue bound + shed policy (backpressure knobs; deliberately
  /// NOT fingerprinted — they shape which events reach the log, and the
  /// contract is over the log).
  std::size_t queue_capacity = 1024;
  ShedPolicy shed = ShedPolicy::kDropOldest;

  /// Checkpoint every N completed rounds into the attached store
  /// (0 = only explicit checkpoint() calls).
  std::uint64_t checkpoint_every = 0;

  /// Reader-slot capacity of the service's RCU domain.
  std::size_t max_readers = 128;

  /// Thread pool for the controller's consolidation pass; nullptr selects
  /// exec::ThreadPool::global(). Bit-identical results at every pool size
  /// (docs/CONCURRENCY.md), so not fingerprinted.
  exec::ThreadPool* pool = nullptr;

  /// Optional consistent-update transition stage (docs/UPDATE.md): the
  /// controller plans, validates and EXECUTES each round's schedule
  /// (update::ScheduleExecutor, update.commit/update.rollback fault sites
  /// live; the outcome is RoundReport::execution) before the epoch
  /// publishes — an epoch never becomes visible ahead of its transition.
  /// Observational by the controller's contract, so NOT fingerprinted — a
  /// restored service may flip it freely.
  std::optional<update::SchedulerConfig> update;

  /// Demand source of every round (docs/DEMAND.md). kEstimated routes the
  /// live (sanitized) intent through a demand::DemandPipeline before TE —
  /// the published epochs carry counter-inferred volumes. CHANGES RESULTS,
  /// so the demand fields join the config fingerprint (estimated mode
  /// only; oracle services keep the historical hash) and checkpoints grow
  /// a mandatory kDemand section.
  demand::DemandConfig demand;
};

class ServeService {
 public:
  using RoundReport = core::DynamicCapacityController::RoundReport;

  /// `physical` carries nominal capacities; `engine` must outlive the
  /// service; `base_demands` is the round-0 traffic intent (volumes evolve
  /// via kDemand ingest events; src/dst/priority are fixed).
  ServeService(graph::Graph physical, const te::TeAlgorithm& engine,
               te::TrafficMatrix base_demands,
               ServeConfig config = ServeConfig{});

  // --- Producer side -----------------------------------------------------
  /// The ingest queue; any thread may offer() into it.
  IngestQueue& queue() { return queue_; }

  // --- Serving thread ----------------------------------------------------
  /// Live step: drain -> record -> apply -> round -> publish -> checkpoint.
  RoundReport step();
  /// Replay step: apply a recorded batch instead of draining the queue
  /// (appends to this service's log too, so a replayed service's log
  /// equals the original's). Everything downstream is identical to live.
  RoundReport step(std::span<const IngestEvent> batch);

  // --- Reader side (wait-free) -------------------------------------------
  /// Register readers against this domain; acquire epochs from the cell:
  ///   exec::RcuReader reader(service.rcu_domain());
  ///   exec::RcuGuard<PlanEpoch> epoch(service.epoch_cell(), reader);
  exec::RcuDomain& rcu_domain() { return domain_; }
  const exec::RcuCell<PlanEpoch>& epoch_cell() const { return cell_; }

  // --- State machine -----------------------------------------------------
  std::uint64_t round() const { return round_; }
  std::uint64_t signature_chain() const { return signature_chain_; }
  std::uint64_t epochs_published() const { return epochs_; }
  const IngestLog& log() const { return log_; }
  const core::DynamicCapacityController& controller() const {
    return controller_;
  }
  /// Live (sanitized) per-demand volumes and per-link SNR.
  const te::TrafficMatrix& demands() const { return demands_; }
  const std::vector<util::Db>& link_snr() const { return snr_; }

  /// Hash of everything that must match for a checkpoint to be portable:
  /// topology, base demands, seed, snr_margin, hysteresis, initial SNR.
  /// Queue/shed/pool/incremental knobs are excluded by design.
  std::uint64_t config_fingerprint() const { return config_fingerprint_; }

  // --- Checkpointing -----------------------------------------------------
  /// Store for periodic checkpoints (config.checkpoint_every); must
  /// outlive the service. nullptr detaches.
  void set_checkpoint_store(replay::CheckpointStore* store) {
    store_ = store;
  }

  /// Captures the full serve state machine as a replay::Checkpoint (meta +
  /// controller + rng sections reused; serve-specific state travels in the
  /// opaque kServe section — docs/SERVE.md, "Checkpoint anatomy").
  replay::Checkpoint checkpoint() const;
  /// Restores a captured state. kConfigMismatch on a foreign fingerprint,
  /// kMissingSection when the serve section is absent, kMalformed when the
  /// payload does not parse against this topology. On any error the
  /// service is unchanged.
  replay::Error restore(const replay::Checkpoint& checkpoint);
  /// load_latest() + restore() against `store`.
  replay::Error restore_latest(const replay::CheckpointStore& store);

 private:
  /// Applies one recorded event to demands_/snr_ with deterministic
  /// sanitization (NaN -> keep previous, clamp to the legal range; every
  /// rewrite counted under serve.ingest.clamped).
  void apply_event(const IngestEvent& event);
  void publish_epoch(const RoundReport& report);

  graph::Graph topology_;
  core::DynamicCapacityController controller_;
  ServeConfig config_;
  std::uint64_t config_fingerprint_ = 0;

  te::TrafficMatrix base_demands_;
  te::TrafficMatrix demands_;       // live volumes (sanitized)
  std::vector<util::Db> snr_;      // live per-link SNR (sanitized)

  IngestQueue queue_;
  IngestLog log_;

  std::uint64_t round_ = 0;
  std::uint64_t signature_chain_ = 0;
  std::uint64_t epochs_ = 0;

  exec::RcuDomain domain_;
  exec::RcuCell<PlanEpoch> cell_;

  replay::CheckpointStore* store_ = nullptr;
};

}  // namespace rwc::serve
