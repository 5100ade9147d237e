// Streaming long-horizon fleet replay driver (rwc::replay).
//
// ReplayDriver re-runs the paper's dynamic-capacity control loop — SNR
// telemetry -> DynamicCapacityController round -> analytic reconfiguration
// accounting — over arbitrarily long synthetic fleet horizons in bounded
// memory: instead of materializing multi-year SNR traces up front (the
// WanSimulator approach, O(rounds * links) floats), it streams each link's
// trace through an SnrTraceCursor in chunks of `chunk_rounds` samples.
//
// The driver is checkpointable between any two rounds: checkpoint()
// captures the full deterministic state (see replay/checkpoint.hpp) and
// restore() resumes BIT-IDENTICALLY — the remaining rounds produce the
// same RoundReports, metrics and signature chain as the uninterrupted run,
// at every thread-pool size, whatever the engine's reuse state (it only
// affects timing). tests/test_replay_driver.cpp proves the contract;
// docs/REPLAY.md states it.
//
// Each round is charged by sim::RoundAccount, the account WanSimulator's
// dynamic policies use, so a replay run and a simulator run of the same
// seed produce the same metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "bvt/latency.hpp"
#include "core/controller.hpp"
#include "demand/config.hpp"
#include "replay/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "telemetry/snr_model.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::replay {

struct ReplayConfig {
  /// Total TE rounds to drive (96 = one day at the default interval).
  std::uint64_t rounds = 96;
  util::Seconds te_interval = 15.0 * util::kMinute;
  util::Db snr_margin{0.5};
  /// Scale demands by the diurnal curve.
  bool diurnal = true;
  telemetry::SnrModelParams snr_model;
  bvt::LatencyModelParams latency;
  /// Reconfiguration procedure of the analytic account (kStandard mirrors
  /// CapacityPolicy::kDynamic, kEfficient mirrors kDynamicHitless).
  bvt::Procedure procedure = bvt::Procedure::kStandard;
  std::uint64_t seed = 1;
  /// SNR samples generated per streaming refill; bounds peak memory at
  /// O(chunk_rounds * links) instead of O(rounds * links). Part of the
  /// config fingerprint: chunk boundaries decide which cursor states a
  /// checkpoint carries.
  std::uint64_t chunk_rounds = 256;
  /// When non-zero and a store is attached, step() writes a checkpoint
  /// every this many rounds.
  std::uint64_t checkpoint_every = 0;
  /// Controller-side dampening of capacity increases.
  std::optional<core::HysteresisParams> hysteresis;
  /// Enable the controller's incremental re-solve hot path
  /// (core::ControllerOptions::incremental, docs/FLEET.md). Deliberately
  /// NOT part of the config fingerprint: results are bit-identical with
  /// the flag on or off, so checkpoints are portable across modes — the
  /// differential tests rely on exactly that.
  bool incremental = false;
  /// Pool for chunk generation and the controller's consolidation pass;
  /// nullptr selects exec::ThreadPool::global(). Results are identical at
  /// every pool size (docs/CONCURRENCY.md).
  exec::ThreadPool* pool = nullptr;
  /// Demand source of every controller round (docs/DEMAND.md). kOracle
  /// keeps the historical behavior: the true matrix is fed to TE directly.
  /// kEstimated routes each round through a demand::DemandPipeline — TE
  /// sees the counter-inferred matrix, delivered accounting caps each OD
  /// at its TRUE volume (routing against an over-estimate never counts as
  /// delivering traffic nobody offered), and checkpoints carry the kDemand
  /// section. The demand fields join the config fingerprint only in
  /// estimated mode, so existing oracle checkpoints stay valid.
  demand::DemandConfig demand;
};

/// Config-fingerprint blocks shared by ReplayDriver and serve::ServeService,
/// each of which folds its own fields between them. The topology and demand
/// block starts the hash; the hysteresis block folds presence, then the
/// parameters; the demand-config block folds nothing in oracle mode, so
/// oracle fingerprints keep their value from before demand estimation
/// existed and historical checkpoints still restore.
std::uint64_t fingerprint_network(const graph::Graph& topology,
                                  const te::TrafficMatrix& demands);
std::uint64_t fingerprint_hysteresis(
    std::uint64_t hash, const std::optional<core::HysteresisParams>& params);
std::uint64_t fingerprint_demand(std::uint64_t hash,
                                 const demand::DemandConfig& config);

/// Folds one completed round into a rolling signature chain: the round
/// index, the upgrades (edge, rate), the routed volume, the penalty, the
/// reduction and restoration counts and the transition verdict (the
/// prop::RoundSignature fields), as bit patterns rather than rounded
/// values. Two runs agree on every round iff their chains agree.
/// ReplayDriver and serve::ServeService both chain with it.
std::uint64_t fold_round(
    std::uint64_t chain, std::uint64_t round,
    const core::DynamicCapacityController::RoundReport& report);

class ReplayDriver {
 public:
  /// `topology` must be built from bidirectional pairs (edges 2k, 2k+1 form
  /// one physical link; one fiber per pair, one wavelength per direction,
  /// like WanSimulator). The engine must outlive the driver.
  ReplayDriver(graph::Graph topology, const te::TeAlgorithm& engine,
               te::TrafficMatrix base_demands, ReplayConfig config);

  /// Hash of everything that determines the run's outputs: topology,
  /// demands, seed, intervals, model parameters, chunking. Checkpoints
  /// carry it; restore rejects a mismatch with Error::kConfigMismatch.
  std::uint64_t config_fingerprint() const { return config_fingerprint_; }

  std::uint64_t round() const { return round_; }
  bool done() const { return round_ >= config_.rounds; }

  /// fold_round over every completed round.
  std::uint64_t signature_chain() const { return signature_chain_; }

  /// Cumulative metrics so far, with availability normalized to the mean
  /// link-up fraction (WanSimulator convention).
  sim::SimulationMetrics metrics() const { return account_.totals(); }

  /// Attaches a store for periodic checkpoints (config.checkpoint_every).
  /// The store must outlive the driver; nullptr detaches.
  void attach_store(CheckpointStore* store) { store_ = store; }

  /// Per-round observation hook, invoked at the end of every step() with
  /// the index of the round just executed, the raw per-link SNR fed to the
  /// controller, and the round's report. Pure observation: it runs after
  /// all round state (signature chain, metrics) is final and must not
  /// mutate the driver. Not part of checkpointed state — an aggregator
  /// that needs to survive restore must rebuild from its own data
  /// (rwc::fleet re-registers its aggregation hook after every restore).
  using RoundObserver = std::function<void(
      std::uint64_t round, std::span<const util::Db> snr,
      const core::DynamicCapacityController::RoundReport& report)>;
  void set_round_observer(RoundObserver observer) {
    observer_ = std::move(observer);
  }

  /// The driver's controller (e.g. to read configured capacities from an
  /// observer).
  const core::DynamicCapacityController& controller() const {
    return controller_;
  }

  /// Runs one TE round and returns its report (for signature checks and
  /// invariant harnesses). Precondition: !done().
  core::DynamicCapacityController::RoundReport step();

  /// Runs to completion; returns the final metrics().
  sim::SimulationMetrics run();

  /// Runs up to `max_rounds` further rounds; returns how many ran.
  std::uint64_t run(std::uint64_t max_rounds);

  /// Captures the full deterministic state between rounds.
  Checkpoint checkpoint() const;

  /// Rewinds (or fast-forwards) the driver to `checkpoint`. On any error
  /// the driver is unchanged. kConfigMismatch when the checkpoint belongs
  /// to a different configuration, kMalformed when its internal sizes
  /// cannot apply to this topology.
  Error restore(const Checkpoint& checkpoint);

  /// Restores from the newest valid checkpoint in `store` (deterministic
  /// fallback across corrupted files — replay.restore.fallbacks counts the
  /// skips).
  Error restore_latest(const CheckpointStore& store);

 private:
  void refill_chunk();
  /// Captures the cursor states as the new chunk base and generates the
  /// next chunk_len_ samples per edge (parallel over edges, deterministic).
  void fill_chunk_from_cursors();
  exec::ThreadPool& pool() const;

  graph::Graph topology_;
  const te::TeAlgorithm& engine_;
  te::TrafficMatrix base_demands_;
  ReplayConfig config_;
  std::uint64_t config_fingerprint_ = 0;

  optical::ModulationTable table_;
  core::DynamicCapacityController controller_;
  telemetry::SnrFleetGenerator fleet_;
  sim::RoundAccount account_;

  /// One streaming cursor per physical edge (fiber e/2, wavelength e%2).
  std::vector<telemetry::SnrTraceCursor> cursors_;
  /// Cursor states captured at the last refill — what a checkpoint carries
  /// (the in-flight chunk is regenerated from them on restore).
  std::vector<telemetry::SnrTraceCursor::State> chunk_base_states_;
  /// Per-edge SNR samples for rounds [chunk_base_round_, .. + chunk_len_).
  std::vector<std::vector<float>> chunk_;
  std::uint64_t chunk_base_round_ = 0;
  std::uint64_t chunk_len_ = 0;

  std::uint64_t round_ = 0;
  std::uint64_t signature_chain_ = 0;

  CheckpointStore* store_ = nullptr;
  RoundObserver observer_;
};

}  // namespace rwc::replay
