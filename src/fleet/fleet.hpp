// Fleet-scale sharded deployment study (rwc::fleet).
//
// The paper's headline numbers are population-scale: +145 Tbps across
// >2000 links (§2.1) and availability gains because ≥25% of "failed" links
// still sustain crawl-mode capacity (§2.2). FleetEngine reproduces that
// kind of study in-process: it simulates many independent WAN instances —
// each a sampled Waxman topology with a gravity demand matrix and a
// calibrated SNR trace (rwc::telemetry) driven through the full
// ReplayDriver/DynamicCapacityController pipeline — partitioned into
// deterministic shards executed on exec::ThreadPool.
//
// Determinism contract (tests/test_fleet_differential.cpp,
// tests/prop/prop_fleet.cpp):
//   * Every instance derives its topology, demands and trace seed purely
//     from (config.seed, instance id) via util::Rng::stream, so instance i
//     computes the same result whatever shard runs it and whatever the
//     pool size — results are bit-identical across shard counts AND pool
//     sizes (docs/CONCURRENCY.md extends to the fleet level).
//   * Per-instance results land in id-indexed slots and the fleet chain
//     folds them in id order, so the merge is a serial reduction.
//   * The incremental re-solve hot path (FleetConfig::incremental) is
//     bit-identical to full re-solves: the fleet chain (a fold of every
//     round's signature content) is equal with the flag on or off.
//   * Fault plans armed around a fleet run must target parallel-keyed
//     sites only (core.snr by edge id, flow.mincost by network
//     fingerprint): their keys derive from per-instance inputs, so
//     injections are independent of scheduling. Plans matching serial
//     (hit-counter) sites would see an interleaving-dependent counter and
//     void the determinism contract — docs/FLEET.md.
//
// Memory stays bounded per shard: a shard owns one live instance at a
// time (engine + driver + chunked SNR stream), so peak memory is
// O(shards * instance) rather than O(instances).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/hysteresis.hpp"
#include "demand/config.hpp"
#include "sim/simulator.hpp"
#include "telemetry/snr_model.hpp"
#include "util/env.hpp"
#include "util/units.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::fleet {

/// Which TE engine each instance constructs (engines are per-instance so
/// their caches never alias across instances).
enum class EngineKind { kMcf, kSwan };

struct FleetConfig {
  /// Independent WAN instances to simulate.
  std::size_t instances = 1000;
  /// Deterministic partition of instances into contiguous shards; the unit
  /// of parallel execution. Results are invariant to this value.
  std::size_t shards = 8;
  /// TE rounds per instance.
  std::uint64_t rounds = 96;
  std::uint64_t seed = 1;
  /// Sampled topology size range (inclusive), Waxman graphs.
  int min_nodes = 8;
  int max_nodes = 12;
  /// Gravity demand total as a fraction of the topology's total capacity.
  double demand_load = 0.5;
  EngineKind engine = EngineKind::kMcf;
  /// Controller incremental re-solve hot path (docs/FLEET.md). Changes
  /// timing and work counters only, never results.
  bool incremental = true;
  /// Solver-rung reuse (docs/SOLVERS.md): McfTe::Options::prefix_reuse
  /// and SwanTe::Options::lp_memo. Bit-identical to cold solves by
  /// construction — changes timing and work counters only, never results
  /// or the fleet chain. RWC_PARTIAL_RESOLVE=0 flips the default off for
  /// bisection.
  bool partial = util::env_flag("RWC_PARTIAL_RESOLVE", true);
  /// Diurnal demand scaling. Off by default so stable-SNR rounds repeat
  /// their solve inputs exactly — the case the incremental path serves.
  bool diurnal = false;
  util::Db snr_margin{0.5};
  telemetry::SnrModelParams snr_model;
  /// Engaged by default: dampening capacity increases is what makes the
  /// common case common — without it, per-sample jitter flips some link's
  /// quantized rate almost every round and the incremental memo never
  /// hits. Mirrors the paper's §2.3 observation that short-horizon SNR
  /// movement should not change capacity decisions. Set to nullopt to
  /// study the undamped controller.
  std::optional<core::HysteresisParams> hysteresis = core::HysteresisParams{};
  /// SNR samples per streaming refill (bounds per-instance memory).
  std::uint64_t chunk_rounds = 64;
  /// When non-empty, each instance writes rotated checkpoints under
  /// <checkpoint_dir>/instance-<id>/ every `checkpoint_every` rounds
  /// (0 disables). Restoring an instance from its store and finishing the
  /// horizon reproduces its slot of the fleet bit-identically.
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every = 0;
  /// Pool for shard execution (and, transitively, everything the driver
  /// parallelizes — nested use runs inline on worker threads); nullptr
  /// selects exec::ThreadPool::global().
  exec::ThreadPool* pool = nullptr;
  /// Demand source every instance's controller runs on (docs/DEMAND.md).
  /// kEstimated makes each instance infer its matrix from synthetic link
  /// counters; the per-instance counter stream derives from the instance's
  /// own trace seed, so results stay a pure function of
  /// (config, instance id) and the shard/pool invariance holds unchanged.
  demand::DemandConfig demand;
};

/// What one instance contributes to the study. Everything here is a pure
/// function of (config, instance id).
struct InstanceResult {
  /// ReplayDriver::signature_chain after the full horizon: folds every
  /// round's result signature, so two runs agree on every round iff their
  /// chains agree.
  std::uint64_t signature_chain = 0;
  std::uint64_t rounds = 0;
  /// Rounds served by the controller's memo without a re-solve.
  std::uint64_t incremental_hits = 0;
  /// Rounds whose solve reused earlier work (an McfTe prefix resume or an
  /// LP memo hit) instead of running fully cold — the middle rung of the
  /// memo -> prefix -> full ladder (docs/SOLVERS.md).
  std::uint64_t partial_rounds = 0;
  sim::SimulationMetrics metrics;
  /// Per directed edge: highest ladder rate the link's SNR supported at
  /// any round (Gbps) — the §2.1 capability distribution.
  std::vector<double> link_capability_gbps;
  /// Per directed edge: nominal (provisioned) rate.
  std::vector<double> link_nominal_gbps;
  /// Failure events: maximal runs of consecutive rounds during which a
  /// link's feasible rate sat below its nominal rate.
  std::uint64_t failure_events = 0;
  /// Failure events whose feasible rate never dropped below crawl (50 G).
  std::uint64_t crawl_retained_events = 0;
};

/// Aggregated fleet outcome. Per-instance results are kept (id order) so
/// the deployment study can build distributions; the scalar fields are the
/// id-ordered serial fold the tests pin.
struct FleetResult {
  /// mix of every instance's signature_chain, folded in id order.
  std::uint64_t fleet_chain = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t incremental_hits = 0;
  std::uint64_t partial_rounds = 0;
  std::uint64_t failure_events = 0;
  std::uint64_t crawl_retained_events = 0;
  std::vector<InstanceResult> instances;

  double incremental_hit_rate() const {
    return total_rounds > 0
               ? static_cast<double>(incremental_hits) /
                     static_cast<double>(total_rounds)
               : 0.0;
  }
  /// Fraction of the rounds that missed the memo but were still served by
  /// solver-rung reuse — how often "something changed" cost less than a
  /// full re-solve (docs/SOLVERS.md).
  double partial_hit_rate() const {
    const std::uint64_t misses = total_rounds - incremental_hits;
    return misses > 0
               ? static_cast<double>(partial_rounds) /
                     static_cast<double>(misses)
               : 0.0;
  }
  double crawl_retention_fraction() const {
    return failure_events > 0
               ? static_cast<double>(crawl_retained_events) /
                     static_cast<double>(failure_events)
               : 0.0;
  }
};

/// Runs one instance of the fleet in isolation (what a shard does for each
/// of its instances). Exposed for the differential tests, which compare a
/// directly-run instance against its slot in a sharded fleet run.
InstanceResult run_instance(const FleetConfig& config, std::size_t instance);

/// Runs the whole fleet: shards execute on the pool, per-instance results
/// land in id-indexed slots, the fold is serial in id order. Records
/// fleet.* metrics (docs/OBSERVABILITY.md).
FleetResult run_fleet(const FleetConfig& config);

}  // namespace rwc::fleet
