// WAN simulator: drives SNR telemetry, a capacity policy and a TE engine
// over a time horizon, one round per TE interval, accounting delivered
// traffic, availability, failures/flaps and reconfiguration downtime.
//
// Policies:
//   kStatic           — today's networks: fixed rate, binary up/down on the
//                       rate's SNR threshold.
//   kStaticAggressive — fixed HIGHER rate chosen at provisioning time (the
//                       Section 2.1 strawman that trades failures for rate).
//   kDynamic          — the paper's proposal with laser-cycling BVTs (~68 s
//                       per change).
//   kDynamicHitless   — the paper's proposal with efficient reconfiguration
//                       (~35 ms per change).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bvt/latency.hpp"
#include "core/controller.hpp"
#include "demand/config.hpp"
#include "graph/graph.hpp"
#include "te/algorithm.hpp"
#include "telemetry/snr_model.hpp"
#include "util/rng.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::sim {

enum class CapacityPolicy {
  kStatic,
  kStaticAggressive,
  kDynamic,
  kDynamicHitless,
};

const char* to_string(CapacityPolicy policy);

struct SimulationConfig {
  util::Seconds horizon = 3.0 * util::kDay;
  util::Seconds te_interval = 15.0 * util::kMinute;
  util::Db snr_margin{0.5};
  CapacityPolicy policy = CapacityPolicy::kDynamic;
  /// Rate for the static policies (must be on the ladder).
  util::Gbps static_capacity{100.0};
  /// Scale demands by the diurnal curve.
  bool diurnal = true;
  telemetry::SnrModelParams snr_model;
  bvt::LatencyModelParams latency;
  std::uint64_t seed = 1;
  /// Thread pool for the fleet trace generation and the controller's
  /// consolidation pass; nullptr selects exec::ThreadPool::global().
  /// Results are bit-identical at every pool size (docs/CONCURRENCY.md) —
  /// the knob exists so embedders (rwc::fleet shards, rwc::serve) can keep
  /// a simulation off the global pool instead of contending on it.
  exec::ThreadPool* pool = nullptr;
  /// Demand source for the dynamic policies (docs/DEMAND.md). kOracle feeds
  /// the true matrix to TE (historical behavior); kEstimated infers it from
  /// synthetic link counters each round, and delivered accounting caps each
  /// OD at its true offered volume. Static policies always see the oracle
  /// matrix — they model today's networks, which the paper's measurement
  /// loop does not touch.
  demand::DemandConfig demand;
};

struct SimulationMetrics {
  double offered_gbps_hours = 0.0;
  double delivered_gbps_hours = 0.0;
  /// Mean over ticks of the fraction of links with non-zero capacity.
  double availability = 0.0;
  std::size_t link_failures = 0;  // capacity transitions to 0
  std::size_t link_flaps = 0;     // reductions to a non-zero rate
  std::size_t upgrades = 0;       // TE-driven capacity increases
  std::size_t restorations = 0;   // SNR-recovery restorations to nominal
  /// Always 0. Counted modulation changes that failed to lock in the
  /// retired device-backed simulator mode; kept because the checkpoint
  /// metrics section and the golden fixtures carry it.
  std::size_t lock_failures = 0;
  double reconfig_downtime_hours = 0.0;
  std::size_t te_rounds = 0;

  double delivered_fraction() const {
    return offered_gbps_hours > 0.0
               ? delivered_gbps_hours / offered_gbps_hours
               : 0.0;
  }
};

/// The per-round account of the dynamic policies, one definition shared
/// by WanSimulator and replay::ReplayDriver. charge() adds one round to
/// `metrics`: offered and delivered traffic (each OD capped at its true
/// volume when the controller estimates demands, docs/DEMAND.md), one
/// sampled reconfiguration downtime per capacity change with the traffic
/// newly assigned to that link lost for the downtime's overlap with the
/// round, the flap, failure, restoration and upgrade counts, and the
/// link-up fraction.
struct RoundAccount {
  /// The downtime stream derives from `seed`, so a simulator run and a
  /// replay run of the same seed sample the same downtimes.
  RoundAccount(const bvt::LatencyModelParams& latency,
               bvt::Procedure procedure, util::Seconds te_interval,
               std::uint64_t seed);

  /// Charges one round: `demands` is the true offered matrix, `report`
  /// the controller's round, `controller` its state after the round.
  void charge(const te::TrafficMatrix& demands,
              const core::DynamicCapacityController::RoundReport& report,
              const core::DynamicCapacityController& controller);

  /// The running totals with availability normalized to the mean link-up
  /// fraction.
  SimulationMetrics totals() const;

  bvt::LatencyModel latency;
  bvt::Procedure procedure;
  util::Seconds te_interval;
  /// Downtime sampler stream (checkpointed by rwc::replay).
  util::Rng rng;
  /// Running totals; availability holds the per-round sum until totals()
  /// divides it.
  SimulationMetrics metrics;
};

class WanSimulator {
 public:
  /// `topology` must be built from bidirectional pairs (edges 2k, 2k+1 form
  /// one physical link). The engine must outlive the simulator.
  WanSimulator(graph::Graph topology, const te::TeAlgorithm& engine,
               SimulationConfig config);

  /// Runs the simulation against `base_demands` (scaled by the diurnal curve
  /// when enabled).
  SimulationMetrics run(const te::TrafficMatrix& base_demands);

  const graph::Graph& topology() const { return topology_; }

 private:
  graph::Graph topology_;
  const te::TeAlgorithm& engine_;
  SimulationConfig config_;
};

/// One simulation configuration in a sweep (e.g. one policy arm).
struct Scenario {
  std::string name;
  SimulationConfig config;
};

struct ScenarioResult {
  std::string name;
  SimulationMetrics metrics;
};

/// Runs every scenario against the shared topology/engine/demands,
/// distributing whole scenarios over `pool` (nullptr selects
/// exec::ThreadPool::global()). Each scenario's simulation is
/// self-contained, so results are positionally ordered and bit-identical
/// at every pool size. The engine's solve() must be safe to call
/// concurrently (both built-in engines are).
std::vector<ScenarioResult> run_scenarios(const graph::Graph& topology,
                                          const te::TeAlgorithm& engine,
                                          const te::TrafficMatrix& base_demands,
                                          std::span<const Scenario> scenarios,
                                          exec::ThreadPool* pool = nullptr);

}  // namespace rwc::sim
