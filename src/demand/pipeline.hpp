// Closed-loop demand estimation pipeline (rwc::demand).
//
// One DemandPipeline lives inside each estimated-mode controller
// (core::ControllerOptions::demand). Per TE round it:
//
//   1. builds the routing matrix of the PREVIOUS round's installed plan
//      (demand/routing_matrix.hpp);
//   2. synthesizes this round's link counters from the offered intent over
//      those routes (demand/counters.hpp — noise/loss/staleness knobs and
//      the `demand.counter` fault site live there), or consumes a queued
//      recorded CounterSet instead (replay-from-log, push_replay());
//   3. records the post-fault counters into the bounded CounterLog and
//      feeds the capacity cross-check (demand/capacity.hpp);
//   4. estimates the OD matrix (demand/estimator.hpp) and maintains the
//      EWMA history prior.
//
// Determinism contract (docs/DEMAND.md): the pipeline's outputs are a pure
// function of (config, round index, intent, previous assignment, armed
// fault plan). Faults and degradations land before recording, so replaying
// a live run's CounterLog through a fresh pipeline WITHOUT faults armed
// reproduces every estimate bit-identically (tests/prop/prop_demand.cpp).
// save_state()/restore_state() capture everything that evolves across
// rounds — the optional kDemand checkpoint section (docs/REPLAY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "demand/capacity.hpp"
#include "demand/config.hpp"
#include "demand/counters.hpp"
#include "demand/estimator.hpp"
#include "te/demand.hpp"

namespace rwc::demand {

/// EWMA blend factor of the estimate history prior, the anchor of damped
/// solves on rank-deficient and under-determined instances.
inline constexpr double kEwmaAlpha = 0.3;

class DemandPipeline {
 public:
  DemandPipeline(std::size_t edge_count, DemandConfig config);

  struct Result {
    te::TrafficMatrix demands;  ///< estimated matrix (intent ODs, volumes
                                ///< replaced; finite and non-negative)
    EstimateStats stats;
  };

  /// Runs one estimation round. `intent` is the true offered matrix (used
  /// for counter synthesis and as the unobservable-OD fallback); `previous`
  /// is the controller's installed assignment from the prior round.
  Result round(const te::TrafficMatrix& intent,
               const te::FlowAssignment& previous);

  /// Queues a recorded CounterSet; the next round() consumes it instead of
  /// synthesizing (and no demand.counter faults fire — they already fired
  /// before the set was recorded). restore_state() drops the queue.
  void push_replay(CounterSet counters) {
    replay_queue_.push_back(std::move(counters));
  }

  const CounterLog& log() const { return log_; }
  const te::TrafficMatrix& last_estimated() const { return last_estimated_; }
  const EstimateStats& last_stats() const { return last_stats_; }
  const DemandConfig& config() const { return config_; }
  std::uint64_t rounds() const { return round_; }
  const CapacityEstimator& capacity() const { return capacity_; }

  /// Everything that evolves across rounds (the kDemand checkpoint
  /// section's payload). The CounterLog is excluded: it is diagnostic
  /// substrate, never an input to future rounds. The replay queue is
  /// excluded too, and restore_state() clears it, although a queued set
  /// is the next round's input: a driver that pushes counters for the
  /// next round must hold them across a restore itself, as
  /// dataplane::ClosedLoop does.
  struct State {
    std::uint64_t round = 0;
    bool ewma_warm = false;
    std::vector<double> ewma;
    std::vector<CounterSample> last_observed;
    std::vector<double> capacity_peak_gbps;

    friend bool operator==(const State&, const State&) = default;
  };
  State save_state() const;
  /// Restores a captured state; vector sizes must be empty or match this
  /// pipeline's topology.
  void restore_state(State state);

 private:
  DemandConfig config_;
  std::size_t edge_count_;
  std::uint64_t round_ = 0;
  bool ewma_warm_ = false;
  std::vector<double> ewma_;
  std::vector<CounterSample> last_observed_;
  std::deque<CounterSet> replay_queue_;
  CounterLog log_;
  CapacityEstimator capacity_;
  te::TrafficMatrix last_estimated_;
  EstimateStats last_stats_;
};

}  // namespace rwc::demand
