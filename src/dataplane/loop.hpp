// The closed control loop (rwc::dataplane) — docs/DATAPLANE.md §5.
//
// The paper's controller is a loop: SNR sets the feasible capacities, an
// unmodified TE engine routes on the augmented topology, a consistent
// update installs the plan, and the dataplane's counters are what the
// next round estimates demand from. One ClosedLoop::step is one such
// round:
//
//   1. the controller round (core::DynamicCapacityController::run_round),
//      whose own update stage plans and validates the schedule
//      (ControllerOptions::update);
//   2. the valid schedule executes (update::ScheduleExecutor);
//   3. the round's capacity timeline is built from that schedule;
//   4. the DataplaneSim runs the installed plan over the timeline;
//   5. when the controller estimates demand (ControllerOptions::demand),
//      the round's dataplane counters become the CounterSet the next
//      round's estimate consumes.
//
// The loop adds no option: the controller's options select the schedule
// and the demand source. Everything is a pure function of the inputs and
// the armed fault plan, at every controller pool size, and save_state()
// restored into a fresh loop continues bit-identically.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/timeline.hpp"
#include "demand/counters.hpp"
#include "demand/pipeline.hpp"
#include "update/executor.hpp"

namespace rwc::dataplane {

class ClosedLoop {
 public:
  /// `intent` is the offered demand matrix every round routes (estimated
  /// mode: what the dataplane carries and the estimate infers back).
  /// `options.update` must be set. The engine must outlive the loop.
  ClosedLoop(graph::Graph topology, te::TrafficMatrix intent,
             const te::TeAlgorithm& engine, core::ControllerOptions options,
             DataplaneConfig dataplane = {});

  struct Round {
    core::DynamicCapacityController::RoundReport report;
    /// The executed schedule's outcome; empty when the round had no valid
    /// schedule and its capacity changes took the synthetic window.
    std::optional<update::ExecutionResult> execution;
    /// What the dataplane ran: the schedule's timeline after the hook.
    CapacityTimeline timeline;
    RoundResult result;
  };

  /// Sees the round's installed assignment and its timeline after the
  /// schedule executed and before the dataplane runs; it may add timeline
  /// events (a forced mid-round downshift).
  using Hook =
      std::function<void(const te::FlowAssignment&, CapacityTimeline&)>;

  /// Runs one round on `snr` (indexed by physical edge id).
  Round step(std::span<const util::Db> snr, const Hook& hook = {});

  /// Everything that carries across rounds. The pending counter set is
  /// part of it: DemandPipeline::restore_state clears the replay queue,
  /// so the loop holds the set and pushes it at the start of the next
  /// step.
  struct State {
    core::DynamicCapacityController::PersistentState controller;
    std::optional<demand::DemandPipeline::State> demand;
    std::vector<std::byte> dataplane;
    std::optional<demand::CounterSet> pending;
  };
  State save_state() const;
  /// Restores a save_state() of a loop built with the same arguments.
  /// Throws util::CheckError on a corrupt dataplane payload, with this
  /// loop untouched.
  void restore_state(State state);

  const core::DynamicCapacityController& controller() const {
    return controller_;
  }
  const DataplaneSim& dataplane() const { return sim_; }

 private:
  core::DynamicCapacityController controller_;
  te::TrafficMatrix intent_;
  DataplaneSim sim_;
  std::optional<demand::CounterSet> pending_;
};

}  // namespace rwc::dataplane
