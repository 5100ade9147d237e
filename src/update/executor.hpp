// Commit/rollback executor for update schedules (docs/UPDATE.md §4).
//
// Drives an UpdateSchedule round by round against a live DataplaneState.
// Each round is transactional: the moves apply in canonical order
// (removals, then reconfigs — drain phase observable — then adds), an
// `update.commit` fault-site evaluation decides the round's fate, and a
// kFail injection rolls every move back (inverse moves in reverse order,
// themselves observable; the rollback's time is subject to
// `update.rollback` timing faults) before retrying, up to
// kMaxCommitAttempts attempts per round. Moves
// apply through update::apply_move, as in the planner and the validator.
// Progress is monotone: the dataplane state between rounds is always the
// prefix of committed rounds, never a torn round — the property
// tests/prop/prop_update.cpp proves under random mid-update fault plans.
//
// A controller with an update stage (core::ControllerOptions::update)
// executes every schedule it validated and reports the outcome in
// RoundReport::execution; the closed loop and the serve tier read it
// there.
//
// Faults only ever perturb timing (kStall/kDelay inflate the reported
// makespan) or force retries/aborts at round boundaries; the committed
// state sequence is bit-identical to a fault-free run of the same prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "update/schedule.hpp"

namespace rwc::update {

/// Commit attempts per round before the executor aborts the schedule at
/// the current round boundary (bounds livelock under periodic kFail
/// plans).
inline constexpr std::size_t kMaxCommitAttempts = 8;

struct ExecutionResult {
  bool completed = false;  ///< every round committed
  bool aborted = false;    ///< gave up after kMaxCommitAttempts
  std::size_t rounds_committed = 0;
  std::uint64_t commit_attempts = 0;
  std::uint64_t rollbacks = 0;
  /// Committed round durations plus injected stall/delay time. Timing
  /// only — excluded from signatures, like RoundStats.
  double makespan_seconds = 0.0;

  friend bool operator==(const ExecutionResult&,
                         const ExecutionResult&) = default;
};

/// Observer invoked after every individual state mutation (each route
/// move applied or reverted, each reconfig's drain and commit step). The
/// state passed is the live intermediate dataplane — the hook the
/// invariant properties use to audit every transient.
using StateObserver = std::function<void(const DataplaneState&)>;

class ScheduleExecutor {
 public:
  ScheduleExecutor(const graph::Graph& topology,
                   const UpdateSchedule& schedule);

  /// Executes every remaining round (or until abort). Returns the final
  /// result; `observer` (optional) sees every intermediate state.
  const ExecutionResult& run(const StateObserver& observer = {});

  /// Executes up to `count` further rounds (the committed-prefix oracle of
  /// tests/prop/prop_update.cpp). No-op once done() or aborted().
  const ExecutionResult& run_rounds(std::size_t count,
                                    const StateObserver& observer = {});

  const DataplaneState& state() const { return state_; }
  const ExecutionResult& result() const { return result_; }
  std::size_t next_round() const { return next_round_; }
  bool done() const {
    return next_round_ >= schedule_->rounds.size() || result_.aborted;
  }
  bool aborted() const { return result_.aborted; }

 private:
  bool attempt_round(const UpdateRound& round, const StateObserver& observer);

  const UpdateSchedule* schedule_;
  DataplaneState state_;
  std::size_t next_round_ = 0;
  ExecutionResult result_;
};

}  // namespace rwc::update
