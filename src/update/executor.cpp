#include "update/executor.hpp"

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::update {

namespace {

struct ExecMetrics {
  obs::Counter& rounds_committed;
  obs::Counter& commit_attempts;
  obs::Counter& rollbacks;
  obs::Counter& aborts;
  obs::Histogram& seconds;

  static ExecMetrics& instance() {
    static ExecMetrics metrics{
        obs::Registry::global().counter("update.exec.rounds_committed"),
        obs::Registry::global().counter("update.exec.commit_attempts"),
        obs::Registry::global().counter("update.exec.rollbacks"),
        obs::Registry::global().counter("update.exec.aborts"),
        obs::Registry::global().histogram("update.exec.seconds"),
    };
    return metrics;
  }
};

/// Injected stall/delay time in seconds (kDelay magnitudes travel in
/// milliseconds — fault/plan.hpp).
double injected_seconds(const fault::Action& action) {
  if (action.kind == fault::Kind::kStall) return action.magnitude;
  if (action.kind == fault::Kind::kDelay) return action.magnitude / 1000.0;
  return 0.0;
}

}  // namespace

ScheduleExecutor::ScheduleExecutor(const graph::Graph& topology,
                                   const UpdateSchedule& schedule)
    : schedule_(&schedule), state_(schedule.initial) {
  RWC_CHECK_MSG(state_.load_gbps.size() == topology.edge_count(),
                "ScheduleExecutor: schedule does not match the topology");
}

bool ScheduleExecutor::attempt_round(const UpdateRound& round,
                                     const StateObserver& observer) {
  ++result_.commit_attempts;
  ExecMetrics::instance().commit_attempts.add();
  // Round-start snapshot: rollback restores it verbatim, so a failed
  // attempt leaves the state BIT-identical to before (inverse floating-
  // point arithmetic alone would drift in the last ulp).
  const DataplaneState checkpoint = state_;
  for (const Move& move : round.moves) {
    if (move.kind == Move::Kind::kReconfig) {
      // Drain phase: the link's admissible load collapses to the drain
      // limit (0 when the laser power-cycles) for the duration of the
      // modulation change. Observable so the invariant layer audits the
      // dark window; apply_move then commits the target rate.
      state_.limit_gbps[static_cast<std::size_t>(move.edge.value)] =
          drain_limit_for(schedule_->procedure, move.from.value,
                          move.to.value, schedule_->headroom);
      if (observer) observer(state_);
    }
    apply_move(state_, move, schedule_->headroom);
    if (observer) observer(state_);
  }

  // Fault site: the round's commit barrier. kFail forces a full rollback
  // and retry; kStall/kDelay are timing-only (inflate makespan, commit
  // anyway); anything else commits untouched.
  const fault::Action action = fault::next("update.commit");
  result_.makespan_seconds += injected_seconds(action);
  if (action.kind != fault::Kind::kFail) {
    result_.makespan_seconds += round.duration_seconds;
    return true;
  }

  ++result_.rollbacks;
  ExecMetrics::instance().rollbacks.add();
  // The failed attempt and its rollback each cost a round's wall time.
  result_.makespan_seconds += 2.0 * round.duration_seconds;
  // A reverted reconfig is safe in one step: its edge's load was at or
  // below the drain limit when it applied, and every later same-round move
  // is already reverted, so the pre-move limit re-admits it.
  for (auto it = round.moves.rbegin(); it != round.moves.rend(); ++it) {
    apply_move(state_, *it, schedule_->headroom, /*inverse=*/true);
    if (observer) observer(state_);
  }
  state_ = checkpoint;  // exact restore (see snapshot note above)
  if (observer) observer(state_);
  // Fault site: rollback path. Contractually timing-only — state motion
  // is the deterministic inverse replay above.
  result_.makespan_seconds += injected_seconds(fault::next("update.rollback"));
  return false;
}

const ExecutionResult& ScheduleExecutor::run(const StateObserver& observer) {
  const obs::StopWatch watch;
  const ExecutionResult& result =
      run_rounds(schedule_->rounds.size(), observer);
  ExecMetrics::instance().seconds.observe(watch.seconds());
  return result;
}

const ExecutionResult& ScheduleExecutor::run_rounds(
    std::size_t count, const StateObserver& observer) {
  for (std::size_t i = 0; i < count && !done(); ++i) {
    const UpdateRound& round = schedule_->rounds[next_round_];
    bool committed = false;
    for (std::size_t attempt = 0; attempt < kMaxCommitAttempts && !committed;
         ++attempt)
      committed = attempt_round(round, observer);
    if (!committed) {
      // Clean abort at the round boundary: the dataplane is exactly the
      // committed prefix (monotone progress — never a torn round).
      result_.aborted = true;
      ExecMetrics::instance().aborts.add();
      break;
    }
    ++next_round_;
    ++result_.rounds_committed;
    ExecMetrics::instance().rounds_committed.add();
  }
  result_.completed =
      !result_.aborted && next_round_ >= schedule_->rounds.size();
  return result_;
}

}  // namespace rwc::update
