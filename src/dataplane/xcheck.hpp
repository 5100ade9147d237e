// Solver-vs-dataplane differential oracle (rwc::dataplane) —
// docs/DATAPLANE.md §5.
//
// run_xcheck steps a ClosedLoop (dataplane/loop.hpp) over one seeded WAN
// instance: a Waxman (or Hanauer-style demand-aware) workload through the
// real DynamicCapacityController — SNR flaps, TE solve, the executed
// consistent-update schedule — and the DataplaneSim that runs every
// round's installed plan. The oracle per round:
//
//   * per-OD goodput within kGapTolerance of the solver allocation
//     (shortfall), and never above it beyond kOvershootTolerance (WCMP
//     hash granularity + transition-backlog drain);
//   * zero capacity-safety violations outside scheduled update windows
//     (and, with the proportional-service discipline, inside them too);
//   * conservation: injected == delivered + dropped + in-flight.
//
// Rounds with a forced unscheduled downshift (`downshift_round`, the
// loop's hook) exempt the shortfall clause — capacity vanished mid-round
// with no schedule — and instead require the HPCC reaction to have fired
// (rate cuts > 0) with capacity safety intact. Everything is a pure
// function of the config, independent of the controller's pool:
// bench/dataplane_xcheck --selfcheck pins bit-identity across pool sizes
// {1,2,8} and restore-then-continue.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "dataplane/loop.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::dataplane {

enum class XcheckEngine { kMcf, kSwan };

/// Max tolerated relative goodput shortfall vs the solver allocation.
inline constexpr double kGapTolerance = 0.02;
/// Max tolerated relative overshoot (hash granularity + backlog drain).
inline constexpr double kOvershootTolerance = 0.02;
/// Allocation below which an OD is not scored (Gbps).
inline constexpr double kMinAllocGbps = 1e-3;

struct XcheckConfig {
  std::uint64_t seed = 1;
  int nodes = 10;
  std::size_t rounds = 4;
  XcheckEngine engine = XcheckEngine::kMcf;
  /// Demand total as a fraction of topology capacity.
  double demand_load = 0.4;
  /// Hanauer-style demand-aware (elephant-skewed) workload instead of the
  /// gravity model (sim/workload.hpp).
  bool demand_aware = false;
  /// Round on which to force an unscheduled mid-round downshift of the
  /// most-loaded link to `downshift_factor` of its capacity (SIZE_MAX =
  /// never) — the HPCC reaction leg.
  std::size_t downshift_round = static_cast<std::size_t>(-1);
  double downshift_factor = 0.25;
  /// Round before which to save the loop and restore it into a fresh one
  /// (SIZE_MAX = never). The outcome must be bit-identical to an
  /// uninterrupted run — the restore-then-continue gate of
  /// bench/dataplane_xcheck --selfcheck.
  std::size_t checkpoint_round = static_cast<std::size_t>(-1);
  DataplaneConfig dataplane;
  /// Pool for the controller; nullptr = exec::ThreadPool::global(). The
  /// dataplane runs inline on the calling thread (DataplaneConfig::pool).
  exec::ThreadPool* pool = nullptr;
};

struct XcheckRound {
  double max_shortfall = 0.0;  ///< max over scored ODs, relative
  double max_overshoot = 0.0;
  double total_alloc_gbps = 0.0;
  double total_goodput_gbps = 0.0;
  std::uint64_t capacity_violations = 0;
  std::uint64_t window_violations = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rate_cuts = 0;
  double delivered_bytes = 0.0;
  double dropped_bytes = 0.0;
  double max_queued_bytes = 0.0;
  bool scheduled = false;   ///< a feasible update schedule shaped the round
  bool downshifted = false; ///< forced unscheduled downshift fired
  std::uint64_t signature = 0;  ///< dataplane state fold after the round
};

struct XcheckOutcome {
  bool pass = true;
  std::string failure;  ///< first violated clause (empty when pass)
  std::vector<XcheckRound> rounds;
  double max_shortfall = 0.0;
  double max_overshoot = 0.0;
  std::uint64_t capacity_violations = 0;  ///< outside update windows
  std::uint64_t window_violations = 0;
  std::uint64_t migrations = 0;
  /// Fold of every round's signature in round order: two runs agree on
  /// every dataplane round iff the chains agree.
  std::uint64_t chain = 0;
};

/// Sees every round after the dataplane ran it: its index, the loop and
/// what the round did (the dataplane's inputs included).
using XcheckObserver = std::function<void(
    std::size_t round, const ClosedLoop& loop, const ClosedLoop::Round& step)>;

/// Runs the differential oracle on one seeded instance. Bit-identical at
/// every pool size and across restore-then-continue.
XcheckOutcome run_xcheck(const XcheckConfig& config,
                         const XcheckObserver& observer = {});

}  // namespace rwc::dataplane
