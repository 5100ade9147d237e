// Consistent-update scheduler (rwc::update) — docs/UPDATE.md.
//
// Each controller round decides a new (capacities, routing) pair; this
// module turns the transition from the previous pair into an ordered
// sequence of *update rounds*. Every round batches moves that are safe to
// execute concurrently — route-weight removals/additions and BVT capacity
// reconfigurations (durations from rwc::bvt's 68 s laser-cycling vs 35 ms
// hitless latency models) — such that EVERY intermediate state is
//
//   * congestion-free: no link loaded beyond `capacity * (1 + headroom)`
//     (pre-existing overload from SNR-forced flaps is tolerated but may
//     never grow — the static overload floor);
//   * black-hole-free: no traffic ever rides a link that is dark or
//     drained below its load mid-reconfiguration;
//   * loop-free: every routed path is a simple, contiguous src->dst path.
//
// The `headroom` knob is the augmentation of PAPERS.md's "The
// Augmentation-Speed Tradeoff for Consistent Network Updates" (Henzinger &
// Pourdamghani): spare capacity admits moves into earlier rounds, so added
// headroom shortens the schedule. bench/update_schedule reproduces the
// curve; bench/update_schedule --selfcheck gates it.
//
// Planning is a pure deterministic function of its inputs (reconfig
// durations come from Rng::stream(seed, kDurationStream ^ edge), so they
// are order- and pool-size-independent). The planner, the validator and
// the executor evolve a DataplaneState through one routine, apply_move.
// Execution with commit/rollback and fault injection lives in
// update/executor.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bvt/latency.hpp"
#include "graph/graph.hpp"
#include "te/demand.hpp"
#include "util/units.hpp"

namespace rwc::update {

/// Identity of one routed (demand, path) pair across assignments.
using RouteKey = std::pair<std::size_t, std::vector<graph::EdgeId>>;

/// The dataplane state an update schedule evolves. `limit_gbps` is the load
/// each link may carry RIGHT NOW: normally `capacity * (1 + headroom)`,
/// but the drain limit while the link's BVT reconfigures (0 for the
/// laser-cycling procedure — the link is dark). Comparing two states with
/// == is the bit-identity oracle the differential tests use.
struct DataplaneState {
  std::vector<double> load_gbps;      // per physical edge
  std::vector<double> capacity_gbps;  // per physical edge (configured rate)
  std::vector<double> limit_gbps;     // per physical edge (allowed load now)
  std::map<RouteKey, double> routes;  // (demand, path) -> volume

  friend bool operator==(const DataplaneState&,
                         const DataplaneState&) = default;
};

/// One scheduled move. Route moves shift `volume` of demand
/// `demand_index` onto/off the path `edges`; reconfigs drive edge `edge`
/// from rate `from` to `to` with a modulation-change downtime of
/// `duration_seconds`.
struct Move {
  enum class Kind { kRouteRemove = 0, kReconfig = 1, kRouteAdd = 2 };
  Kind kind = Kind::kRouteRemove;

  // Route moves.
  std::size_t demand_index = 0;
  std::vector<graph::EdgeId> edges;
  util::Gbps volume{0.0};

  // Reconfigs.
  graph::EdgeId edge;
  util::Gbps from{0.0};
  util::Gbps to{0.0};
  double duration_seconds = 0.0;
};

/// One update round: moves safe to run concurrently (the scheduler's
/// worst-case interleaving analysis holds for any completion order).
/// `duration_seconds` is the round's barrier-to-barrier time: the longest
/// move in the batch.
struct UpdateRound {
  std::vector<Move> moves;
  double duration_seconds = 0.0;
};

struct SchedulerConfig {
  /// Augmentation knob: links may carry up to capacity * (1 + headroom)
  /// during the transition. 0 = strictly congestion-free.
  double headroom = 0.0;
  /// BVT modulation-change procedure: kStandard darkens the link for ~68 s
  /// (full drain required); kEfficient keeps the laser on (~35 ms, traffic
  /// up to min(from, to) * (1 + headroom) may stay).
  bvt::Procedure procedure = bvt::Procedure::kEfficient;
  bvt::LatencyModelParams latency{};
  /// Sample per-edge reconfig downtimes from the latency model
  /// (Rng::stream(seed, kDurationStream ^ edge) — order-independent) or
  /// charge the deterministic expected downtime.
  bool sampled_durations = true;
  std::uint64_t seed = 1;

  friend bool operator==(const SchedulerConfig&,
                         const SchedulerConfig&) = default;
};

/// A complete transition plan plus everything needed to execute and audit
/// it: the initial dataplane state, the per-demand endpoints (for the
/// loop-freedom checks) and the static overload floors (pre-existing
/// over-subscription from forced flaps that may persist but never grow).
struct UpdateSchedule {
  std::vector<UpdateRound> rounds;
  DataplaneState initial;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> demand_endpoints;
  std::vector<double> overload_floor_gbps;

  // Config echo (what the validator and executor need to re-derive
  // limits).
  double headroom = 0.0;
  bvt::Procedure procedure = bvt::Procedure::kEfficient;

  // Aggregates.
  double makespan_seconds = 0.0;  ///< fault-free sum of round durations
  bool feasible = true;           ///< every move was placed
  std::size_t route_moves = 0;
  std::size_t reconfigs = 0;
  /// Kept paths force-churned (removed + re-added) to drain a link below
  /// its reconfiguration limit.
  std::size_t forced_churn = 0;
};

/// The load a link may keep while its BVT reconfigures from `from` to `to`
/// Gbps: none under kStandard (the link is dark), min(from, to) *
/// (1 + headroom) under kEfficient. The planner and the executor derive
/// every drain limit from it.
inline double drain_limit_for(bvt::Procedure procedure, double from,
                              double to, double headroom) {
  if (procedure == bvt::Procedure::kStandard) return 0.0;
  return std::min(from, to) * (1.0 + headroom);
}

/// Applies `move` to `state`, or undoes it when `inverse` is set. A route
/// move adds its volume (a removal: subtracts it) on every edge of its
/// path and on its (demand, path) route, which leaves the table once at
/// or below 1e-6 Gbps. A reconfig sets its edge's capacity to `to`
/// (inverse: `from`) and the limit to that rate * (1 + headroom).
void apply_move(DataplaneState& state, const Move& move, double headroom,
                bool inverse = false);

/// Plans the transition from (`before_capacity`, `before`) to
/// (`after_capacity`, `after`) on `topology` (which supplies edge
/// endpoints; capacities travel in the spans). Deterministic: equal inputs
/// produce bit-identical schedules at every pool size.
UpdateSchedule plan_schedule(const graph::Graph& topology,
                             std::span<const util::Gbps> before_capacity,
                             std::span<const util::Gbps> after_capacity,
                             const te::FlowAssignment& before,
                             const te::FlowAssignment& after,
                             const SchedulerConfig& config);

/// One-state invariant check (the observer-side oracle of tests/prop/
/// prop_update.cpp): route volumes non-negative, paths simple and
/// contiguous src->dst for their demand, per-edge load consistent with the
/// route set, and load within max(limit, overload floor) everywhere.
bool check_dataplane(const graph::Graph& topology,
                     const UpdateSchedule& schedule,
                     const DataplaneState& state,
                     std::string* violation = nullptr);

/// Static worst-case audit of a schedule: per round, no route move shares
/// an edge with a same-round reconfig, the all-adds-no-removals worst case
/// stays within limits, reconfiguring links start the round at or below
/// their drain limit, and the terminal state matches (`after_capacity`,
/// `after`) exactly. Fills `violation` (when non-null) with the first
/// failure. The mutation checks in tests/test_update_schedule.cpp prove
/// every clause can fire.
bool validate_schedule(const graph::Graph& topology,
                       const UpdateSchedule& schedule,
                       std::span<const util::Gbps> after_capacity,
                       const te::FlowAssignment& after,
                       std::string* violation = nullptr);

}  // namespace rwc::update
