#include "update/schedule.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace rwc::update {

using util::Gbps;

namespace {

constexpr double kEps = 1e-6;
/// Stream id base for per-edge reconfig-duration sampling: XORed with the
/// edge id so durations are independent of scheduling order and pool size.
constexpr std::uint64_t kDurationStream = 0x75706474'00000000ULL;  // "updt"
/// Dataplane latency of one batched route-update round.
constexpr double kRouteStepSeconds = 0.005;
/// Planner bail-out: the greedy wave construction needs at most a handful
/// of rounds (docs/UPDATE.md §3), so reaching this many marks the schedule
/// infeasible instead of looping.
constexpr std::size_t kMaxRounds = 64;

std::map<RouteKey, double> path_volumes(const te::FlowAssignment& assignment) {
  std::map<RouteKey, double> volumes;
  for (std::size_t d = 0; d < assignment.routings.size(); ++d)
    for (const auto& [path, volume] : assignment.routings[d].paths)
      if (volume.value > kEps) volumes[{d, path.edges}] += volume.value;
  return volumes;
}

/// Adds `volume` Gbps (negative: removes it) on every edge of `key`'s
/// path and on its route, dropping the route once at or below kEps.
void shift_route(DataplaneState& state, RouteKey key, double volume) {
  for (graph::EdgeId edge : key.second)
    state.load_gbps[static_cast<std::size_t>(edge.value)] += volume;
  const auto it = state.routes.try_emplace(std::move(key), 0.0).first;
  it->second += volume;
  if (it->second <= kEps) state.routes.erase(it);
}

/// Runs edge `e` at `gbps` with that rate's normal limit.
void set_rate(DataplaneState& state, std::size_t e, double gbps,
              double headroom) {
  state.capacity_gbps[e] = gbps;
  state.limit_gbps[e] = gbps * (1.0 + headroom);
}

/// One pending BVT reconfiguration.
struct PendingReconfig {
  graph::EdgeId edge;
  double from = 0.0;
  double to = 0.0;
  double duration = 0.0;
  double drain_limit = 0.0;
};

struct UpdateMetrics {
  obs::Counter& schedules;
  obs::Counter& route_moves;
  obs::Counter& reconfigs;
  obs::Counter& forced_churn;
  obs::Counter& infeasible;
  obs::Histogram& rounds;
  obs::Histogram& makespan;

  static UpdateMetrics& instance() {
    static UpdateMetrics metrics{
        obs::Registry::global().counter("update.schedules"),
        obs::Registry::global().counter("update.route_moves"),
        obs::Registry::global().counter("update.reconfigs"),
        obs::Registry::global().counter("update.forced_churn"),
        obs::Registry::global().counter("update.infeasible"),
        obs::Registry::global().histogram("update.schedule.rounds"),
        obs::Registry::global().histogram("update.schedule.makespan.seconds"),
    };
    return metrics;
  }
};

}  // namespace

void apply_move(DataplaneState& state, const Move& move, double headroom,
                bool inverse) {
  if (move.kind == Move::Kind::kReconfig) {
    set_rate(state, static_cast<std::size_t>(move.edge.value),
             inverse ? move.from.value : move.to.value, headroom);
    return;
  }
  const bool adds = (move.kind == Move::Kind::kRouteAdd) != inverse;
  shift_route(state, {move.demand_index, move.edges},
              adds ? move.volume.value : -move.volume.value);
}

UpdateSchedule plan_schedule(const graph::Graph& topology,
                             std::span<const util::Gbps> before_capacity,
                             std::span<const util::Gbps> after_capacity,
                             const te::FlowAssignment& before,
                             const te::FlowAssignment& after,
                             const SchedulerConfig& config) {
  const std::size_t edge_count = topology.edge_count();
  RWC_CHECK_MSG(before_capacity.size() == edge_count,
                "plan_schedule: before_capacity size mismatch");
  RWC_CHECK_MSG(after_capacity.size() == edge_count,
                "plan_schedule: after_capacity size mismatch");
  RWC_CHECK_MSG(config.headroom >= 0.0, "plan_schedule: negative headroom");

  UpdateSchedule schedule;
  schedule.headroom = config.headroom;
  schedule.procedure = config.procedure;

  // Demand endpoints (for the loop-freedom oracle). Same matrix on both
  // sides in the controller; tolerate a size mismatch by taking the union.
  const std::size_t demand_count =
      std::max(before.routings.size(), after.routings.size());
  schedule.demand_endpoints.reserve(demand_count);
  for (std::size_t d = 0; d < demand_count; ++d) {
    const te::Demand& demand = d < after.routings.size()
                                   ? after.routings[d].demand
                                   : before.routings[d].demand;
    schedule.demand_endpoints.emplace_back(demand.src, demand.dst);
  }

  // Initial dataplane state, rebuilt from the route set (not the cached
  // edge_load_gbps) so state and routes are consistent by construction.
  const std::map<RouteKey, double> old_routes = path_volumes(before);
  const std::map<RouteKey, double> new_routes = path_volumes(after);
  DataplaneState state;
  state.load_gbps.assign(edge_count, 0.0);
  state.capacity_gbps.resize(edge_count);
  state.limit_gbps.resize(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e)
    set_rate(state, e, before_capacity[e].value, config.headroom);
  state.routes = old_routes;
  for (const auto& [key, volume] : old_routes)
    for (graph::EdgeId edge : key.second)
      state.load_gbps[static_cast<std::size_t>(edge.value)] += volume;
  schedule.initial = state;

  // Static overload floor: load already above the limit when the schedule
  // starts (SNR-forced flaps land under live traffic) may persist until
  // drained, but must never grow.
  schedule.overload_floor_gbps.assign(edge_count, 0.0);
  for (std::size_t e = 0; e < edge_count; ++e)
    if (state.load_gbps[e] > state.limit_gbps[e] + kEps)
      schedule.overload_floor_gbps[e] = state.load_gbps[e];

  // Route diff: per-key shrink -> removal delta, growth -> addition delta.
  std::map<RouteKey, double> removals;
  std::map<RouteKey, double> additions;
  for (const auto& [key, old_volume] : old_routes) {
    const auto it = new_routes.find(key);
    const double new_volume = it == new_routes.end() ? 0.0 : it->second;
    if (new_volume < old_volume - kEps)
      removals[key] = old_volume - new_volume;
  }
  for (const auto& [key, new_volume] : new_routes) {
    const auto it = old_routes.find(key);
    const double old_volume = it == old_routes.end() ? 0.0 : it->second;
    if (new_volume > old_volume + kEps)
      additions[key] = new_volume - old_volume;
  }

  // BVT reconfigurations for every rate change. Durations are sampled per
  // edge on an independent RNG stream keyed by the edge id, so they do not
  // depend on how many other edges reconfigure or in what order.
  bvt::LatencyModel latency(config.latency);
  std::vector<PendingReconfig> reconfigs;
  for (std::size_t e = 0; e < edge_count; ++e) {
    const double from = before_capacity[e].value;
    const double to = after_capacity[e].value;
    if (from == to) continue;
    PendingReconfig reconfig;
    reconfig.edge = graph::EdgeId{static_cast<std::int32_t>(e)};
    reconfig.from = from;
    reconfig.to = to;
    if (config.sampled_durations) {
      util::Rng rng = util::Rng::stream(
          config.seed, kDurationStream ^ static_cast<std::uint64_t>(e));
      reconfig.duration = latency.transition_downtime(
          config.procedure, Gbps{from}, Gbps{to}, &rng);
    } else {
      reconfig.duration = latency.transition_downtime(config.procedure,
                                                      Gbps{from}, Gbps{to});
    }
    reconfig.drain_limit =
        drain_limit_for(config.procedure, from, to, config.headroom);
    reconfigs.push_back(reconfig);
  }

  // Forced-churn pre-pass: kept traffic crossing a reconfiguring edge
  // above its drain limit must step aside — remove the whole old volume,
  // re-add the whole new volume after the reconfig. Iterating edges in id
  // order keeps the pass deterministic; churn on one edge also lightens
  // every other edge the churned path crosses.
  std::set<RouteKey> churned;
  for (const PendingReconfig& reconfig : reconfigs) {
    double kept_load = 0.0;
    std::vector<const RouteKey*> crossing;
    for (const auto& [key, old_volume] : old_routes) {
      if (churned.contains(key)) continue;
      if (std::find(key.second.begin(), key.second.end(), reconfig.edge) ==
          key.second.end())
        continue;
      const auto it = new_routes.find(key);
      const double kept =
          std::min(old_volume, it == new_routes.end() ? 0.0 : it->second);
      if (kept > kEps) {
        kept_load += kept;
        crossing.push_back(&key);
      }
    }
    if (kept_load <= reconfig.drain_limit + kEps) continue;
    for (const RouteKey* key : crossing) {
      churned.insert(*key);
      removals[*key] = old_routes.at(*key);
      const auto it = new_routes.find(*key);
      if (it != new_routes.end() && it->second > kEps)
        additions[*key] = it->second;
    }
  }
  schedule.forced_churn = churned.size();

  // Greedy wave construction. Each round: every pending removal; then
  // every reconfig whose edge is drained at round start and untouched by
  // this round's route moves; then additions, admitted in key order under
  // the worst-case-interleaving load bound (round-start load plus all
  // batched adds, no same-round removals credited).
  std::set<graph::EdgeId> pending_reconfig_edges;
  for (const PendingReconfig& reconfig : reconfigs)
    pending_reconfig_edges.insert(reconfig.edge);

  bool pending_removals = !removals.empty();
  while (pending_removals || !reconfigs.empty() || !additions.empty()) {
    if (schedule.rounds.size() >= kMaxRounds) {
      schedule.feasible = false;
      break;
    }
    UpdateRound round;
    const std::vector<double> round_start_load = state.load_gbps;
    std::set<graph::EdgeId> route_touched;
    std::set<graph::EdgeId> reconfiguring_now;

    // 1. Removals: always safe (load only drops), so batch them all.
    for (const auto& [key, volume] : removals) {
      Move move;
      move.kind = Move::Kind::kRouteRemove;
      move.demand_index = key.first;
      move.edges = key.second;
      move.volume = Gbps{volume};
      apply_move(state, move, config.headroom);
      route_touched.insert(key.second.begin(), key.second.end());
      round.moves.push_back(std::move(move));
    }
    removals.clear();
    pending_removals = false;

    // 2. Reconfigs: eligible when the edge started the round at or below
    // its drain limit and no route move this round races it.
    std::vector<PendingReconfig> deferred;
    for (const PendingReconfig& reconfig : reconfigs) {
      const auto e = static_cast<std::size_t>(reconfig.edge.value);
      if (round_start_load[e] > reconfig.drain_limit + kEps ||
          route_touched.contains(reconfig.edge)) {
        deferred.push_back(reconfig);
        continue;
      }
      Move move;
      move.kind = Move::Kind::kReconfig;
      move.edge = reconfig.edge;
      move.from = Gbps{reconfig.from};
      move.to = Gbps{reconfig.to};
      move.duration_seconds = reconfig.duration;
      apply_move(state, move, config.headroom);
      reconfiguring_now.insert(reconfig.edge);
      pending_reconfig_edges.erase(reconfig.edge);
      round.moves.push_back(std::move(move));
    }
    reconfigs = std::move(deferred);

    // 3. Additions: never onto an edge still awaiting (or mid-) reconfig;
    // the worst case — all batched adds landing before any same-round
    // removal completes — must respect the limit on every path edge.
    std::vector<double> round_added(edge_count, 0.0);
    std::map<RouteKey, double> deferred_adds;
    for (const auto& [key, volume] : additions) {
      bool eligible = true;
      for (graph::EdgeId edge : key.second) {
        const auto e = static_cast<std::size_t>(edge.value);
        if (pending_reconfig_edges.contains(edge) ||
            reconfiguring_now.contains(edge) ||
            round_start_load[e] + round_added[e] + volume >
                state.limit_gbps[e] + kEps) {
          eligible = false;
          break;
        }
      }
      if (!eligible) {
        deferred_adds.emplace(key, volume);
        continue;
      }
      Move move;
      move.kind = Move::Kind::kRouteAdd;
      move.demand_index = key.first;
      move.edges = key.second;
      move.volume = Gbps{volume};
      apply_move(state, move, config.headroom);
      for (graph::EdgeId edge : key.second) {
        round_added[static_cast<std::size_t>(edge.value)] += volume;
        route_touched.insert(edge);
      }
      round.moves.push_back(std::move(move));
    }
    additions = std::move(deferred_adds);

    if (round.moves.empty()) {
      // Nothing could be placed but work remains: the wave construction is
      // stuck (possible only when the target assignment itself violates
      // the limits). Mark infeasible instead of spinning.
      schedule.feasible = false;
      break;
    }
    for (const Move& move : round.moves) {
      round.duration_seconds =
          std::max(round.duration_seconds, move.kind == Move::Kind::kReconfig
                                               ? move.duration_seconds
                                               : kRouteStepSeconds);
      if (move.kind == Move::Kind::kReconfig)
        ++schedule.reconfigs;
      else
        ++schedule.route_moves;
    }
    schedule.makespan_seconds += round.duration_seconds;
    schedule.rounds.push_back(std::move(round));
  }

  UpdateMetrics& metrics = UpdateMetrics::instance();
  metrics.schedules.add();
  metrics.route_moves.add(schedule.route_moves);
  metrics.reconfigs.add(schedule.reconfigs);
  metrics.forced_churn.add(schedule.forced_churn);
  if (!schedule.feasible) metrics.infeasible.add();
  metrics.rounds.observe(static_cast<double>(schedule.rounds.size()));
  metrics.makespan.observe(schedule.makespan_seconds);
  return schedule;
}

bool check_dataplane(const graph::Graph& topology,
                     const UpdateSchedule& schedule,
                     const DataplaneState& state, std::string* violation) {
  const std::size_t edge_count = topology.edge_count();
  const auto fail = [&](const std::string& what) {
    if (violation != nullptr) *violation = what;
    return false;
  };
  if (state.load_gbps.size() != edge_count ||
      state.capacity_gbps.size() != edge_count ||
      state.limit_gbps.size() != edge_count)
    return fail("dataplane state vectors do not match the topology");

  std::vector<double> recomputed(edge_count, 0.0);
  for (const auto& [key, volume] : state.routes) {
    const auto& [demand_index, edges] = key;
    if (volume < -kEps) {
      std::ostringstream os;
      os << "negative volume " << volume << " on demand " << demand_index;
      return fail(os.str());
    }
    if (demand_index >= schedule.demand_endpoints.size())
      return fail("route references an unknown demand");
    if (edges.empty()) return fail("empty route path");
    const auto [src, dst] = schedule.demand_endpoints[demand_index];
    // Loop-freedom: the path must be a simple, contiguous src->dst walk —
    // no black-hole (it terminates at dst) and no forwarding loop (no node
    // repeats).
    std::set<graph::NodeId> visited;
    graph::NodeId at = src;
    visited.insert(at);
    for (graph::EdgeId edge : edges) {
      const graph::Edge& e = topology.edge(edge);
      if (e.src != at) {
        std::ostringstream os;
        os << "discontiguous path for demand " << demand_index;
        return fail(os.str());
      }
      at = e.dst;
      if (!visited.insert(at).second) {
        std::ostringstream os;
        os << "forwarding loop through " << topology.node_name(at)
           << " for demand " << demand_index;
        return fail(os.str());
      }
      recomputed[static_cast<std::size_t>(edge.value)] += volume;
    }
    if (at != dst) {
      std::ostringstream os;
      os << "path for demand " << demand_index << " ends at "
         << topology.node_name(at) << ", not its destination";
      return fail(os.str());
    }
  }

  for (std::size_t e = 0; e < edge_count; ++e) {
    if (std::abs(recomputed[e] - state.load_gbps[e]) > 1e-4) {
      std::ostringstream os;
      os << "edge " << e << " load " << state.load_gbps[e]
         << " inconsistent with its routes (" << recomputed[e] << ")";
      return fail(os.str());
    }
    // The static overload floor only excuses load while the edge runs at
    // its normal limit; a drained/dark edge (limit below capacity*(1+h))
    // gets no credit — traffic there would be a transient black-hole.
    const double normal_limit =
        state.capacity_gbps[e] * (1.0 + schedule.headroom);
    double allowed = state.limit_gbps[e];
    if (state.limit_gbps[e] >= normal_limit - kEps &&
        e < schedule.overload_floor_gbps.size())
      allowed = std::max(allowed, schedule.overload_floor_gbps[e]);
    if (state.load_gbps[e] > allowed + 1e-4) {
      std::ostringstream os;
      os << "edge " << e << " over-subscribed: " << state.load_gbps[e]
         << " Gbps > allowed " << allowed << " Gbps (limit "
         << state.limit_gbps[e] << ")";
      return fail(os.str());
    }
  }
  return true;
}

bool validate_schedule(const graph::Graph& topology,
                       const UpdateSchedule& schedule,
                       std::span<const util::Gbps> after_capacity,
                       const te::FlowAssignment& after,
                       std::string* violation) {
  const std::size_t edge_count = topology.edge_count();
  const auto fail = [&](const std::string& what) {
    if (violation != nullptr) *violation = what;
    return false;
  };
  if (!schedule.feasible) return fail("schedule is marked infeasible");
  if (after_capacity.size() != edge_count)
    return fail("after_capacity size mismatch");

  DataplaneState state = schedule.initial;
  if (!check_dataplane(topology, schedule, state, violation)) return false;

  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const UpdateRound& round = schedule.rounds[r];
    const std::vector<double> round_start = state.load_gbps;
    std::set<graph::EdgeId> route_edges;
    std::set<graph::EdgeId> reconfig_edges;
    std::vector<double> added(edge_count, 0.0);

    for (const Move& move : round.moves) {
      if (move.kind == Move::Kind::kReconfig) {
        if (!reconfig_edges.insert(move.edge).second) {
          std::ostringstream os;
          os << "round " << r << " reconfigures edge " << move.edge.value
             << " twice";
          return fail(os.str());
        }
        const auto e = static_cast<std::size_t>(move.edge.value);
        const double drain = drain_limit_for(schedule.procedure,
                                             move.from.value, move.to.value,
                                             schedule.headroom);
        if (round_start[e] > drain + kEps) {
          std::ostringstream os;
          os << "round " << r << " reconfigures edge " << move.edge.value
             << " carrying " << round_start[e] << " Gbps above its drain "
             << "limit " << drain << " Gbps";
          return fail(os.str());
        }
      } else {
        for (graph::EdgeId edge : move.edges) {
          route_edges.insert(edge);
          if (move.kind == Move::Kind::kRouteAdd)
            added[static_cast<std::size_t>(edge.value)] += move.volume.value;
        }
      }
    }
    for (graph::EdgeId edge : route_edges)
      if (reconfig_edges.contains(edge)) {
        std::ostringstream os;
        os << "round " << r << " races a route move against the reconfig "
           << "of edge " << edge.value;
        return fail(os.str());
      }

    // Worst-case interleaving: every batched add lands before any batched
    // removal completes. Adds must fit the true limit; an edge without
    // same-round adds may ride its pre-existing overload floor down.
    for (std::size_t e = 0; e < edge_count; ++e) {
      const double worst = round_start[e] + added[e];
      double allowed = state.limit_gbps[e];
      if (added[e] <= kEps && e < schedule.overload_floor_gbps.size())
        allowed = std::max(allowed, schedule.overload_floor_gbps[e]);
      if (worst > allowed + 1e-4) {
        std::ostringstream os;
        os << "round " << r << " worst-case load on edge " << e << " is "
           << worst << " Gbps > allowed " << allowed << " Gbps";
        return fail(os.str());
      }
    }

    // Apply the round and re-run the single-state oracle.
    for (const Move& move : round.moves)
      apply_move(state, move, schedule.headroom);
    if (!check_dataplane(topology, schedule, state, violation)) return false;
  }

  // Terminal state must be exactly the target (capacities bitwise, routes
  // and loads within accumulation tolerance).
  for (std::size_t e = 0; e < edge_count; ++e)
    if (state.capacity_gbps[e] != after_capacity[e].value) {
      std::ostringstream os;
      os << "terminal capacity of edge " << e << " is "
         << state.capacity_gbps[e] << " Gbps, target "
         << after_capacity[e].value << " Gbps";
      return fail(os.str());
    }
  const std::map<RouteKey, double> target = path_volumes(after);
  for (const auto& [key, volume] : target) {
    const auto it = state.routes.find(key);
    const double got = it == state.routes.end() ? 0.0 : it->second;
    if (std::abs(got - volume) > 1e-4) {
      std::ostringstream os;
      os << "terminal volume for demand " << key.first << " is " << got
         << " Gbps, target " << volume << " Gbps";
      return fail(os.str());
    }
  }
  for (const auto& [key, volume] : state.routes)
    if (!target.contains(key) && volume > 1e-4) {
      std::ostringstream os;
      os << "terminal state carries " << volume
         << " Gbps on a route absent from the target (demand " << key.first
         << ")";
      return fail(os.str());
    }
  return true;
}

}  // namespace rwc::update
