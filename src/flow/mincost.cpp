#include "flow/mincost.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>
#include <vector>

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace rwc::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Marks the arc pair of `arc` in the caller's improved-label flags.
inline void mark_improved(std::uint8_t* improved, int arc) {
  if (improved != nullptr) improved[static_cast<std::size_t>(arc) / 2] = 1;
}

/// Scratch every min-cost solve on one thread reuses, so the SSP loop
/// allocates nothing once the buffers have grown to the largest network
/// seen. Thread-local: concurrent solves (consolidation trials on pool
/// workers) never share it, and no reference to it escapes the solve
/// that fills it. Each user re-initialises what it reads on entry, so a
/// solve that threw halfway leaves nothing a later one can see
/// (docs/CONCURRENCY.md §4, "Kernel scratch").
struct Scratch {
  /// dijkstra_reduced's labels and heap.
  std::vector<double> distance;
  std::vector<int> parent_arc;
  std::vector<std::pair<double, int>> heap;
  /// Johnson potentials of the solve in progress.
  std::vector<double> potential;
  /// Partial repair: the pre-repair residuals, and the shadow of recorded
  /// residuals on arcs whose recorded and live trajectories may differ
  /// (value per arc, membership flag per arc, member arcs in insertion
  /// order).
  std::vector<double> snapshot;
  std::vector<double> shadow_value;
  std::vector<std::uint8_t> in_shadow;
  std::vector<int> shadow_arcs;
  std::vector<double> live_bottlenecks;
};

Scratch& thread_scratch() {
  thread_local Scratch instance;
  return instance;
}

/// Bellman-Ford distances from `source` over positive-residual arcs, into
/// `dist`; used to initialize potentials when negative costs are present.
void bellman_ford(const ResidualNetwork& net, int source,
                  std::uint8_t* improved, std::vector<double>& dist) {
  dist.assign(net.node_count(), kInf);
  dist[static_cast<std::size_t>(source)] = 0.0;
  const auto n = net.node_count();
  for (std::size_t round = 0; round + 1 < n || round == 0; ++round) {
    bool changed = false;
    for (std::size_t arc = 0; arc < net.arc_count(); ++arc) {
      if (net.residual(static_cast<int>(arc)) <= kFlowEps) continue;
      const int from = net.source(static_cast<int>(arc));
      const int to = net.target(static_cast<int>(arc));
      const double from_dist = dist[static_cast<std::size_t>(from)];
      if (from_dist == kInf) continue;
      const double candidate = from_dist + net.cost(static_cast<int>(arc));
      if (candidate < dist[static_cast<std::size_t>(to)] - 1e-12) {
        dist[static_cast<std::size_t>(to)] = candidate;
        changed = true;
        mark_improved(improved, static_cast<int>(arc));
      }
    }
    if (!changed) break;
  }
}

/// Dijkstra over reduced costs cost(arc) + pot[src] - pot[dst] (>= 0),
/// into scratch.distance and scratch.parent_arc. Returns whether the sink
/// was reached. The heap is the binary heap std::priority_queue keeps,
/// driven directly, and every entry is a distinct (distance, node) pair
/// (a push needs a strict improvement), so the pop order is fixed by the
/// entries alone.
bool dijkstra_reduced(const ResidualNetwork& net, int source, int sink,
                      const std::vector<double>& potential,
                      std::uint8_t* improved, Scratch& scratch) {
  std::vector<double>& distance = scratch.distance;
  std::vector<int>& parent_arc = scratch.parent_arc;
  distance.assign(net.node_count(), kInf);
  parent_arc.assign(net.node_count(), -1);
  distance[static_cast<std::size_t>(source)] = 0.0;

  using Entry = std::pair<double, int>;
  const std::greater<Entry> later;
  std::vector<Entry>& heap = scratch.heap;
  heap.clear();
  heap.emplace_back(0.0, source);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [dist, node] = heap.back();
    heap.pop_back();
    if (dist > distance[static_cast<std::size_t>(node)] + 1e-12) continue;
    for (int arc : net.arcs_from(node)) {
      if (net.residual(arc) <= kFlowEps) continue;
      const int next = net.target(arc);
      if (potential[static_cast<std::size_t>(next)] == kInf) continue;
      double reduced = net.cost(arc) +
                       potential[static_cast<std::size_t>(node)] -
                       potential[static_cast<std::size_t>(next)];
      // Clamp tiny negative values from floating-point drift.
      if (reduced < 0.0) {
        RWC_CHECK_MSG(reduced > -1e-6, "negative reduced cost in SSP");
        reduced = 0.0;
      }
      const double candidate = dist + reduced;
      if (candidate < distance[static_cast<std::size_t>(next)] - 1e-12) {
        distance[static_cast<std::size_t>(next)] = candidate;
        parent_arc[static_cast<std::size_t>(next)] = arc;
        heap.emplace_back(candidate, next);
        std::push_heap(heap.begin(), heap.end(), later);
        mark_improved(improved, arc);
      }
    }
  }
  return distance[static_cast<std::size_t>(sink)] != kInf;
}

/// Word-at-a-time mixer (murmur3-finalizer style). The fingerprint runs
/// once per warm-capable solve over every arc, so it must cost one
/// multiply chain per 64-bit word, not one per byte.
inline std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  hash = (hash ^ value) * 0x2545f4914f6cdd1dULL;
  return hash ^ (hash >> 29);
}

/// Initial residuals as a recording keeps them: forward arcs only when
/// every reverse arc starts at exactly +0.0 (any freshly built network),
/// else every arc. Residuals are most of a recording, so this halves a
/// warm cache's memory.
std::vector<double> recorded_residuals(const std::vector<double>& residuals) {
  for (std::size_t arc = 1; arc < residuals.size(); arc += 2)
    if (std::bit_cast<std::uint64_t>(residuals[arc]) != 0) return residuals;
  std::vector<double> forward(residuals.size() / 2);
  for (std::size_t pair = 0; pair < forward.size(); ++pair)
    forward[pair] = residuals[2 * pair];
  return forward;
}

/// Arc `arc`'s initial residual in `recorded` (from recorded_residuals)
/// for a network of `arc_count` arcs.
double recorded_residual(const std::vector<double>& recorded, std::size_t arc,
                         std::size_t arc_count) {
  if (recorded.size() == arc_count) return recorded[arc];
  return (arc & 1) != 0 ? 0.0 : recorded[arc / 2];
}

}  // namespace

std::uint64_t network_fingerprint(const ResidualNetwork& net, int source,
                                  int sink) {
  return network_fingerprints(net, source, sink).exact;
}

NetworkFingerprints network_fingerprints(const ResidualNetwork& net,
                                         int source, int sink) {
  std::uint64_t exact = 0xcbf29ce484222325ULL;
  std::uint64_t structural = 0x9e3779b97f4a7c15ULL;
  const auto mix_both = [&](std::uint64_t value) {
    exact = mix64(exact, value);
    structural = mix64(structural, value);
  };
  mix_both(net.node_count());
  mix_both(net.arc_count());
  mix_both(static_cast<std::uint64_t>(source));
  mix_both(static_cast<std::uint64_t>(sink));
  for (std::size_t arc = 0; arc < net.arc_count(); ++arc) {
    const int a = static_cast<int>(arc);
    mix_both(static_cast<std::uint64_t>(net.target(a)));
    // Residual magnitudes are the one input the structural fingerprint
    // skips: equal structural fingerprints + differing residuals is the
    // dirty-link perturbation the repair path handles.
    exact = mix64(exact, std::bit_cast<std::uint64_t>(net.residual(a)));
    mix_both(std::bit_cast<std::uint64_t>(net.cost(a)));
  }
  // Reserve 0 as the "no recording" sentinel on both keys.
  return NetworkFingerprints{exact == 0 ? 1 : exact,
                             structural == 0 ? 1 : structural};
}

MinCostFlowResult min_cost_max_flow(ResidualNetwork& net, int source,
                                    int sink, double flow_limit,
                                    MinCostWarmStart* warm,
                                    std::uint64_t max_augmentations,
                                    const NetworkFingerprints* known_prints,
                                    std::vector<std::uint8_t>* improved) {
  RWC_EXPECTS(source != sink);
  RWC_EXPECTS(flow_limit >= 0.0);
  RWC_EXPECTS(improved == nullptr || improved->size() == net.arc_count() / 2);
  std::uint8_t* const improved_flags =
      improved != nullptr ? improved->data() : nullptr;

  // One registry flush per solve keeps the augmenting loop atomic-free
  // (docs/OBSERVABILITY.md: flow.mincost.*, solver.warm_*).
  static auto& runs = obs::Registry::global().counter("flow.mincost.runs");
  static auto& paths = obs::Registry::global().counter("flow.mincost.paths");
  static auto& budget_stops =
      obs::Registry::global().counter("flow.mincost.budget_stops");
  static auto& warm_hits =
      obs::Registry::global().counter("solver.warm_starts");
  static auto& warm_misses =
      obs::Registry::global().counter("solver.warm_misses");
  static auto& partial_repairs =
      obs::Registry::global().counter("solver.partial_repairs");
  static auto& partial_rollbacks =
      obs::Registry::global().counter("solver.partial_rollbacks");

  // The fingerprint doubles as the warm-start key and the deterministic
  // fault key: it only depends on the solver inputs, never on scheduling,
  // so injected budgets hit the same solves at every pool size.
  const bool fault_armed = fault::Registry::global().armed();
  NetworkFingerprints prints;
  if (known_prints != nullptr)
    prints = *known_prints;
  else if (warm != nullptr || fault_armed)
    prints = network_fingerprints(net, source, sink);
  const std::uint64_t fingerprint = prints.exact;
  std::uint64_t budget = max_augmentations;
  if (fault_armed) {
    const fault::Action action = fault::at("flow.mincost", fingerprint);
    if (action.kind == fault::Kind::kBudget)
      budget = std::min(
          budget, static_cast<std::uint64_t>(std::max(action.magnitude, 0.0)));
  }

  Scratch& scratch = thread_scratch();
  MinCostFlowResult result;
  std::uint64_t augmenting_paths = 0;
  std::vector<double>& potential = scratch.potential;
  const bool recording = warm != nullptr;
  bool budget_exhausted = false;
  bool replay_complete = false;  // replay alone satisfied this solve
  bool resumed = false;          // replay done, continue live from potentials
  bool from_recording = false;   // some paths came from a recording

  // Resets *warm to a fresh about-to-record state for this network.
  const auto start_fresh_recording = [&]() {
    warm->fingerprint = fingerprint;
    warm->struct_fingerprint = prints.structural;
    warm->initial_residuals = recorded_residuals(net.residuals());
    warm->augmentations.clear();
    warm->exhausted = false;
    warm->final_potential.clear();
  };

  if (warm != nullptr) {
    if (!warm->empty() && warm->fingerprint == fingerprint) {
      warm_hits.add();
      from_recording = true;
      // Replay: push the recorded augmenting paths. The sequence is
      // limit-independent (see header), so only the truncation of the
      // final push depends on flow_limit.
      bool limit_bound = false;
      for (const MinCostWarmStart::Augmentation& aug : warm->augmentations) {
        if (!(result.flow + kFlowEps < flow_limit)) {
          limit_bound = true;
          break;
        }
        if (augmenting_paths >= budget) {
          // Checked after the flow limit, in the cold loop's order, so the
          // budget binds at the same point and with the same status as it
          // would on the cold solve — replays stay bit-identical.
          budget_exhausted = true;
          break;
        }
        const double amount =
            std::min(aug.bottleneck, flow_limit - result.flow);
        if (amount <= kFlowEps) {
          // Mirrors the cold solve's `bottleneck <= eps` break when the
          // remaining limit (not the residuals) is the binding term.
          limit_bound = true;
          break;
        }
        for (int arc : aug.arcs) net.push(arc, amount);
        result.flow += amount;
        result.cost += amount * aug.path_cost;
        ++augmenting_paths;
        if (amount < aug.bottleneck) {  // limit truncated this push
          limit_bound = true;
          break;
        }
      }
      // The cold loop re-checks the flow limit after its last push; mirror
      // that so the reported status matches the cold solve's.
      if (!budget_exhausted && !(result.flow + kFlowEps < flow_limit))
        limit_bound = true;
      if (budget_exhausted || limit_bound || warm->exhausted) {
        replay_complete = true;
        if (warm->exhausted && !limit_bound && !budget_exhausted)
          result.status = SolveStatus::kOptimal;
        else if (!budget_exhausted)
          result.status = SolveStatus::kFlowLimitReached;
      } else {
        // The recording ended on its own flow limit; resume live SSP from
        // the recorded potentials to route the remainder (and extend the
        // recording for next time).
        potential.assign(warm->final_potential.begin(),
                         warm->final_potential.end());
        resumed = true;
      }
    } else if (!warm->empty() && warm->repairable() &&
               warm->struct_fingerprint == prints.structural &&
               (warm->initial_residuals.size() == net.arc_count() ||
                warm->initial_residuals.size() * 2 == net.arc_count())) {
      // ---- Partial repair: same structure/costs/terminals, perturbed
      // residuals. Dijkstra over Johnson-reduced costs reads residual
      // SUPPORT (residual > kFlowEps per arc), costs, structure and
      // potentials — never residual magnitudes — so as long as the support
      // pattern every recorded Dijkstra could have observed is unchanged,
      // the cold solve on this network would choose the exact same
      // augmenting paths. Replay them while tracking, in a shadow, the
      // recorded-trajectory residuals of every arc whose recorded and live
      // trajectories may differ; verify support equality over the shadow
      // before consuming each path. Any mismatch rolls the network back to
      // the pre-repair snapshot and escalates to a cold solve.
      const std::vector<double>& live0 = net.residuals();
      const auto rec0 = [&](std::size_t arc) {
        return recorded_residual(warm->initial_residuals, arc,
                                 net.arc_count());
      };
      std::size_t dirty = 0;
      for (std::size_t i = 0; i < live0.size(); ++i)
        if (std::bit_cast<std::uint64_t>(live0[i]) !=
            std::bit_cast<std::uint64_t>(rec0(i)))
          ++dirty;
      if (dirty == 0 ||
          static_cast<double>(dirty) >
              kMaxRepairDirtyFraction * static_cast<double>(net.arc_count())) {
        // Too much of the network moved (or a fingerprint anomaly): the
        // verification overhead would approach a cold solve — escalate.
        warm_misses.add();
        start_fresh_recording();
      } else {
        // Rollback + new recording.
        std::vector<double>& snapshot = scratch.snapshot;
        snapshot.assign(live0.begin(), live0.end());
        // The shadow as flat per-arc buffers. Membership flags are cleared
        // through the member list here, on entry, so an earlier repair that
        // threw cannot leave stale members behind.
        std::vector<double>& shadow_value = scratch.shadow_value;
        std::vector<std::uint8_t>& in_shadow = scratch.in_shadow;
        std::vector<int>& shadow_arcs = scratch.shadow_arcs;
        for (const int arc : shadow_arcs)
          in_shadow[static_cast<std::size_t>(arc)] = 0;
        shadow_arcs.clear();
        if (in_shadow.size() < net.arc_count()) {
          in_shadow.resize(net.arc_count(), 0);
          shadow_value.resize(net.arc_count());
        }
        const auto in_shadow_at = [&](int arc) {
          return in_shadow[static_cast<std::size_t>(arc)] != 0;
        };
        // Adds `arc` holding `value` unless it is a member already; either
        // way returns its shadow value.
        const auto shadow_at = [&](int arc, double value) -> double& {
          const auto index = static_cast<std::size_t>(arc);
          if (in_shadow[index] == 0) {
            in_shadow[index] = 1;
            shadow_value[index] = value;
            shadow_arcs.push_back(arc);
          }
          return shadow_value[index];
        };
        for (std::size_t i = 0; i < live0.size(); ++i)
          if (std::bit_cast<std::uint64_t>(live0[i]) !=
              std::bit_cast<std::uint64_t>(rec0(i)))
            shadow_at(static_cast<int>(i), rec0(i));
        const auto support_equal = [&]() {
          for (const int arc : shadow_arcs)
            if ((shadow_value[static_cast<std::size_t>(arc)] > kFlowEps) !=
                (net.residual(arc) > kFlowEps))
              return false;
          return true;
        };

        bool diverged = false;
        bool limit_bound = false;
        std::size_t replayed = 0;
        std::vector<double>& live_bottlenecks = scratch.live_bottlenecks;
        live_bottlenecks.clear();
        for (const MinCostWarmStart::Augmentation& aug :
             warm->augmentations) {
          // Same check order as the cold loop (flow limit, then budget) so
          // both bind at the same point with the same status.
          if (!(result.flow + kFlowEps < flow_limit)) {
            limit_bound = true;
            break;
          }
          if (augmenting_paths >= budget) {
            budget_exhausted = true;
            break;
          }
          if (!support_equal()) {
            diverged = true;
            break;
          }
          // Live residual bottleneck along the recorded path (the recorded
          // one may differ — residual magnitudes moved).
          double residual_bottleneck = kInf;
          for (int arc : aug.arcs)
            residual_bottleneck =
                std::min(residual_bottleneck, net.residual(arc));
          const double bottleneck =
              std::min(flow_limit - result.flow, residual_bottleneck);
          // Support equality guarantees residual_bottleneck > kFlowEps
          // (every recorded path arc has positive support), so a tiny
          // bottleneck means the remaining limit binds — the cold break.
          if (bottleneck <= kFlowEps) {
            limit_bound = true;
            break;
          }
          const bool divergent_amount =
              std::bit_cast<std::uint64_t>(residual_bottleneck) !=
              std::bit_cast<std::uint64_t>(aug.bottleneck);
          for (int arc : aug.arcs) {
            if (divergent_amount || in_shadow_at(arc) ||
                in_shadow_at(arc ^ 1)) {
              // This arc pair's recorded and live trajectories (now)
              // differ: track the recorded side. A missing entry means the
              // trajectories were equal until this push, so the live
              // pre-push residual doubles as the recorded one.
              double& fwd = shadow_at(arc, net.residual(arc));
              double& rev = shadow_at(arc ^ 1, net.residual(arc ^ 1));
              fwd -= aug.bottleneck;
              if (fwd < 0.0) fwd = 0.0;  // mirror ResidualNetwork::push
              rev += aug.bottleneck;
            }
            net.push(arc, bottleneck);
          }
          result.flow += bottleneck;
          result.cost += bottleneck * aug.path_cost;
          ++augmenting_paths;
          ++replayed;
          live_bottlenecks.push_back(residual_bottleneck);
          if (bottleneck < residual_bottleneck) {  // limit truncated
            limit_bound = true;
            break;
          }
        }
        if (!diverged && !budget_exhausted &&
            !(result.flow + kFlowEps < flow_limit))
          limit_bound = true;
        const bool consumed_all = replayed == warm->augmentations.size();
        bool exhausted_verified = false;
        if (!diverged && consumed_all && warm->exhausted && !limit_bound &&
            !budget_exhausted) {
          // The recorded solve ended because the sink became unreachable —
          // a support-determined outcome. One final check proves the same
          // (failing) Dijkstra outcome here, i.e. true optimality.
          if (support_equal())
            exhausted_verified = true;
          else
            diverged = true;
        }

        if (diverged) {
          partial_rollbacks.add();
          warm_misses.add();
          net.restore_residuals(snapshot);
          result = MinCostFlowResult{};
          augmenting_paths = 0;
          budget_exhausted = false;
          start_fresh_recording();
        } else {
          partial_repairs.add();
          from_recording = true;
          if (consumed_all && !limit_bound && !budget_exhausted) {
            // Every recorded path was verified and replayed: rewrite the
            // recording against this network (same paths and costs, live
            // bottlenecks, this network's initial residuals). The recorded
            // final_potential carries over — potentials after the last
            // successful Dijkstra are identical by the support argument.
            warm->fingerprint = fingerprint;
            warm->initial_residuals = recorded_residuals(snapshot);
            for (std::size_t t = 0; t < live_bottlenecks.size(); ++t)
              warm->augmentations[t].bottleneck = live_bottlenecks[t];
            warm->exhausted = exhausted_verified;
            if (!exhausted_verified) {
              // More flow requested than the recording covers: resume live
              // SSP from the recorded potentials, extending the rewritten
              // recording exactly as an exact-fingerprint resume would.
              potential.assign(warm->final_potential.begin(),
                               warm->final_potential.end());
              resumed = true;
            } else {
              replay_complete = true;
              result.status = SolveStatus::kOptimal;
            }
          } else {
            // The flow limit or budget bound the replay — possibly by
            // truncating the final recorded augmentation, in which case
            // consumed_all is true but the live pushes no longer reflect
            // the limit-free trajectory. The result is already what the
            // cold solve would return; leave the old network's recording
            // untouched (its fingerprint no longer matches, so callers
            // will not store it).
            replay_complete = true;
            if (!budget_exhausted)
              result.status = SolveStatus::kFlowLimitReached;
          }
        }
      }
    } else {
      warm_misses.add();
      start_fresh_recording();
    }
  }

  if (!replay_complete) {
    if (!resumed) {
      // Potentials: zero when all costs are non-negative, else Bellman-Ford.
      bool has_negative = false;
      for (std::size_t arc = 0; arc < net.arc_count(); arc += 2)
        if (net.cost(static_cast<int>(arc)) < 0.0 &&
            net.residual(static_cast<int>(arc)) > kFlowEps)
          has_negative = true;
      if (has_negative) {
        bellman_ford(net, source, improved_flags, potential);
        // Unreachable nodes keep an infinite potential; dijkstra skips them.
      } else {
        potential.assign(net.node_count(), 0.0);
      }
    }

    bool exhausted = false;
    while (result.flow + kFlowEps < flow_limit) {
      if (augmenting_paths >= budget) {
        budget_exhausted = true;
        break;
      }
      if (!dijkstra_reduced(net, source, sink, potential, improved_flags,
                            scratch)) {
        exhausted = true;
        break;
      }
      const std::vector<double>& distance = scratch.distance;
      const std::vector<int>& parent_arc = scratch.parent_arc;

      // Update potentials with the new distances.
      for (std::size_t node = 0; node < net.node_count(); ++node) {
        if (distance[node] == kInf || potential[node] == kInf) continue;
        potential[node] += distance[node];
      }

      // Bottleneck along the shortest path. The residual-only minimum is
      // tracked separately: it is what a warm-start recording must store
      // (the flow limit of a future replay may differ).
      double residual_bottleneck = kInf;
      for (int node = sink; node != source;
           node = net.source(parent_arc[static_cast<std::size_t>(node)])) {
        const int arc = parent_arc[static_cast<std::size_t>(node)];
        residual_bottleneck = std::min(residual_bottleneck, net.residual(arc));
      }
      const double bottleneck =
          std::min(flow_limit - result.flow, residual_bottleneck);
      if (bottleneck <= kFlowEps) {
        exhausted = residual_bottleneck <= kFlowEps;
        break;
      }

      MinCostWarmStart::Augmentation aug;
      double path_cost = 0.0;
      for (int node = sink; node != source;
           node = net.source(parent_arc[static_cast<std::size_t>(node)])) {
        const int arc = parent_arc[static_cast<std::size_t>(node)];
        path_cost += net.cost(arc);
        net.push(arc, bottleneck);
        if (recording) aug.arcs.push_back(arc);
      }
      result.flow += bottleneck;
      result.cost += bottleneck * path_cost;
      ++augmenting_paths;
      if (recording) {
        aug.bottleneck = residual_bottleneck;
        aug.path_cost = path_cost;
        warm->augmentations.push_back(std::move(aug));
      }
    }
    result.status = exhausted ? SolveStatus::kOptimal
                              : SolveStatus::kFlowLimitReached;
    if (recording) {
      // A budget-truncated recording is stored non-exhausted: a later
      // replay with a larger budget resumes live SSP from the potentials.
      warm->exhausted = exhausted;
      warm->final_potential = potential;
    }
  }

  if (budget_exhausted) {
    result.status = SolveStatus::kBudgetExhausted;
    budget_stops.add();
  }
  // Recorded paths stand in for searches this solve never ran, so nothing
  // proves any pair was a no-op.
  if (improved != nullptr && from_recording)
    std::fill(improved->begin(), improved->end(), std::uint8_t{1});
  result.augmenting_paths = augmenting_paths;
  runs.add();
  paths.add(augmenting_paths);
  return result;
}

WarmStartCache::WarmStartCache(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::shared_ptr<const MinCostWarmStart> WarmStartCache::find(
    std::uint64_t fingerprint) const {
  // Forced miss under fault injection: the entry is treated as invalidated
  // and the solver runs cold (then re-records). Safe mid-round because
  // replay only ever changes timing, never results.
  if (fault::at("cache.warm.find", fingerprint)) return nullptr;
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(fingerprint);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const MinCostWarmStart> WarmStartCache::find_structural(
    std::uint64_t struct_fingerprint) const {
  std::uint64_t exact = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = structural_.find(struct_fingerprint);
    if (it == structural_.end()) return nullptr;
    exact = it->second;
  }
  // Same forced-miss fault keying as the exact lookup, so an injected
  // invalidation cannot be resurrected through the structural index.
  if (fault::at("cache.warm.find", exact)) return nullptr;
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(exact);
  return it == entries_.end() ? nullptr : it->second;
}

void WarmStartCache::insert_locked(
    std::shared_ptr<const MinCostWarmStart> recording) {
  const std::uint64_t key = recording->fingerprint;
  const std::uint64_t struct_key = recording->repairable()
                                       ? recording->struct_fingerprint
                                       : 0;
  const auto [it, inserted] = entries_.insert_or_assign(key,
                                                        std::move(recording));
  (void)it;
  if (struct_key != 0) structural_[struct_key] = key;
  if (inserted) insertion_order_.push_back(key);
  while (entries_.size() > max_entries_ && !insertion_order_.empty()) {
    const std::uint64_t victim = insertion_order_.front();
    insertion_order_.pop_front();
    const auto entry = entries_.find(victim);
    if (entry == entries_.end()) continue;
    const std::uint64_t victim_struct = entry->second->struct_fingerprint;
    entries_.erase(entry);
    // The structural index must never point at an evicted recording.
    const auto sit = structural_.find(victim_struct);
    if (sit != structural_.end() && sit->second == victim)
      structural_.erase(sit);
  }
}

void WarmStartCache::store(
    std::shared_ptr<const MinCostWarmStart> recording) {
  RWC_EXPECTS(recording != nullptr && !recording->empty());
  std::lock_guard lock(mutex_);
  insert_locked(std::move(recording));
  // hits/misses are counted at the solver (solver.warm_*); the cache only
  // tracks occupancy.
}

std::size_t WarmStartCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::vector<std::shared_ptr<const MinCostWarmStart>>
WarmStartCache::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<std::shared_ptr<const MinCostWarmStart>> out;
  out.reserve(insertion_order_.size());
  for (const std::uint64_t key : insertion_order_) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) out.push_back(it->second);
  }
  return out;
}

void WarmStartCache::restore(
    std::vector<std::shared_ptr<const MinCostWarmStart>> recordings) {
  std::lock_guard lock(mutex_);
  entries_.clear();
  insertion_order_.clear();
  structural_.clear();
  for (auto& recording : recordings) {
    if (recording == nullptr || recording->empty()) continue;
    insert_locked(std::move(recording));
  }
}

}  // namespace rwc::flow
