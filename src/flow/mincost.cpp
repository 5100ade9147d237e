#include "flow/mincost.hpp"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::flow {

using util::mix64;
using util::mix_double;

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

}  // namespace

std::uint64_t network_fingerprint(const ResidualNetwork& net, int source,
                                  int sink) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = mix64(hash, net.node_count());
  hash = mix64(hash, net.arc_count());
  hash = mix64(hash, static_cast<std::uint64_t>(source));
  hash = mix64(hash, static_cast<std::uint64_t>(sink));
  for (std::size_t arc = 0; arc < net.arc_count(); ++arc) {
    const int a = static_cast<int>(arc);
    hash = mix64(hash, static_cast<std::uint64_t>(net.target(a)));
    hash = mix_double(hash, net.residual(a));
    hash = mix_double(hash, net.cost(a));
  }
  return hash;
}

MinCostFlowResult min_cost_max_flow(ResidualNetwork& net, int source,
                                    int sink, double flow_limit,
                                    std::uint64_t max_augmentations,
                                    std::vector<std::uint8_t>* improved) {
  RWC_EXPECTS(source != sink);
  RWC_EXPECTS(flow_limit >= 0.0);
  RWC_EXPECTS(improved == nullptr || improved->size() == net.arc_count() / 2);
  std::uint8_t* const improved_flags =
      improved != nullptr ? improved->data() : nullptr;

  // One registry flush per solve keeps the augmenting loop atomic-free
  // (docs/OBSERVABILITY.md: flow.mincost.*).
  static auto& runs = obs::Registry::global().counter("flow.mincost.runs");
  static auto& paths = obs::Registry::global().counter("flow.mincost.paths");
  static auto& budget_stops =
      obs::Registry::global().counter("flow.mincost.budget_stops");

  std::uint64_t budget = max_augmentations;
  if (fault::Registry::global().armed()) {
    const fault::Action action =
        fault::at("flow.mincost", network_fingerprint(net, source, sink));
    if (action.kind == fault::Kind::kBudget)
      budget = std::min(
          budget, static_cast<std::uint64_t>(std::max(action.magnitude, 0.0)));
  }

  Scratch& scratch = thread_scratch();
  MinCostFlowResult result;
  std::uint64_t augmenting_paths = 0;
  std::vector<double>& potential = scratch.potential;
  bool budget_exhausted = false;

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

    // Bottleneck along the shortest path: the residual minimum, capped by
    // the flow still to route.
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

    double path_cost = 0.0;
    for (int node = sink; node != source;
         node = net.source(parent_arc[static_cast<std::size_t>(node)])) {
      const int arc = parent_arc[static_cast<std::size_t>(node)];
      path_cost += net.cost(arc);
      net.push(arc, bottleneck);
    }
    result.flow += bottleneck;
    result.cost += bottleneck * path_cost;
    ++augmenting_paths;
  }
  result.status = exhausted ? SolveStatus::kOptimal
                            : SolveStatus::kFlowLimitReached;

  if (budget_exhausted) {
    result.status = SolveStatus::kBudgetExhausted;
    budget_stops.add();
  }
  result.augmenting_paths = augmenting_paths;
  runs.add();
  paths.add(augmenting_paths);
  return result;
}

}  // namespace rwc::flow
