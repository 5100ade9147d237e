#include "flow/decompose.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace rwc::flow {

namespace {

/// Scratch every decomposition on one thread reuses. Thread-local:
/// concurrent decompositions (consolidation trials on pool workers) never
/// share it, and decompose_flow re-initialises what it reads on entry.
struct Scratch {
  /// Remaining flow per forward arc.
  std::vector<double> remaining;
  /// Node -> index in `path`, or -1 off the path.
  std::vector<int> position;
  /// Node -> index into arcs_from(node) where the next scan starts.
  std::vector<std::size_t> cursor;
  /// Arc sequence of the path being walked.
  std::vector<int> path;
};

Scratch& thread_scratch() {
  thread_local Scratch instance;
  return instance;
}

}  // namespace

Decomposition decompose_flow(const ResidualNetwork& net, int source,
                             int sink) {
  RWC_EXPECTS(source != sink);
  Scratch& scratch = thread_scratch();
  std::vector<double>& remaining = scratch.remaining;
  remaining.assign(net.arc_count() / 2, 0.0);
  for (std::size_t arc = 0; arc < net.arc_count(); arc += 2) {
    const double f = net.flow(static_cast<int>(arc));
    if (f > kFlowEps) remaining[arc / 2] = f;
  }
  // Remaining flow only falls, so an arc that ran dry stays dry and each
  // node's scan resumes where the last one stopped.
  std::vector<std::size_t>& cursor = scratch.cursor;
  cursor.assign(net.node_count(), 0);
  auto first_outgoing = [&](int node) -> int {
    const std::span<const int> arcs = net.arcs_from(node);
    std::size_t& next = cursor[static_cast<std::size_t>(node)];
    for (; next < arcs.size(); ++next) {
      const int arc = arcs[next];
      if (!ResidualNetwork::is_forward(arc)) continue;
      if (remaining[static_cast<std::size_t>(arc) / 2] > kFlowEps) return arc;
    }
    return -1;
  };

  std::vector<int>& path = scratch.path;
  // Every path leaves only `source` and its arcs' targets positioned, and
  // they are reset before the next path starts.
  std::vector<int>& position = scratch.position;
  position.assign(net.node_count(), -1);
  Decomposition result;
  while (true) {
    path.clear();
    int node = source;
    position[static_cast<std::size_t>(node)] = 0;
    bool found_sink = false;
    while (true) {
      if (node == sink) {
        found_sink = true;
        break;
      }
      const int arc = first_outgoing(node);
      if (arc < 0) break;  // dead end (only possible at the very start)
      const int next = net.target(arc);
      const int seen_at = position[static_cast<std::size_t>(next)];
      if (seen_at >= 0) {
        // Cycle detected: cancel it and continue from `next`.
        double bottleneck = std::numeric_limits<double>::infinity();
        for (std::size_t i = static_cast<std::size_t>(seen_at);
             i < path.size(); ++i)
          bottleneck = std::min(
              bottleneck, remaining[static_cast<std::size_t>(path[i]) / 2]);
        bottleneck = std::min(
            bottleneck, remaining[static_cast<std::size_t>(arc) / 2]);
        for (std::size_t i = static_cast<std::size_t>(seen_at);
             i < path.size(); ++i)
          remaining[static_cast<std::size_t>(path[i]) / 2] -= bottleneck;
        remaining[static_cast<std::size_t>(arc) / 2] -= bottleneck;
        result.cancelled_cycle_flow += bottleneck;
        // Unwind path back to `next`.
        for (std::size_t i = static_cast<std::size_t>(seen_at);
             i < path.size(); ++i) {
          const int dropped_node = net.target(path[i]);
          position[static_cast<std::size_t>(dropped_node)] = -1;
        }
        path.resize(static_cast<std::size_t>(seen_at));
        node = next;
        position[static_cast<std::size_t>(node)] =
            static_cast<int>(path.size());
        continue;
      }
      path.push_back(arc);
      node = next;
      position[static_cast<std::size_t>(node)] = static_cast<int>(path.size());
    }
    position[static_cast<std::size_t>(source)] = -1;
    for (int arc : path)
      position[static_cast<std::size_t>(net.target(arc))] = -1;
    if (!found_sink) {
      RWC_CHECK_MSG(path.empty(), "flow decomposition hit a dead end");
      break;
    }
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int arc : path)
      bottleneck =
          std::min(bottleneck, remaining[static_cast<std::size_t>(arc) / 2]);
    if (path.empty() || bottleneck <= kFlowEps) break;
    for (int arc : path)
      remaining[static_cast<std::size_t>(arc) / 2] -= bottleneck;
    result.paths.push_back(PathFlow{path, bottleneck});
  }
  return result;
}

}  // namespace rwc::flow
