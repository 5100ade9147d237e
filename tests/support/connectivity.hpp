// Strong connectivity of a directed graph: the oracle the topology suites
// check built-in and random WANs against (tests/test_graph.cpp,
// tests/test_sim_topology_workload.cpp, tests/test_umbrella_topologies.cpp).
#pragma once

#include <cstddef>
#include <queue>
#include <vector>

#include "graph/graph.hpp"

namespace rwc::graph {

/// True when every node can reach every other node along directed edges
/// (an empty graph is connected): one breadth-first search per source.
inline bool is_strongly_connected(const Graph& graph) {
  for (NodeId source : graph.node_ids()) {
    std::vector<bool> seen(graph.node_count(), false);
    std::queue<NodeId> frontier;
    seen[static_cast<std::size_t>(source.value)] = true;
    frontier.push(source);
    std::size_t reached = 1;
    while (!frontier.empty()) {
      const NodeId node = frontier.front();
      frontier.pop();
      for (EdgeId id : graph.out_edges(node)) {
        const NodeId next = graph.edge(id).dst;
        if (seen[static_cast<std::size_t>(next.value)]) continue;
        seen[static_cast<std::size_t>(next.value)] = true;
        ++reached;
        frontier.push(next);
      }
    }
    if (reached != graph.node_count()) return false;
  }
  return true;
}

}  // namespace rwc::graph
