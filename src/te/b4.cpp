#include "te/b4.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "flow/network.hpp"
#include "graph/ksp.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::te {

using util::Gbps;

namespace {

/// Preinstalled tunnels (k shortest paths) per demand.
constexpr std::size_t kPathsPerDemand = 4;
/// Bandwidth one progressive-filling step hands a demand, Gbps.
constexpr double kQuantumGbps = 1.0;

}  // namespace

FlowAssignment B4Te::solve(const graph::Graph& graph,
                           const TrafficMatrix& demands) const {
  static auto& solves = obs::Registry::global().counter("te.b4.solves");
  static auto& seconds =
      obs::Registry::global().histogram("te.b4.solve_seconds");
  solves.add();
  obs::ScopedTimer timer(seconds);

  FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];

  // Tunnel groups: k shortest paths per demand, cost-aware tie-breaking.
  double max_cost = 0.0;
  for (graph::EdgeId edge : graph.edge_ids())
    max_cost = std::max(max_cost, graph.edge(edge).cost);
  const double cost_scale =
      max_cost > 0.0
          ? 1e-6 / (max_cost * static_cast<double>(graph.edge_count() + 1))
          : 0.0;

  struct Tunnel {
    graph::Path path;
    double metric = 0.0;  // weight + tiny cost
  };
  std::vector<std::vector<Tunnel>> tunnels(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (demands[d].volume.value <= flow::kFlowEps) continue;
    RWC_EXPECTS(demands[d].src != demands[d].dst);
    for (graph::Path& path :
         graph::k_shortest_paths(graph, demands[d].src, demands[d].dst,
                                 kPathsPerDemand)) {
      Tunnel tunnel;
      tunnel.metric = path.weight;
      for (graph::EdgeId edge : path.edges)
        tunnel.metric += cost_scale * graph.edge(edge).cost;
      tunnel.path = std::move(path);
      tunnels[d].push_back(std::move(tunnel));
    }
    std::sort(tunnels[d].begin(), tunnels[d].end(),
              [](const Tunnel& a, const Tunnel& b) {
                return a.metric < b.metric;
              });
  }

  std::vector<double> remaining(graph.edge_count());
  for (graph::EdgeId edge : graph.edge_ids())
    remaining[static_cast<std::size_t>(edge.value)] =
        graph.edge(edge).capacity.value;
  std::vector<double> unmet(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d)
    unmet[d] = demands[d].volume.value;

  // Allocation per (demand, tunnel index) accumulated into paths at the end.
  std::vector<std::map<std::size_t, double>> allocation(demands.size());

  std::set<int, std::greater<>> classes;
  for (const Demand& d : demands) classes.insert(d.priority);

  for (int priority : classes) {
    std::vector<std::size_t> members;
    for (std::size_t d = 0; d < demands.size(); ++d)
      if (demands[d].priority == priority && !tunnels[d].empty())
        members.push_back(d);

    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t d : members) {
        if (unmet[d] <= flow::kFlowEps) continue;
        // Best tunnel with spare capacity.
        for (std::size_t t = 0; t < tunnels[d].size(); ++t) {
          double spare = std::numeric_limits<double>::infinity();
          for (graph::EdgeId edge : tunnels[d][t].path.edges)
            spare = std::min(spare,
                             remaining[static_cast<std::size_t>(edge.value)]);
          if (spare <= flow::kFlowEps) continue;
          const double amount =
              std::min({kQuantumGbps, unmet[d], spare});
          for (graph::EdgeId edge : tunnels[d][t].path.edges)
            remaining[static_cast<std::size_t>(edge.value)] -= amount;
          allocation[d][t] += amount;
          unmet[d] -= amount;
          progress = true;
          break;
        }
      }
    }
  }

  for (std::size_t d = 0; d < demands.size(); ++d)
    for (const auto& [tunnel_index, volume] : allocation[d])
      result.routings[d].paths.emplace_back(tunnels[d][tunnel_index].path,
                                            Gbps{volume});
  finalize_assignment(graph, result);
  return result;
}

}  // namespace rwc::te
