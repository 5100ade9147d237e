#include "te/swan.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "flow/network.hpp"
#include "graph/ksp.hpp"
#include "lp/simplex.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::te {

using util::Gbps;

namespace {

/// Preinstalled tunnels (k shortest paths) per demand.
constexpr std::size_t kPathsPerDemand = 4;
/// Relative slack when fixing a class's throughput between the two
/// passes.
constexpr double kThroughputSlack = 1e-9;

/// One LP variable: volume on `path` of demand `demand_index`.
struct PathVariable {
  std::size_t demand_index;
  graph::Path path;
  double cost = 0.0;  // sum of edge costs along the path
};

struct LpShape {
  std::vector<PathVariable> variables;
  /// variable indices per demand.
  std::vector<std::vector<int>> by_demand;
  /// variable indices per edge (only edges used by some path).
  std::map<int, std::vector<int>> by_edge;
};

LpShape build_shape(const graph::Graph& graph, const TrafficMatrix& demands,
                    std::size_t k) {
  LpShape shape;
  shape.by_demand.resize(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (demands[d].volume.value <= flow::kFlowEps) continue;
    RWC_EXPECTS(demands[d].src != demands[d].dst);
    const auto paths =
        graph::k_shortest_paths(graph, demands[d].src, demands[d].dst, k);
    for (const graph::Path& path : paths) {
      PathVariable variable{d, path, 0.0};
      for (graph::EdgeId edge : path.edges)
        variable.cost += graph.edge(edge).cost;
      const int var_index = static_cast<int>(shape.variables.size());
      shape.by_demand[d].push_back(var_index);
      for (graph::EdgeId edge : path.edges)
        shape.by_edge[edge.value].push_back(var_index);
      shape.variables.push_back(std::move(variable));
    }
  }
  return shape;
}

/// Adds the shared structure: demand caps and edge capacities. `x_of` maps
/// shape-variable index -> LP variable index.
void add_shared_constraints(lp::LpProblem& problem, const graph::Graph& graph,
                            const TrafficMatrix& demands,
                            const LpShape& shape,
                            const std::vector<int>& x_of) {
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (shape.by_demand[d].empty()) continue;
    std::vector<lp::Term> terms;
    for (int v : shape.by_demand[d]) terms.push_back({x_of[static_cast<std::size_t>(v)], 1.0});
    problem.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                           demands[d].volume.value);
  }
  for (const auto& [edge_value, vars] : shape.by_edge) {
    std::vector<lp::Term> terms;
    for (int v : vars) terms.push_back({x_of[static_cast<std::size_t>(v)], 1.0});
    problem.add_constraint(
        std::move(terms), lp::Relation::kLessEqual,
        graph.edge(graph::EdgeId{edge_value}).capacity.value);
  }
}

}  // namespace

FlowAssignment SwanTe::solve(const graph::Graph& graph,
                             const TrafficMatrix& demands) const {
  static auto& solves = obs::Registry::global().counter("te.swan.solves");
  static auto& seconds =
      obs::Registry::global().histogram("te.swan.solve_seconds");
  solves.add();
  obs::ScopedTimer timer(seconds);

  FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];

  const LpShape shape = build_shape(graph, demands, kPathsPerDemand);
  const int n_vars = static_cast<int>(shape.variables.size());
  if (n_vars == 0) {
    finalize_assignment(graph, result);
    return result;
  }
  std::vector<int> x_of(static_cast<std::size_t>(n_vars));
  for (int v = 0; v < n_vars; ++v) x_of[static_cast<std::size_t>(v)] = v;

  lp::LpMemo* const memo = options_.lp_memo ? &lp_memo_ : nullptr;

  // Priority classes, high to low; each class's achieved throughput becomes
  // a >= constraint for later passes.
  std::set<int, std::greater<>> classes;
  for (const Demand& d : demands) classes.insert(d.priority);

  // class -> throughput locked in by its maximize pass.
  std::vector<std::pair<int, double>> locked;

  auto class_terms = [&](int priority) {
    std::vector<lp::Term> terms;
    for (int v = 0; v < n_vars; ++v)
      if (demands[shape.variables[static_cast<std::size_t>(v)].demand_index]
              .priority == priority)
        terms.push_back({v, 1.0});
    return terms;
  };

  auto add_locked = [&](lp::LpProblem& problem) {
    for (const auto& [priority, throughput] : locked) {
      auto terms = class_terms(priority);
      if (terms.empty()) continue;
      problem.add_constraint(
          std::move(terms), lp::Relation::kGreaterEqual,
          throughput * (1.0 - kThroughputSlack) - 1e-9);
    }
  };

  for (int priority : classes) {
    // Pass A: maximize this class's throughput.
    lp::LpProblem maximize(lp::Sense::kMaximize);
    for (int v = 0; v < n_vars; ++v) {
      const bool in_class =
          demands[shape.variables[static_cast<std::size_t>(v)].demand_index]
              .priority == priority;
      maximize.add_variable(in_class ? 1.0 : 0.0);
    }
    add_shared_constraints(maximize, graph, demands, shape, x_of);
    add_locked(maximize);
    const auto max_solution = maximize.solve(memo);
    RWC_CHECK_MSG(max_solution.optimal(), "SWAN throughput LP not optimal");
    locked.emplace_back(priority, max_solution.objective);
  }

  // Final pass: all class throughputs locked; minimize total path cost.
  lp::LpProblem minimize(lp::Sense::kMinimize);
  for (int v = 0; v < n_vars; ++v)
    minimize.add_variable(shape.variables[static_cast<std::size_t>(v)].cost);
  add_shared_constraints(minimize, graph, demands, shape, x_of);
  add_locked(minimize);
  auto solution = minimize.solve(memo);
  RWC_CHECK_MSG(solution.optimal(), "SWAN cost LP not optimal");

  if (options_.max_min_fairness) {
    // Water-filling refinement: scale every demand's share up uniformly,
    // freezing saturated demands, while keeping the cost-optimal basis as a
    // fallback if any LP fails.
    std::vector<double> frozen(demands.size(), -1.0);
    for (int round = 0; round < 32; ++round) {
      lp::LpProblem fair(lp::Sense::kMaximize);
      for (int v = 0; v < n_vars; ++v) fair.add_variable(0.0);
      const int t = fair.add_variable(1.0, 1.0, "t");
      add_shared_constraints(fair, graph, demands, shape, x_of);
      add_locked(fair);
      bool any_unfrozen = false;
      for (std::size_t d = 0; d < demands.size(); ++d) {
        if (shape.by_demand[d].empty()) continue;
        std::vector<lp::Term> terms;
        for (int v : shape.by_demand[d]) terms.push_back({v, 1.0});
        if (frozen[d] >= 0.0) {
          fair.add_constraint(std::move(terms), lp::Relation::kGreaterEqual,
                              frozen[d] - 1e-9);
        } else {
          any_unfrozen = true;
          terms.push_back({t, -demands[d].volume.value});
          fair.add_constraint(std::move(terms), lp::Relation::kGreaterEqual,
                              0.0);
        }
      }
      if (!any_unfrozen) break;
      const auto fair_solution = fair.solve(memo);
      if (!fair_solution.optimal()) break;
      const double t_star =
          fair_solution.values[static_cast<std::size_t>(t)];
      bool progressed = false;
      for (std::size_t d = 0; d < demands.size(); ++d) {
        if (frozen[d] >= 0.0 || shape.by_demand[d].empty()) continue;
        double alloc = 0.0;
        for (int v : shape.by_demand[d])
          alloc += fair_solution.values[static_cast<std::size_t>(v)];
        const double fair_share = t_star * demands[d].volume.value;
        if (alloc <= fair_share + 1e-6 || t_star >= 1.0 - 1e-9) {
          frozen[d] = std::min(alloc, demands[d].volume.value);
          progressed = true;
        }
      }
      solution = fair_solution;
      if (!progressed) break;
    }
  }

  for (int v = 0; v < n_vars; ++v) {
    const double volume = solution.values[static_cast<std::size_t>(v)];
    if (volume <= 1e-7) continue;
    const PathVariable& variable = shape.variables[static_cast<std::size_t>(v)];
    result.routings[variable.demand_index].paths.emplace_back(variable.path,
                                                              Gbps{volume});
  }
  finalize_assignment(graph, result);
  return result;
}

}  // namespace rwc::te
