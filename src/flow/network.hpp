// Residual flow network shared by the max-flow and min-cost-flow solvers.
//
// Arcs are stored in forward/backward pairs: arc i and arc (i ^ 1) are each
// other's residual complements. Capacities and costs are doubles (Gbps and
// penalty units); all solvers use a common epsilon for "empty" arcs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rwc::flow {

/// Tolerance below which residual capacity is treated as zero.
inline constexpr double kFlowEps = 1e-9;

class ResidualNetwork {
 public:
  explicit ResidualNetwork(std::size_t node_count);

  /// Adds a directed arc src -> dst. Returns the forward arc index; the
  /// paired reverse arc is (index ^ 1). Requires capacity >= 0.
  int add_arc(int src, int dst, double capacity, double cost = 0.0);

  /// Re-initialises every arc for new capacities without rebuilding the
  /// network: forward arc 2i gets capacities[i], every reverse arc +0.0,
  /// both as residual and as initial capacity. Structure, costs and
  /// adjacency stay, so the network equals, bit for bit, one freshly built
  /// by the same add_arc calls with these capacities. Requires one
  /// capacity per arc pair (arc_count() / 2), each >= 0.
  void set_capacities(std::span<const double> capacities);

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t arc_count() const { return targets_.size(); }

  int target(int arc) const { return targets_[static_cast<std::size_t>(arc)]; }
  int source(int arc) const { return targets_[static_cast<std::size_t>(arc ^ 1)]; }
  double residual(int arc) const {
    return residuals_[static_cast<std::size_t>(arc)];
  }
  double cost(int arc) const { return costs_[static_cast<std::size_t>(arc)]; }
  /// Original (pre-flow) capacity of the arc.
  double initial_capacity(int arc) const {
    return initial_[static_cast<std::size_t>(arc)];
  }
  /// Net flow currently pushed through the arc (negative on reverse arcs).
  double flow(int arc) const {
    return initial_[static_cast<std::size_t>(arc)] -
           residuals_[static_cast<std::size_t>(arc)];
  }

  /// Pushes `amount` along the arc, updating the paired reverse arc.
  /// Requires amount <= residual(arc) + kFlowEps.
  void push(int arc, double amount);

  /// Arc indices leaving `node` (both forward and reverse arcs).
  std::span<const int> arcs_from(int node) const {
    return adjacency_[static_cast<std::size_t>(node)];
  }

  /// True for forward arcs (even index).
  static bool is_forward(int arc) { return (arc & 1) == 0; }

  /// Resets all arcs to their initial capacities (drops all flow).
  void reset();

  /// Sum over forward arcs of flow * cost.
  double total_cost() const;

  /// Net flow out of `node` minus flow into it (over forward arcs).
  double net_outflow(int node) const;

 private:
  std::vector<int> targets_;
  std::vector<double> residuals_;
  std::vector<double> initial_;
  std::vector<double> costs_;
  std::vector<std::vector<int>> adjacency_;
};

}  // namespace rwc::flow
