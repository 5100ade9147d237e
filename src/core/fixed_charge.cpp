#include "core/fixed_charge.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace rwc::core {

using util::Gbps;

namespace {

/// Routed-throughput slack when comparing a subset with the target.
constexpr double kThroughputTolerance = 1e-6;

/// Throughput with the given subset of variable links activated.
double evaluate_subset(const graph::Graph& base,
                       std::span<const VariableLink> variable_links,
                       std::uint32_t mask, const te::TeAlgorithm& engine,
                       const te::TrafficMatrix& demands) {
  graph::Graph upgraded = base;
  for (std::size_t i = 0; i < variable_links.size(); ++i)
    if (mask & (1u << i))
      upgraded.edge(variable_links[i].edge).capacity =
          variable_links[i].feasible_capacity;
  return engine.solve(upgraded, demands).total_routed.value;
}

double subset_cost(std::span<const double> activation_cost,
                   std::uint32_t mask) {
  double cost = 0.0;
  for (std::size_t i = 0; i < activation_cost.size(); ++i)
    if (mask & (1u << i)) cost += activation_cost[i];
  return cost;
}

std::vector<VariableLink> subset_links(
    std::span<const VariableLink> variable_links, std::uint32_t mask) {
  std::vector<VariableLink> chosen;
  for (std::size_t i = 0; i < variable_links.size(); ++i)
    if (mask & (1u << i)) chosen.push_back(variable_links[i]);
  return chosen;
}

}  // namespace

FixedChargeResult solve_fixed_charge(
    const graph::Graph& base, std::span<const VariableLink> variable_links,
    std::span<const double> activation_cost, const te::TeAlgorithm& engine,
    const te::TrafficMatrix& demands) {
  RWC_EXPECTS(activation_cost.size() == variable_links.size());
  RWC_EXPECTS(variable_links.size() <= kMaxFixedChargeLinks);
  for (double cost : activation_cost) RWC_EXPECTS(cost >= 0.0);

  const std::uint32_t subsets = 1u << variable_links.size();

  // Target throughput: everything activated.
  const double best_throughput = evaluate_subset(
      base, variable_links, subsets - 1, engine, demands);

  // Enumerate subsets in ascending activation cost; the first one achieving
  // the target throughput is lexicographically optimal.
  std::vector<std::uint32_t> order(subsets);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double ca = subset_cost(activation_cost, a);
    const double cb = subset_cost(activation_cost, b);
    if (ca != cb) return ca < cb;
    return a < b;  // deterministic tie-break: prefer smaller subsets first
  });

  FixedChargeResult result;
  for (std::uint32_t mask : order) {
    const double routed =
        evaluate_subset(base, variable_links, mask, engine, demands);
    if (routed + kThroughputTolerance >= best_throughput) {
      result.activated = subset_links(variable_links, mask);
      result.routed = Gbps{routed};
      result.activation_cost = subset_cost(activation_cost, mask);
      return result;
    }
  }
  // Unreachable: the full set achieves its own throughput.
  RWC_CHECK_MSG(false, "fixed-charge enumeration found no subset");
  return result;
}

}  // namespace rwc::core
