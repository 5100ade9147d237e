// Min-cost flow: successive shortest paths with Johnson potentials.
// This is the solver Theorem 1's reduction targets — min-cost max-flow on
// the augmented topology G'. Every solve runs cold: the only reuse above it
// is McfTe's removed-edge prefix (docs/SOLVERS.md).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "flow/network.hpp"

namespace rwc::flow {

/// Why a min-cost solve stopped.
enum class SolveStatus {
  /// Sink unreachable (or path saturated): the flow is a true min-cost
  /// max flow below the requested limit.
  kOptimal,
  /// The requested flow_limit was routed in full.
  kFlowLimitReached,
  /// The augmenting-path budget ran out first: the result is a valid
  /// partial flow (every routed unit is min-cost), but more flow may have
  /// been routable. Callers degrade gracefully by using the partial flow.
  kBudgetExhausted,
};

/// Default augmenting-path budget: far beyond any real workload (the WAN
/// rounds of bench/ run thousands of paths), but bounded, so adversarial
/// inputs with pathological bottleneck patterns cannot spin the SSP loop
/// unboundedly.
inline constexpr std::uint64_t kDefaultMaxAugmentations = 1ull << 22;

struct MinCostFlowResult {
  double flow = 0.0;
  double cost = 0.0;
  SolveStatus status = SolveStatus::kOptimal;
  /// Augmenting paths pushed by this solve.
  std::uint64_t augmenting_paths = 0;
};

/// Fingerprint of a solve's inputs: node/arc structure, initial residuals,
/// costs and terminals, hashed over exact bit patterns. It keys the
/// `flow.mincost` fault site (docs/FAULTS.md): it depends only on the solver
/// inputs, never on scheduling, so an injected budget hits the same solves
/// at every pool size.
std::uint64_t network_fingerprint(const ResidualNetwork& net, int source,
                                  int sink);

/// Computes a minimum-cost maximum flow from source to sink (mutating
/// residuals). When `flow_limit` is finite, stops once that much flow is
/// routed (min-cost flow of a given value). Costs may be negative as long as
/// the initial network has no negative-cost cycle of positive capacity.
///
/// `max_augmentations` bounds the augmenting-path count; when it binds, the
/// result carries SolveStatus::kBudgetExhausted and the flow routed so far.
/// The `flow.mincost` fault site (docs/FAULTS.md) can clamp the budget
/// further, keyed by network_fingerprint, which is computed only while a
/// fault plan is armed.
///
/// `improved`, when non-null, holds one flag per arc pair (arc_count() / 2
/// entries; pair i is arcs 2i and 2i+1). The solve sets pair i's flag when
/// a Bellman-Ford or Dijkstra relaxation on either arc improved a label.
/// A pair whose flag stays clear was a no-op in every search: the same
/// network without that pair runs the same searches (docs/SOLVERS.md,
/// "Removed-edge prefix reuse").
MinCostFlowResult min_cost_max_flow(
    ResidualNetwork& net, int source, int sink,
    double flow_limit = std::numeric_limits<double>::infinity(),
    std::uint64_t max_augmentations = kDefaultMaxAugmentations,
    std::vector<std::uint8_t>* improved = nullptr);

}  // namespace rwc::flow
