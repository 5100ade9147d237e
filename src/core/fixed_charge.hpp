// Fixed-charge activation variant of the abstraction (DESIGN.md ablation).
//
// Min-cost max-flow charges fake links PER UNIT OF FLOW — tractable, and
// what Theorem 1's reduction uses. Operators sometimes want the other
// semantics: activating a capacity change costs a FIXED price (a maintenance
// window, a disruption event) no matter how much traffic later uses it.
// That problem is a fixed-charge network design problem (NP-hard), so the
// solver here is exact and small: a lexicographic solve (max throughput,
// then min total activation cost) by cost-ordered subset enumeration over
// at most kMaxFixedChargeLinks variable links; larger sets are refused.
// It treats the TE engine as a black box, like everything else here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/augment.hpp"
#include "te/algorithm.hpp"

namespace rwc::core {

/// Largest variable-link set solve_fixed_charge accepts (2^n engine runs
/// worst case).
inline constexpr std::size_t kMaxFixedChargeLinks = 12;

struct FixedChargeResult {
  /// The chosen activations (subset of the input variable links).
  std::vector<VariableLink> activated;
  /// Throughput the engine achieves with exactly these activations.
  util::Gbps routed{0.0};
  /// Sum of the chosen links' activation costs.
  double activation_cost = 0.0;
};

/// Chooses which variable links to activate under fixed activation costs:
/// lexicographically maximize routed throughput, then minimize total
/// activation cost. `activation_cost` is indexed like `variable_links`,
/// which holds at most kMaxFixedChargeLinks links. The engine runs on
/// plain upgraded topologies (no fake links needed — activation semantics
/// make the upgrade unconditional).
FixedChargeResult solve_fixed_charge(
    const graph::Graph& base, std::span<const VariableLink> variable_links,
    std::span<const double> activation_cost, const te::TeAlgorithm& engine,
    const te::TrafficMatrix& demands);

}  // namespace rwc::core
