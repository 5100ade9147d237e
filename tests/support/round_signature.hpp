// Shared round-signature helpers for every test tree that compares
// controller rounds bitwise: the property harness (tests/prop/), the
// example-based determinism/replay suites, and the fleet differential
// layer (tests/test_fleet_differential.cpp, tests/prop/prop_fleet.cpp).
// Kept in namespace rwc::prop — this is the single definition the
// harness-wide includes resolve to; tests/prop/invariants.hpp re-exports
// it for existing call sites.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"

namespace rwc::prop {

/// Outcome of one invariant check: ok, or a human-readable violation.
struct InvariantResult {
  bool ok = true;
  std::string detail;

  static InvariantResult pass() { return {}; }
  static InvariantResult fail(std::string detail) {
    return {false, std::move(detail)};
  }
  explicit operator bool() const { return ok; }
};

/// First failing result of a sequence of checks (all-pass otherwise).
inline InvariantResult all_of(std::initializer_list<InvariantResult> checks) {
  for (const InvariantResult& check : checks)
    if (!check.ok) return check;
  return InvariantResult::pass();
}

/// The comparable fingerprint of one controller round: everything the
/// pool-size determinism contract (docs/CONCURRENCY.md) promises is
/// bit-identical across thread counts — and everything the incremental
/// re-solve contract (docs/FLEET.md) promises is bit-identical between
/// the hot path and a full re-solve. Work counters (evaluations, stage
/// seconds, incremental_hit, dirty_links) are deliberately excluded —
/// speculative waves may discard extra evaluations when their trials run
/// concurrently, and the hot path exists precisely to skip work.
struct RoundSignature {
  std::vector<std::pair<std::int32_t, double>> upgrades;  // (edge, to)
  double routed = 0.0;
  double penalty = 0.0;
  std::size_t reductions = 0;
  std::size_t restorations = 0;
  bool transition_valid = false;

  friend bool operator==(const RoundSignature&,
                         const RoundSignature&) = default;
};

inline RoundSignature signature_of(
    const core::DynamicCapacityController::RoundReport& report) {
  RoundSignature sig;
  for (const auto& change : report.plan.upgrades)
    sig.upgrades.emplace_back(change.edge.value, change.to.value);
  sig.routed = report.total_routed.value;
  sig.penalty = report.total_penalty;
  sig.reductions = report.reductions.size();
  sig.restorations = report.restorations.size();
  sig.transition_valid = report.transition_valid;
  return sig;
}

inline std::string to_string(const RoundSignature& sig) {
  std::ostringstream out;
  out << "routed=" << sig.routed << " penalty=" << sig.penalty
      << " reductions=" << sig.reductions
      << " restorations=" << sig.restorations
      << " transition_valid=" << sig.transition_valid << " upgrades=[";
  for (std::size_t i = 0; i < sig.upgrades.size(); ++i) {
    if (i > 0) out << ", ";
    out << sig.upgrades[i].first << "->" << sig.upgrades[i].second;
  }
  out << "]";
  return out.str();
}

/// Pool-size / hot-path invariance: `got` must equal `expected`.
inline InvariantResult check_signatures_equal(const RoundSignature& expected,
                                              const RoundSignature& got,
                                              const std::string& context) {
  if (expected == got) return InvariantResult::pass();
  return InvariantResult::fail(context + ": expected {" +
                               to_string(expected) + "} got {" +
                               to_string(got) + "}");
}

}  // namespace rwc::prop
