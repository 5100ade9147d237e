// SWAN-style LP traffic engineering (Hong et al., SIGCOMM 2013):
// path-based multi-commodity flow over 4 preinstalled tunnels per demand,
// solved lexicographically — priority classes high to low, maximize
// throughput, then minimize total edge cost at that throughput (the pass
// that makes augmentation penalties effective), with optional approximate
// max-min fairness within a class via iterative LP water-filling.
//
// Every LP goes through an exact-match memo (lp::LpMemo): a round whose LP
// is bit-identical to an earlier one returns the stored solution instead
// of pivoting. The simplex is deterministic, so results are the same with
// the memo on or off (docs/SOLVERS.md).
#pragma once

#include "lp/simplex.hpp"
#include "te/algorithm.hpp"
#include "util/env.hpp"

namespace rwc::te {

class SwanTe final : public TeAlgorithm {
 public:
  struct Options {
    bool max_min_fairness = false;
    /// Serve bit-identical LPs from the memo. Timing only;
    /// RWC_PARTIAL_RESOLVE=0 flips the default off for bisection and as the
    /// reference arm of the differential tests.
    bool lp_memo = util::env_flag("RWC_PARTIAL_RESOLVE", true);
  };

  SwanTe() : options_{} {}
  explicit SwanTe(Options options) : options_(options) {}

  std::string name() const override { return "swan"; }

  FlowAssignment solve(const graph::Graph& graph,
                       const TrafficMatrix& demands) const override;

 private:
  Options options_;
  /// Optimal LP solutions keyed by exact fingerprint; thread-safe,
  /// timing-only, never checkpointed.
  mutable lp::LpMemo lp_memo_;
};

}  // namespace rwc::te
