// Min-cost-flow TE: demands are routed sequentially (priority order, then
// input order) as min-cost flows on a shared residual network. This is the
// engine the augmentation theorem directly targets: on an augmented topology
// the min-cost route maximizes throughput while minimizing activation
// penalty for each demand in turn.
//
// Removed-edge prefix reuse: every solve also keeps a trace of its graph,
// demands, routing and, per edge, the first demand whose search improved a
// label through it. A later solve of the same demands on that graph with
// edges removed (a consolidation trial drops fake links) copies the routing
// of every demand served before the first one that touched a removed edge
// and solves only the rest. The result is bit-identical to a cold solve
// (docs/SOLVERS.md, "Removed-edge prefix reuse"). Every other demand runs
// the min-cost solver cold. Safe under concurrent solve() calls: the trace
// store is thread-safe and only affects timing, never results.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "te/algorithm.hpp"
#include "util/env.hpp"

namespace rwc::te {

class McfTe final : public TeAlgorithm {
 public:
  struct Options {
    /// Removed-edge prefix reuse (docs/SOLVERS.md). Bit-identical to a cold
    /// solve by construction; RWC_PARTIAL_RESOLVE=0 flips the default off
    /// for bisection and as the reference arm of the differential tests.
    bool prefix_reuse = util::env_flag("RWC_PARTIAL_RESOLVE", true);
  };

  McfTe() : McfTe(Options{}) {}
  explicit McfTe(Options options) : options_(options) {}

  std::string name() const override { return "mcf"; }

  FlowAssignment solve(const graph::Graph& graph,
                       const TrafficMatrix& demands) const override;

  const Options& options() const { return options_; }

 private:
  struct SolveTrace;
  struct Resume;

  /// Traces kept for prefix reuse, least recently used evicted. Enough for
  /// a consolidation wave at pool size 8 (16 trials) to keep the plan they
  /// all test.
  static constexpr std::size_t kTraceSlots = 16;

  /// The stored trace this solve can resume from with the longest prefix
  /// (marked most recently used), or nullptr; fills `resume`.
  std::shared_ptr<const SolveTrace> find_resume(const graph::Graph& graph,
                                                const TrafficMatrix& demands,
                                                Resume& resume) const;
  void keep_trace(std::shared_ptr<const SolveTrace> trace) const;

  Options options_;
  /// Traces are never checkpointed. One that outlives a restore stays
  /// usable: reuse checks demands and graph, not the round.
  mutable std::mutex trace_mutex_;
  /// Most recently used first; a trace is immutable once stored.
  mutable std::vector<std::shared_ptr<const SolveTrace>> traces_;
};

}  // namespace rwc::te
