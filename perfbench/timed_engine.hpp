// Forwarding TE engine that times solve() from outside the library.
//
// The controller calls TeAlgorithm::solve internally (once per evaluation,
// concurrently from consolidation waves on a pool), so the only way to see
// solve spans without instrumenting src/ is to hand the controller this
// wrapper. It forwards verbatim and records a "te.solve" span when the
// tracer is on; the Tracer serializes recording, so concurrent solves are
// safe. The benchmark checks that it is timing-only: a run through the
// wrapper and one through the bare engine produce identical chains.
#pragma once

#include <string>

#include "te/algorithm.hpp"
#include "trace.hpp"

namespace rwc::perfbench {

class TimedEngine final : public te::TeAlgorithm {
 public:
  /// `inner` must outlive the wrapper.
  explicit TimedEngine(const te::TeAlgorithm& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  te::FlowAssignment solve(const graph::Graph& graph,
                           const te::TrafficMatrix& demands) const override {
    const SpanScope span("te.solve");
    return inner_.solve(graph, demands);
  }

 private:
  const te::TeAlgorithm& inner_;
};

}  // namespace rwc::perfbench
