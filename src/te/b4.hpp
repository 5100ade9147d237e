// B4-style greedy TE (Jain et al., SIGCOMM 2013): demands are grouped by
// priority; within a class, bandwidth is handed out in 1 Gbps quanta,
// round-robin across demands (progressive filling — approximate max-min
// fairness), each demand taking its best available tunnel from its 4
// preinstalled shortest paths.
#pragma once

#include "te/algorithm.hpp"

namespace rwc::te {

class B4Te final : public TeAlgorithm {
 public:
  std::string name() const override { return "b4"; }

  FlowAssignment solve(const graph::Graph& graph,
                       const TrafficMatrix& demands) const override;
};

}  // namespace rwc::te
