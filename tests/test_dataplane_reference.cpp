// The flowlet-class kernel (dataplane::DataplaneSim) against the
// per-flowlet reference kernel (tests/support/flowlet_reference.hpp,
// docs/DATAPLANE.md §2): on the inputs the three GoldenDataplane fixtures
// pin, with and without a checkpoint handed between the kernels, every
// RoundResult field, state_signature() and the save_state() bytes agree
// bit for bit. The prop harness runs the same comparison under random
// dataplane.packet / dataplane.hash plans (tests/prop/prop_dataplane.cpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/loop.hpp"
#include "dataplane/timeline.hpp"
#include "dataplane/xcheck.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/flowlet_reference.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using dataplane::reference::FlowletReference;
using dataplane::reference::first_difference;

void expect_same_state(const dataplane::DataplaneSim& sim,
                       const FlowletReference& reference,
                       const std::string& where) {
  EXPECT_EQ(sim.state_signature(), reference.state_signature()) << where;
  EXPECT_TRUE(sim.save_state() == reference.save_state())
      << where << ": save_state bytes differ";
}

/// Runs the class kernel and the reference on the inputs of every round
/// run_xcheck(`config`) runs: the assignment and timeline its loop's
/// dataplane ran. Both must reproduce the loop's own round. Before round
/// `handoff` (if set) each kernel is rebuilt from the other's payload, so
/// a checkpoint written by either restores into either.
void compare_on_xcheck_inputs(const dataplane::XcheckConfig& config,
                              std::optional<std::size_t> handoff) {
  std::unique_ptr<dataplane::DataplaneSim> sim;
  std::unique_ptr<FlowletReference> reference;
  std::size_t rounds = 0;
  dataplane::run_xcheck(config, [&](std::size_t r,
                                    const dataplane::ClosedLoop& loop,
                                    const dataplane::ClosedLoop::Round& step) {
    const graph::Graph& topology = loop.controller().physical_topology();
    const te::FlowAssignment& assignment = step.report.plan.physical_assignment;
    const std::size_t ods = assignment.routings.size();
    if (sim == nullptr) {
      sim = std::make_unique<dataplane::DataplaneSim>(topology, ods,
                                                      config.dataplane);
      reference =
          std::make_unique<FlowletReference>(topology, ods, config.dataplane);
    }
    if (handoff == r) {
      const std::vector<std::byte> from_sim = sim->save_state();
      const std::vector<std::byte> from_reference = reference->save_state();
      sim = std::make_unique<dataplane::DataplaneSim>(topology, ods,
                                                      config.dataplane);
      sim->restore_state(from_reference);
      reference =
          std::make_unique<FlowletReference>(topology, ods, config.dataplane);
      reference->restore_state(from_sim);
      expect_same_state(*sim, *reference,
                        "restored before round " + std::to_string(r));
    }
    const dataplane::RoundResult got =
        sim->run_round(assignment, step.timeline);
    const dataplane::RoundResult want =
        reference->run_round(assignment, step.timeline);
    EXPECT_EQ(first_difference(got, want), "") << "round " << r;
    EXPECT_EQ(got.signature, step.result.signature)
        << "round " << r << " is not the loop's";
    expect_same_state(*sim, *reference, "after round " + std::to_string(r));
    ++rounds;
  });
  EXPECT_EQ(rounds, config.rounds);
}

/// The golden input `config` (under `plan` when set): the two kernels
/// agree on every round of the loop's, and keep agreeing after a
/// checkpoint crosses between them.
void check_golden_input(const dataplane::XcheckConfig& config,
                        const char* plan = nullptr) {
  std::optional<fault::ScopedPlan> armed;
  if (plan != nullptr) armed.emplace(fault::FaultPlan::parse(plan));
  compare_on_xcheck_inputs(config, std::nullopt);
  for (const std::size_t handoff : {std::size_t{1}, config.rounds / 2 + 1}) {
    SCOPED_TRACE("checkpoint handed over before round " +
                 std::to_string(handoff));
    compare_on_xcheck_inputs(config, handoff);
  }
}

dataplane::XcheckConfig golden_seed(std::uint64_t seed) {
  dataplane::XcheckConfig config;
  config.seed = seed;
  config.rounds = 3;
  return config;
}

TEST(DataplaneReference, MatchesOnGoldenSeed20170701) {
  check_golden_input(golden_seed(20170701));
}

TEST(DataplaneReference, MatchesOnGoldenSeed20250808) {
  check_golden_input(golden_seed(20250808));
}

// The edge-path input splits classes both ways: WCMP migrations under
// dataplane.hash faults, and per-flowlet dataplane.packet drops,
// duplicates and delays, next to buffer overflow and a dark downshift.
TEST(DataplaneReference, MatchesOnGoldenEdgePathsUnderFaults) {
  dataplane::XcheckConfig config;
  config.seed = 20171130;
  config.rounds = 6;
  config.demand_load = 0.9;
  config.downshift_round = 3;
  config.downshift_factor = 0.0;
  check_golden_input(
      config,
      "dataplane.packet%53@3:drop;dataplane.packet%59@7:duplicate;"
      "dataplane.packet%61@11:delay;dataplane.hash%13@5:garbage=7;"
      "dataplane.hash%17@2:stale");
}

// dataplane.classes reports the live classes after each round: on a
// clean round at least one per OD and, with most ODs on one path, far
// fewer than the flowlets.
TEST(DataplaneReference, ClassGaugeCountsLiveClasses) {
  util::Rng topo_rng = util::Rng::stream(67, 810);
  const graph::Graph topology = sim::waxman(8, topo_rng);
  util::Rng demand_rng = util::Rng::stream(67, 811);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{topology.total_capacity().value * 0.4};
  const te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, demand_rng);
  const te::McfTe engine;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, {});
  controller.run_round(
      std::vector<util::Db>(topology.edge_count(), util::Db{20.0}), demands);
  const std::span<const util::Gbps> configured =
      controller.configured_capacities();
  const std::vector<util::Gbps> caps(configured.begin(), configured.end());
  const dataplane::DataplaneConfig config;
  dataplane::DataplaneSim sim(topology, demands.size(), config);
  sim.run_round(controller.last_assignment(),
                dataplane::build_timeline(caps, caps, nullptr,
                                          config.ticks_per_round,
                                          config.tick_seconds));
  const double classes =
      obs::Registry::global().gauge("dataplane.classes").value();
  EXPECT_GE(classes, static_cast<double>(demands.size()));
  EXPECT_LT(classes, static_cast<double>(demands.size() *
                                         config.flowlets_per_od) /
                         4.0);
}

}  // namespace
}  // namespace rwc
