// The flowlet-class kernel (dataplane::DataplaneSim) against the
// per-flowlet reference kernel (tests/support/flowlet_reference.hpp,
// docs/DATAPLANE.md §2): on the inputs the three GoldenDataplane fixtures
// pin, with and without a checkpoint handed between the kernels, every
// RoundResult field, state_signature() and the save_state() bytes agree
// bit for bit. The prop harness runs the same comparison under random
// dataplane.packet / dataplane.hash plans (tests/prop/prop_dataplane.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/dataplane.hpp"
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

/// Replays the (assignment, timeline) inputs dataplane::run_xcheck feeds
/// its simulator, round by round (the same seeded fixture, controller,
/// schedules and forced downshift as src/dataplane/xcheck.cpp, Mcf
/// engine, no mid-run checkpoint).
void for_each_xcheck_input(
    const dataplane::XcheckConfig& config,
    const std::function<void(std::size_t, const graph::Graph&,
                             const te::FlowAssignment&,
                             const dataplane::CapacityTimeline&)>& visit) {
  util::Rng topo_rng = util::Rng::stream(config.seed, 810);
  const graph::Graph topology = sim::waxman(config.nodes, topo_rng);
  util::Rng demand_rng = util::Rng::stream(config.seed, 811);
  sim::GravityParams gravity;
  gravity.total =
      util::Gbps{topology.total_capacity().value * config.demand_load};
  const te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, demand_rng);
  util::Rng snr_rng = util::Rng::stream(config.seed, 812);
  std::vector<util::Db> snr(topology.edge_count(), util::Db{20.0});

  core::ControllerOptions options;
  update::SchedulerConfig update;
  update.headroom = 0.1;
  update.seed = config.seed;
  options.update = update;
  const te::McfTe engine;
  core::DynamicCapacityController controller(
      topology, optical::ModulationTable::standard(), engine, options);
  const dataplane::DataplaneConfig& dp = config.dataplane;
  for (std::size_t r = 0; r < config.rounds; ++r) {
    for (util::Db& db : snr)
      db = util::Db{std::clamp(db.value + snr_rng.uniform(-3.0, 3.0), 8.0,
                               24.0)};
    const std::span<const util::Gbps> configured =
        controller.configured_capacities();
    const std::vector<util::Gbps> before(configured.begin(),
                                         configured.end());
    const core::DynamicCapacityController::RoundReport report =
        controller.run_round(snr, demands);
    const update::UpdateSchedule* schedule =
        report.update.has_value() && report.update_valid ? &*report.update
                                                         : nullptr;
    dataplane::CapacityTimeline timeline = dataplane::build_timeline(
        before, controller.configured_capacities(), schedule,
        dp.ticks_per_round, dp.tick_seconds);
    if (r == config.downshift_round) {
      const std::vector<double>& load =
          controller.last_assignment().edge_load_gbps;
      const std::size_t busiest = static_cast<std::size_t>(
          std::max_element(load.begin(), load.end()) - load.begin());
      timeline.add_event(
          busiest, static_cast<std::uint32_t>(dp.ticks_per_round * 5 / 8),
          timeline.capacity_gbps(busiest, dp.ticks_per_round - 1) *
              config.downshift_factor);
    }
    visit(r, topology, controller.last_assignment(), timeline);
  }
}

void expect_same_state(const dataplane::DataplaneSim& sim,
                       const FlowletReference& reference,
                       const std::string& where) {
  EXPECT_EQ(sim.state_signature(), reference.state_signature()) << where;
  EXPECT_TRUE(sim.save_state() == reference.save_state())
      << where << ": save_state bytes differ";
}

/// Runs the class kernel and the reference on `config`'s xcheck inputs.
/// Before round `handoff` (if set) each kernel is rebuilt from the other's
/// payload, so a checkpoint written by either restores into either.
/// Returns the class kernel's per-round signatures.
std::vector<std::uint64_t> compare_on_xcheck_inputs(
    const dataplane::XcheckConfig& config,
    std::optional<std::size_t> handoff = std::nullopt) {
  std::vector<std::uint64_t> signatures;
  std::unique_ptr<dataplane::DataplaneSim> sim;
  std::unique_ptr<FlowletReference> reference;
  for_each_xcheck_input(config, [&](std::size_t r,
                                    const graph::Graph& topology,
                                    const te::FlowAssignment& assignment,
                                    const dataplane::CapacityTimeline&
                                        timeline) {
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
    const dataplane::RoundResult got = sim->run_round(assignment, timeline);
    const dataplane::RoundResult want =
        reference->run_round(assignment, timeline);
    EXPECT_EQ(first_difference(got, want), "") << "round " << r;
    expect_same_state(*sim, *reference, "after round " + std::to_string(r));
    signatures.push_back(got.signature);
  });
  return signatures;
}

/// The golden input `config` (under `plan` when set): the replay above
/// reproduces run_xcheck's rounds, the two kernels agree on every one,
/// and they keep agreeing after a checkpoint crosses between them.
void check_golden_input(const dataplane::XcheckConfig& config,
                        const char* plan = nullptr) {
  std::optional<fault::ScopedPlan> armed;
  if (plan != nullptr) armed.emplace(fault::FaultPlan::parse(plan));
  const dataplane::XcheckOutcome outcome = dataplane::run_xcheck(config);
  const std::vector<std::uint64_t> signatures =
      compare_on_xcheck_inputs(config);
  ASSERT_EQ(signatures.size(), outcome.rounds.size());
  for (std::size_t r = 0; r < signatures.size(); ++r)
    EXPECT_EQ(signatures[r], outcome.rounds[r].signature)
        << "round " << r << " is not the golden input's";
  for (const std::size_t handoff : {std::size_t{1}, config.rounds / 2 + 1})
    EXPECT_EQ(compare_on_xcheck_inputs(config, handoff), signatures)
        << "checkpoint handed over before round " << handoff;
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
