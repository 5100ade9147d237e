// Dataplane properties under fault injection (tests/prop/,
// docs/DATAPLANE.md §7): whatever a random dataplane.packet /
// dataplane.hash plan does to injection and flowlet placement, (1) the
// byte ledger still conserves exactly (cumulative injected == delivered +
// dropped + in-flight), in total and per OD, per-OD goodput stays finite
// and non-negative, no link buffer ever holds more than its budget, and
// the classes never outnumber the (OD, active path) pairs; (2) a faulted
// run is a pure function of (fixture, plan): re-running the same plan on
// a fresh simulator reproduces every round's state signature
// bit-for-bit; (3) the kernel matches the (OD, path) reference
// (tests/support/path_reference.hpp) bit for bit under the plan.
// Violations report the seed plus the halving-minimized plan spec
// (prop/shrink.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/timeline.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "prop/generators.hpp"
#include "prop/invariants.hpp"
#include "prop/seeds.hpp"
#include "prop/shrink.hpp"
#include "support/path_reference.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

const std::vector<std::uint64_t> kSeeds = prop::sweep_seeds({13, 31, 53});

// Local site profiles: both dataplane sites are parallel (keyed by
// tick * flowlets + flowlet, respectively od * flowlets + flowlet), so
// generated injections use period matching. Kinds mirror what the sites
// honor (docs/FAULTS.md §4): packet-level drop/duplicate/delay at the
// source, and WCMP salt corruption / frozen stale picks at placement.
const std::vector<prop::SiteProfile>& dataplane_sites() {
  static const std::vector<prop::SiteProfile> sites = {
      {"dataplane.packet", false,
       {fault::Kind::kDrop, fault::Kind::kDuplicate, fault::Kind::kDelay}},
      {"dataplane.hash", false,
       {fault::Kind::kGarbage, fault::Kind::kStale}},
  };
  return sites;
}

// One fault-free controller round fixes the installed plan; properties
// then replay it through fresh DataplaneSims under the candidate plan, so
// every property evaluation (including the minimizer's halved plans) sees
// the identical (assignment, timeline) input.
struct DataplaneFixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  te::McfTe engine;
  te::FlowAssignment assignment;
  /// The controller's next plan after the busiest link fades: installing
  /// it after `assignment` migrates flowlets.
  te::FlowAssignment faded;
  dataplane::DataplaneConfig config;
  dataplane::CapacityTimeline timeline;

  explicit DataplaneFixture(std::uint64_t seed) {
    util::Rng rng = util::Rng::stream(seed, 910);
    topology = prop::random_topology(rng);
    demands = prop::random_demands(topology, rng);
    core::DynamicCapacityController controller(
        topology, optical::ModulationTable::standard(), engine, {});
    std::vector<util::Db> snr(topology.edge_count(), util::Db{20.0});
    controller.run_round(snr, demands);
    assignment = controller.last_assignment();
    const std::span<const util::Gbps> configured =
        controller.configured_capacities();
    const std::vector<util::Gbps> caps(configured.begin(), configured.end());
    const std::vector<double>& load = assignment.edge_load_gbps;
    snr[static_cast<std::size_t>(
        std::max_element(load.begin(), load.end()) - load.begin())] =
        util::Db{8.0};
    controller.run_round(snr, demands);
    faded = controller.last_assignment();
    // 64 ticks keeps minimizer re-evaluations cheap; still >= 8 and a
    // power of two (DataplaneConfig contract).
    config.ticks_per_round = 64;
    timeline = dataplane::build_timeline(caps, caps, nullptr,
                                         config.ticks_per_round,
                                         config.tick_seconds);
  }

  /// Per-link buffer budget in quanta (dataplane.cpp: capacity *
  /// buffer_ms, floored at min_buffer_gbps for dark links, in the
  /// simulator's own arithmetic).
  double buffer_budget(std::size_t edge) const {
    const double cap = topology
                           .edge(graph::EdgeId{static_cast<std::int32_t>(
                               static_cast<int>(edge))})
                           .capacity.value;
    return std::max(cap, config.min_buffer_gbps) *
           (config.buffer_ms * 1e6 / 8.0 *
            static_cast<double>(dataplane::kQuantaPerByte));
  }
};

constexpr std::uint64_t kRounds = 2;

prop::InvariantResult invariants_hold(DataplaneFixture& fixture,
                                      const fault::FaultPlan& plan) {
  try {
    dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                                fixture.config);
    fault::ScopedPlan armed(plan);
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      const dataplane::RoundResult result =
          sim.run_round(fixture.assignment, fixture.timeline);
      const std::string at = "round " + std::to_string(round) +
                             " under plan \"" + plan.to_string() + "\": ";
      const std::uint64_t ledger = result.delivered_bytes +
                                   result.dropped_bytes +
                                   result.inflight_bytes;
      if (ledger != result.injected_bytes)
        return prop::InvariantResult::fail(
            at + "byte conservation broken (injected " +
            std::to_string(result.injected_bytes) + " vs accounted " +
            std::to_string(ledger) + ")");
      const dataplane::DataplaneSim::State state = sim.save_state();
      if (const std::string od = dataplane::reference::unbalanced_od(state);
          !od.empty())
        return prop::InvariantResult::fail(at + "per-OD conservation broken: " +
                                           od);
      if (state.classes.size() > dataplane::reference::od_path_pairs(state))
        return prop::InvariantResult::fail(
            at + std::to_string(state.classes.size()) +
            " classes for fewer (OD, path) pairs");
      for (std::size_t od = 0; od < result.od_goodput_gbps.size(); ++od) {
        const double goodput = result.od_goodput_gbps[od];
        if (!std::isfinite(goodput) || goodput < 0.0)
          return prop::InvariantResult::fail(
              at + "od " + std::to_string(od) + " goodput " +
              std::to_string(goodput));
      }
      for (std::size_t e = 0; e < result.links.size(); ++e) {
        const double budget = fixture.buffer_budget(e);
        if (static_cast<double>(result.links[e].max_queued_bytes) > budget)
          return prop::InvariantResult::fail(
              at + "link " + std::to_string(e) + " peaked at " +
              std::to_string(result.links[e].max_queued_bytes) +
              " quanta over its " + std::to_string(budget) +
              "-quantum buffer budget");
      }
    }
    return prop::InvariantResult::pass();
  } catch (const util::CheckError& error) {
    return prop::InvariantResult::fail(std::string("CheckError escaped: ") +
                                       error.what());
  }
}

TEST(PropDataplane, LedgerAndBuffersSurviveRandomFaultPlans) {
  // Vacuity guard: the generated plans must actually fire, otherwise the
  // invariants above were tested against a clean dataplane.
  const std::uint64_t injected_before =
      obs::Registry::global().counter("fault.injected").value();
  for (const std::uint64_t seed : kSeeds) {
    DataplaneFixture fixture(seed);
    util::Rng fault_rng = util::Rng::stream(seed, 911);
    for (int trial = 0; trial < 2; ++trial) {
      const fault::FaultPlan plan =
          prop::random_fault_plan(dataplane_sites(), fault_rng, seed);
      prop::expect_property(seed, plan,
                            [&](const fault::FaultPlan& candidate) {
                              return invariants_hold(fixture, candidate);
                            });
    }
  }
  EXPECT_GT(obs::Registry::global().counter("fault.injected").value(),
            injected_before)
      << "no generated injection ever fired — the property is vacuous";
}

/// Runs the fixture's plan for kRounds on a fresh simulator and returns
/// the per-round state signatures.
std::vector<std::uint64_t> signature_chain(DataplaneFixture& fixture,
                                           const fault::FaultPlan& plan) {
  dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                              fixture.config);
  fault::ScopedPlan armed(plan);
  std::vector<std::uint64_t> signatures;
  for (std::uint64_t round = 0; round < kRounds; ++round)
    signatures.push_back(
        sim.run_round(fixture.assignment, fixture.timeline).signature);
  return signatures;
}

prop::InvariantResult replay_is_bit_identical(DataplaneFixture& fixture,
                                              const fault::FaultPlan& plan) {
  try {
    const std::vector<std::uint64_t> first = signature_chain(fixture, plan);
    const std::vector<std::uint64_t> second = signature_chain(fixture, plan);
    for (std::uint64_t round = 0; round < kRounds; ++round)
      if (first[round] != second[round])
        return prop::InvariantResult::fail(
            "round " + std::to_string(round) +
            " signatures diverged across identical faulted runs under "
            "plan \"" + plan.to_string() + "\"");
    return prop::InvariantResult::pass();
  } catch (const util::CheckError& error) {
    return prop::InvariantResult::fail(std::string("CheckError escaped: ") +
                                       error.what());
  }
}

TEST(PropDataplane, FaultedRunsReplayBitIdentically) {
  const std::uint64_t injected_before =
      obs::Registry::global().counter("fault.injected").value();
  for (const std::uint64_t seed : kSeeds) {
    DataplaneFixture fixture(seed);
    util::Rng fault_rng = util::Rng::stream(seed, 912);
    for (int trial = 0; trial < 2; ++trial) {
      const fault::FaultPlan plan =
          prop::random_fault_plan(dataplane_sites(), fault_rng, seed);
      prop::expect_property(seed, plan,
                            [&](const fault::FaultPlan& candidate) {
                              return replay_is_bit_identical(fixture,
                                                             candidate);
                            });
    }
  }
  EXPECT_GT(obs::Registry::global().counter("fault.injected").value(),
            injected_before)
      << "no generated injection ever fired — the property is vacuous";
}

/// Runs the kernel and the reference side by side under `plan`,
/// installing the fixture's plan, its faded plan and the plan again.
prop::InvariantResult kernels_agree(DataplaneFixture& fixture,
                                    const fault::FaultPlan& plan) {
  try {
    dataplane::DataplaneSim sim(fixture.topology, fixture.demands.size(),
                                fixture.config);
    dataplane::reference::PathReference reference(
        fixture.topology, fixture.demands.size(), fixture.config);
    fault::ScopedPlan armed(plan);
    const te::FlowAssignment* plans[] = {&fixture.assignment, &fixture.faded,
                                         &fixture.assignment};
    for (std::size_t round = 0; round < std::size(plans); ++round) {
      const std::string at = "round " + std::to_string(round) +
                             " under plan \"" + plan.to_string() + "\": ";
      const std::string differs = dataplane::reference::first_difference(
          sim.run_round(*plans[round], fixture.timeline),
          reference.run_round(*plans[round], fixture.timeline));
      if (!differs.empty())
        return prop::InvariantResult::fail(
            at + differs + " differs from the (OD, path) reference");
      if (sim.state_signature() != reference.state_signature() ||
          sim.save_state() != reference.save_state())
        return prop::InvariantResult::fail(
            at + "saved state differs from the (OD, path) reference");
    }
    return prop::InvariantResult::pass();
  } catch (const util::CheckError& error) {
    return prop::InvariantResult::fail(std::string("CheckError escaped: ") +
                                       error.what());
  }
}

TEST(PropDataplane, ClassKernelMatchesTheReferenceUnderRandomFaultPlans) {
  const std::uint64_t injected_before =
      obs::Registry::global().counter("fault.injected").value();
  for (const std::uint64_t seed : kSeeds) {
    DataplaneFixture fixture(seed);
    util::Rng fault_rng = util::Rng::stream(seed, 913);
    for (int trial = 0; trial < 2; ++trial) {
      const fault::FaultPlan plan =
          prop::random_fault_plan(dataplane_sites(), fault_rng, seed);
      prop::expect_property(seed, plan,
                            [&](const fault::FaultPlan& candidate) {
                              return kernels_agree(fixture, candidate);
                            });
    }
  }
  EXPECT_GT(obs::Registry::global().counter("fault.injected").value(),
            injected_before)
      << "no generated injection ever fired — the property is vacuous";
}

}  // namespace
}  // namespace rwc
