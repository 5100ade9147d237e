// rwc::fault end-to-end: registry semantics plus every compiled-in site's
// error path (docs/FAULTS.md). The BVT abort-mid-laser-transition and
// corrupted-telemetry cases are the error paths the example-based suites
// could not previously reach.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bvt/device.hpp"
#include "bvt/registers.hpp"
#include "core/controller.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/snr_model.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using util::Db;
using util::Gbps;

TEST(FaultRegistry, DisarmedSitesReturnNoFault) {
  ASSERT_FALSE(fault::Registry::global().armed());
  EXPECT_FALSE(fault::next("bvt.reconfig"));
  EXPECT_FALSE(fault::at("flow.mincost", 12345));
}

TEST(FaultRegistry, OneShotAndPeriodicMatching) {
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "bvt.reconfig@2:fail;core.snr%3@1:nan");
  fault::ScopedPlan armed(plan);
  // Serial site: hits 0 and 1 clean, hit 2 fires, hit 3 clean again.
  EXPECT_FALSE(fault::next("bvt.reconfig"));
  EXPECT_FALSE(fault::next("bvt.reconfig"));
  EXPECT_EQ(fault::next("bvt.reconfig").kind, fault::Kind::kFail);
  EXPECT_FALSE(fault::next("bvt.reconfig"));
  // Parallel site: fires whenever key % 3 == 1, for any key.
  EXPECT_FALSE(fault::at("core.snr", 0));
  EXPECT_EQ(fault::at("core.snr", 1).kind, fault::Kind::kNan);
  EXPECT_EQ(fault::at("core.snr", 7).kind, fault::Kind::kNan);
  EXPECT_FALSE(fault::at("core.snr", 9));
  // Bookkeeping: evaluations and injections per site.
  EXPECT_EQ(fault::Registry::global().evaluations("bvt.reconfig"), 4u);
  EXPECT_EQ(fault::Registry::global().injected("bvt.reconfig"), 1u);
  EXPECT_EQ(fault::Registry::global().injected("core.snr"), 2u);
}

TEST(FaultRegistry, RearmingResetsHitCounters) {
  fault::FaultPlan plan = fault::FaultPlan::parse("site.x@0:fail");
  {
    fault::ScopedPlan armed(plan);
    EXPECT_TRUE(fault::next("site.x"));
    EXPECT_FALSE(fault::next("site.x"));
  }
  EXPECT_FALSE(fault::Registry::global().armed());
  {
    fault::ScopedPlan rearmed(plan);
    // Same plan, fresh counters: the one-shot fires again.
    EXPECT_TRUE(fault::next("site.x"));
    EXPECT_EQ(fault::Registry::global().armed_spec(), "site.x@0:fail");
  }
}

TEST(FaultBvt, AbortMidLaserTransitionLeavesLaserOffAndNothingApplied) {
  bvt::BvtDevice device(optical::ModulationTable::standard(), 7);
  device.set_link_snr(Db{18.0});
  device.power_on();
  ASSERT_TRUE(device.carrier_locked());
  const std::uint16_t active_before =
      device.mdio_read(bvt::Register::kModulationActive);

  fault::ScopedPlan armed(fault::FaultPlan::parse("bvt.reconfig@0:fail"));
  const auto report =
      device.change_modulation(Gbps{200.0}, bvt::Procedure::kStandard);
  EXPECT_FALSE(report.success);
  // Laser died mid-transition: off, unlocked, faulted, and the target
  // modulation was never applied.
  const std::uint16_t status = device.mdio_read(bvt::Register::kStatus);
  EXPECT_EQ(status & bvt::status::kLaserOn, 0);
  EXPECT_EQ(status & bvt::status::kCarrierLocked, 0);
  EXPECT_EQ(device.mdio_read(bvt::Register::kModulationActive),
            active_before);
  EXPECT_EQ(device.active_capacity(), Gbps{0.0});

  // Recovery path: the next (clean) attempt relights the laser and applies.
  const auto retry =
      device.change_modulation(Gbps{200.0}, bvt::Procedure::kStandard);
  EXPECT_TRUE(retry.success);
  EXPECT_EQ(device.active_capacity(), Gbps{200.0});
}

TEST(FaultBvt, StaleCompletionKeepsOldConstellationActive) {
  bvt::BvtDevice device(optical::ModulationTable::standard(), 7);
  device.set_link_snr(Db{18.0});
  device.power_on();
  const std::uint32_t reconfigs_before = device.reconfig_count();

  fault::ScopedPlan armed(fault::FaultPlan::parse("bvt.reconfig@0:stale"));
  const auto report =
      device.change_modulation(Gbps{200.0}, bvt::Procedure::kEfficient);
  // The DSP acked but nothing took: old rate still active, no apply
  // counted, and the driver-visible "success" reflects the stale lock.
  EXPECT_EQ(device.active_capacity(), Gbps{100.0});
  EXPECT_EQ(device.reconfig_count(), reconfigs_before);
  EXPECT_TRUE(report.success);  // carrier still locked on the OLD format
  EXPECT_EQ(report.to, Gbps{200.0});
}

TEST(FaultBvt, StallAddsExtraDowntime) {
  const auto run_once = [](bool stalled) {
    bvt::BvtDevice device(optical::ModulationTable::standard(), 7);
    device.set_link_snr(Db{18.0});
    device.power_on();
    std::unique_ptr<fault::ScopedPlan> armed;
    if (stalled)
      armed = std::make_unique<fault::ScopedPlan>(
          fault::FaultPlan::parse("bvt.reconfig@0:stall=30"));
    return device
        .change_modulation(Gbps{200.0}, bvt::Procedure::kEfficient)
        .downtime;
  };
  // Identical seed and RNG consumption: the stalled run is exactly the
  // clean downtime plus the injected 30 s.
  EXPECT_DOUBLE_EQ(run_once(true), run_once(false) + 30.0);
}

TEST(FaultTelemetry, CorruptedSamplesAreSanitizedAndCounted) {
  telemetry::SnrFleetGenerator::FleetParams params;
  params.fiber_count = 1;
  params.wavelengths_per_fiber = 2;
  params.duration = 10.0 * util::kDay;
  telemetry::SnrFleetGenerator fleet(params, 11);
  const optical::ModulationTable table = optical::ModulationTable::standard();
  const auto clean = fleet.generate_trace(0);

  fault::ScopedPlan armed(fault::FaultPlan::parse(
      "telemetry.trace%2@0:nan=5;telemetry.trace%2@1:drop=9"));
  // Link 0 (key 0): sample 5 replaced by NaN. Link 1 (key 1): sample 9
  // dropped (arrived too late to use).
  const auto faulted0 = fleet.generate_trace(0);
  ASSERT_EQ(faulted0.size(), clean.size());
  EXPECT_TRUE(std::isnan(faulted0.samples_db[5]));
  const auto faulted1 = fleet.generate_trace(1);
  EXPECT_EQ(faulted1.size(), fleet.generate_trace(0).size() - 1);

  // Analysis must degrade, not poison: finite stats, clamp counted.
  static auto& clamped =
      obs::Registry::global().counter("telemetry.samples_clamped");
  const std::uint64_t clamped_before = clamped.value();
  const auto stats = telemetry::analyze_link(faulted0, table);
  EXPECT_TRUE(std::isfinite(stats.range_db));
  EXPECT_TRUE(std::isfinite(stats.hdr_width_db));
  EXPECT_GE(stats.feasible_capacity.value, 0.0);
  EXPECT_GT(clamped.value(), clamped_before);
}

TEST(FaultTelemetry, SanitizeClampsOnlyInvalidSamples) {
  EXPECT_DOUBLE_EQ(telemetry::sanitize_sample_db(13.4), 13.4);
  EXPECT_DOUBLE_EQ(telemetry::sanitize_sample_db(0.0), 0.0);
  EXPECT_DOUBLE_EQ(
      telemetry::sanitize_sample_db(std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::sanitize_sample_db(
                       -std::numeric_limits<double>::infinity()),
                   0.0);
  EXPECT_DOUBLE_EQ(telemetry::sanitize_sample_db(-3.0), 0.0);
}

TEST(FaultController, GarbageSnrFlapsTheLinkInsteadOfThrowing) {
  util::Rng rng = util::Rng::stream(33, 0);
  const graph::Graph g = sim::abilene();
  sim::GravityParams gravity;
  gravity.total = Gbps{g.total_capacity().value / 3.0};
  const auto demands = sim::gravity_matrix(g, gravity, rng);
  const te::McfTe engine;
  core::DynamicCapacityController controller(
      g, optical::ModulationTable::standard(), engine,
      core::ControllerOptions{});
  const std::vector<Db> snr(g.edge_count(), Db{20.0});

  static auto& snr_clamped =
      obs::Registry::global().counter("controller.snr_clamped");
  const std::uint64_t clamped_before = snr_clamped.value();
  // Edge 0 reports NaN, edge 1 garbage: both must clamp to 0 dB and flap
  // the link down (a walk/crawl reduction), never throw or upgrade.
  fault::ScopedPlan armed(
      fault::FaultPlan::parse("core.snr@0:nan;core.snr@1:garbage"));
  const auto report = controller.run_round(snr, demands);
  EXPECT_GE(snr_clamped.value(), clamped_before + 2);
  EXPECT_EQ(controller.configured_capacity(graph::EdgeId{0}), Gbps{0.0});
  EXPECT_EQ(controller.configured_capacity(graph::EdgeId{1}), Gbps{0.0});
  bool edge0_reduced = false;
  for (const auto& flap : report.reductions)
    if (flap.edge == graph::EdgeId{0}) edge0_reduced = true;
  EXPECT_TRUE(edge0_reduced);
}

}  // namespace
}  // namespace rwc
