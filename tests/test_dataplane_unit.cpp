// Unit tests of the dataplane building blocks (rwc::dataplane,
// docs/DATAPLANE.md): WCMP rendezvous hashing (split proportions, the
// minimal-migration property, degenerate weights), the capacity-timeline
// builder (no-op rounds, synthetic transient windows, schedule windows
// with drain limits, manual downshift events) and the Hanauer-style
// demand-aware workload generator (totals, elephant structure,
// determinism, rotation).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bvt/latency.hpp"
#include "dataplane/timeline.hpp"
#include "dataplane/wcmp.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "update/schedule.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using dataplane::CapacityTimeline;
using dataplane::build_timeline;
using dataplane::flowlet_key;
using dataplane::path_identity;
using dataplane::wcmp_pick;

std::vector<std::uint64_t> identities(std::size_t n) {
  std::vector<std::uint64_t> ids;
  for (std::size_t p = 0; p < n; ++p) {
    const graph::EdgeId edge{static_cast<std::int32_t>(100 + p)};
    ids.push_back(path_identity(std::span<const graph::EdgeId>(&edge, 1)));
  }
  return ids;
}

TEST(Wcmp, SplitsProportionallyToWeights) {
  const std::vector<double> weights = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> ids = identities(weights.size());
  constexpr std::size_t kKeys = 8192;
  std::vector<std::size_t> hits(weights.size(), 0);
  for (std::size_t k = 0; k < kKeys; ++k)
    ++hits[wcmp_pick(flowlet_key(7, static_cast<std::uint32_t>(k), 1),
                     weights, ids)];
  for (std::size_t p = 0; p < weights.size(); ++p) {
    const double expected = weights[p] / 7.0;
    const double got = static_cast<double>(hits[p]) / kKeys;
    EXPECT_NEAR(got, expected, 0.03)
        << "path " << p << " expected share " << expected;
  }
}

TEST(Wcmp, IsDeterministic) {
  const std::vector<double> weights = {3.0, 1.0, 2.0};
  const std::vector<std::uint64_t> ids = identities(weights.size());
  for (std::uint32_t k = 0; k < 64; ++k) {
    const std::uint64_t key = flowlet_key(3, k, 42);
    EXPECT_EQ(wcmp_pick(key, weights, ids), wcmp_pick(key, weights, ids));
  }
}

// Rendezvous property: adding a path can only move flowlets ONTO the new
// path — every other flowlet keeps its pick (per-path scores of the
// incumbents are unchanged).
TEST(Wcmp, AddingAPathOnlyMovesFlowletsOntoIt) {
  const std::vector<double> base_weights = {1.0, 1.0, 1.0};
  const std::vector<std::uint64_t> base_ids = identities(3);
  std::vector<double> grown_weights = base_weights;
  grown_weights.push_back(1.0);
  const std::vector<std::uint64_t> grown_ids = identities(4);

  std::size_t moved = 0;
  constexpr std::size_t kKeys = 2048;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key = flowlet_key(1, k, 9);
    const std::size_t before = wcmp_pick(key, base_weights, base_ids);
    const std::size_t after = wcmp_pick(key, grown_weights, grown_ids);
    if (after != before) {
      EXPECT_EQ(after, 3u) << "flowlet " << k
                           << " moved between incumbent paths";
      ++moved;
    }
  }
  // The new equal-weight path should attract roughly a quarter.
  EXPECT_GT(moved, kKeys / 8);
  EXPECT_LT(moved, kKeys / 2);
}

// Growing one path's weight can only move flowlets onto THAT path.
TEST(Wcmp, GrowingAWeightOnlyAttractsFlowlets) {
  const std::vector<std::uint64_t> ids = identities(3);
  const std::vector<double> before_weights = {1.0, 1.0, 1.0};
  const std::vector<double> after_weights = {1.0, 3.0, 1.0};
  for (std::uint32_t k = 0; k < 2048; ++k) {
    const std::uint64_t key = flowlet_key(2, k, 5);
    const std::size_t before = wcmp_pick(key, before_weights, ids);
    const std::size_t after = wcmp_pick(key, after_weights, ids);
    if (after != before) {
      EXPECT_EQ(after, 1u);
    }
  }
}

TEST(Wcmp, DegenerateWeightsFallBackToFirstPath) {
  const std::vector<std::uint64_t> ids = identities(2);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(wcmp_pick(flowlet_key(0, 0, 1), zero, ids), 0u);
  // A zero-weight path is never picked while a positive one exists.
  const std::vector<double> mixed = {0.0, 1.0};
  for (std::uint32_t k = 0; k < 256; ++k)
    EXPECT_EQ(wcmp_pick(flowlet_key(0, k, 1), mixed, ids), 1u);
}

TEST(Wcmp, PathIdentityDependsOnEdgeSequence) {
  const graph::EdgeId ab[] = {graph::EdgeId{1}, graph::EdgeId{2}};
  const graph::EdgeId ba[] = {graph::EdgeId{2}, graph::EdgeId{1}};
  EXPECT_NE(path_identity(ab), path_identity(ba));
  EXPECT_EQ(path_identity(ab), path_identity(ab));
}

TEST(Timeline, UnchangedCapacitiesYieldNoWindows) {
  const std::vector<util::Gbps> caps = {util::Gbps{100.0}, util::Gbps{200.0}};
  const CapacityTimeline timeline =
      build_timeline(caps, caps, nullptr, 64, 0.005);
  EXPECT_TRUE(timeline.windows.empty());
  EXPECT_EQ(timeline.last_window_end(), 0u);
  for (std::size_t tick : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
    EXPECT_EQ(timeline.capacity_gbps(0, tick), 100.0);
    EXPECT_EQ(timeline.capacity_gbps(1, tick), 200.0);
    EXPECT_FALSE(timeline.in_window(tick));
  }
}

TEST(Timeline, UnscheduledChangeJumpsAtTickZeroWithTransientWindow) {
  const std::vector<util::Gbps> before = {util::Gbps{100.0}};
  const std::vector<util::Gbps> after = {util::Gbps{150.0}};
  const CapacityTimeline timeline =
      build_timeline(before, after, nullptr, 64, 0.005);
  EXPECT_EQ(timeline.capacity_gbps(0, 0), 150.0);
  ASSERT_EQ(timeline.windows.size(), 1u);
  EXPECT_TRUE(timeline.in_window(0));
  EXPECT_TRUE(timeline.in_window(7));
  EXPECT_FALSE(timeline.in_window(8));
  EXPECT_EQ(timeline.last_window_end(), 8u);
}

TEST(Timeline, ScheduleWindowsCarryDrainLimitsThenTargets) {
  const std::vector<util::Gbps> before = {util::Gbps{100.0},
                                          util::Gbps{200.0}};
  const std::vector<util::Gbps> after = {util::Gbps{50.0}, util::Gbps{200.0}};
  update::UpdateSchedule schedule;
  schedule.feasible = true;
  schedule.procedure = bvt::Procedure::kStandard;
  update::UpdateRound round;
  round.duration_seconds = 0.035;
  update::Move move;
  move.kind = update::Move::Kind::kReconfig;
  move.edge = graph::EdgeId{0};
  move.from = util::Gbps{100.0};
  move.to = util::Gbps{50.0};
  round.moves.push_back(move);
  schedule.rounds.push_back(round);

  const CapacityTimeline timeline =
      build_timeline(before, after, &schedule, 64, 0.005);
  ASSERT_FALSE(timeline.windows.empty());
  const std::uint32_t end = timeline.last_window_end();
  ASSERT_GT(end, 0u);
  // kStandard darkens the link for its window, then lands on the target.
  EXPECT_EQ(timeline.capacity_gbps(0, 0), 0.0);
  EXPECT_EQ(timeline.capacity_gbps(0, end), 50.0);
  EXPECT_EQ(timeline.capacity_gbps(0, 63), 50.0);
  // The untouched edge holds its capacity throughout.
  EXPECT_EQ(timeline.capacity_gbps(1, 0), 200.0);
  EXPECT_EQ(timeline.capacity_gbps(1, 63), 200.0);
}

TEST(Timeline, AddEventOverridesAndInserts) {
  const std::vector<util::Gbps> caps = {util::Gbps{100.0}};
  CapacityTimeline timeline = build_timeline(caps, caps, nullptr, 64, 0.005);
  timeline.add_event(0, 32, 25.0);
  EXPECT_EQ(timeline.capacity_gbps(0, 31), 100.0);
  EXPECT_EQ(timeline.capacity_gbps(0, 32), 25.0);
  EXPECT_EQ(timeline.capacity_gbps(0, 63), 25.0);
  timeline.add_event(0, 32, 75.0);  // same tick overwrites
  EXPECT_EQ(timeline.capacity_gbps(0, 32), 75.0);
}

struct WorkloadFixture {
  graph::Graph topology;

  WorkloadFixture() {
    util::Rng rng = util::Rng::stream(7, 0);
    topology = sim::waxman(8, rng);
  }
};

TEST(DemandAwareWorkload, ConservesTotalAndKeepsAllSlots) {
  WorkloadFixture fixture;
  sim::DemandAwareParams params;
  params.total = util::Gbps{1000.0};
  util::Rng rng = util::Rng::stream(7, 1);
  const te::TrafficMatrix demands =
      sim::demand_aware_matrix(fixture.topology, params, rng);
  const std::size_t n = fixture.topology.node_count();
  EXPECT_EQ(demands.size(), n * (n - 1));  // zero-volume ODs kept
  double total = 0.0;
  for (const te::Demand& demand : demands) {
    EXPECT_GE(demand.volume.value, 0.0);
    total += demand.volume.value;
  }
  EXPECT_NEAR(total, 1000.0, 1e-6);
}

TEST(DemandAwareWorkload, ElephantsCarryTheConfiguredShare) {
  WorkloadFixture fixture;
  sim::DemandAwareParams params;
  params.total = util::Gbps{1000.0};
  params.elephants = 6;
  params.elephant_share = 0.7;
  util::Rng rng = util::Rng::stream(7, 2);
  te::TrafficMatrix demands =
      sim::demand_aware_matrix(fixture.topology, params, rng);
  std::vector<double> volumes;
  for (const te::Demand& demand : demands)
    volumes.push_back(demand.volume.value);
  std::sort(volumes.rbegin(), volumes.rend());
  double top = 0.0;
  for (std::size_t k = 0; k < params.elephants; ++k) top += volumes[k];
  EXPECT_NEAR(top, 700.0, 1e-6);
  // Zipf skew: the heaviest elephant strictly dominates the lightest.
  EXPECT_GT(volumes[0], volumes[params.elephants - 1]);
}

TEST(DemandAwareWorkload, IsDeterministicInTheSeed) {
  WorkloadFixture fixture;
  sim::DemandAwareParams params;
  util::Rng rng_a = util::Rng::stream(7, 3);
  util::Rng rng_b = util::Rng::stream(7, 3);
  const te::TrafficMatrix a =
      sim::demand_aware_matrix(fixture.topology, params, rng_a);
  const te::TrafficMatrix b =
      sim::demand_aware_matrix(fixture.topology, params, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k)
    EXPECT_EQ(a[k].volume.value, b[k].volume.value);
}

TEST(DemandAwareWorkload, RotationPermutesVolumesKeepingSlots) {
  WorkloadFixture fixture;
  sim::DemandAwareParams params;
  util::Rng rng = util::Rng::stream(7, 4);
  const te::TrafficMatrix base =
      sim::demand_aware_matrix(fixture.topology, params, rng);
  const te::TrafficMatrix rotated = sim::rotate_elephants(base, 3, 2);
  ASSERT_EQ(rotated.size(), base.size());
  std::multiset<double> base_volumes, rotated_volumes;
  for (std::size_t k = 0; k < base.size(); ++k) {
    // OD endpoints (the slot order) are untouched; volumes permute.
    EXPECT_EQ(rotated[k].src.value, base[k].src.value);
    EXPECT_EQ(rotated[k].dst.value, base[k].dst.value);
    base_volumes.insert(base[k].volume.value);
    rotated_volumes.insert(rotated[k].volume.value);
  }
  EXPECT_EQ(base_volumes, rotated_volumes);
  EXPECT_EQ(rotated[(0 + 3 * 2) % base.size()].volume.value,
            base[0].volume.value);
  // Epoch 0 is the identity.
  const te::TrafficMatrix same = sim::rotate_elephants(base, 0, 2);
  for (std::size_t k = 0; k < base.size(); ++k)
    EXPECT_EQ(same[k].volume.value, base[k].volume.value);
}

}  // namespace
}  // namespace rwc
