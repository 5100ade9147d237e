// Unit + mutation coverage for the consistent-update scheduler
// (src/update/, docs/UPDATE.md): wave construction (removals -> reconfigs
// -> adds), forced churn around laser-cycling reconfigs, the augmentation
// (headroom) knob, the static overload floor, and the commit/rollback
// executor with its update.commit / update.rollback fault sites. The
// mutation checks prove every validate_schedule clause can actually fire
// — a validator that cannot reject anything proves nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "graph/graph.hpp"
#include "obs/registry.hpp"
#include "te/demand.hpp"
#include "update/executor.hpp"
#include "update/schedule.hpp"
#include "util/units.hpp"

namespace rwc::update {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Gbps;

/// Diamond WAN: A->B->D (edges 0,1) and A->C->D (edges 2,3), 100 G each.
graph::Graph diamond() {
  graph::Graph g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  const NodeId d = g.add_node("D");
  g.add_edge(a, b, Gbps{100.0});
  g.add_edge(b, d, Gbps{100.0});
  g.add_edge(a, c, Gbps{100.0});
  g.add_edge(c, d, Gbps{100.0});
  return g;
}

graph::Path path_of(const graph::Graph& g, std::vector<int> edges) {
  graph::Path path;
  for (int e : edges) {
    path.edges.push_back(EdgeId{e});
    path.weight += g.edge(EdgeId{e}).weight;
  }
  return path;
}

/// A->D demands: demand 0 split `top0`/`bottom0` over A-B-D / A-C-D,
/// demand 1 (when non-zero) split `top1`/`bottom1`.
te::FlowAssignment split_assignment(const graph::Graph& g, double top0,
                                    double bottom0, double top1 = 0.0,
                                    double bottom1 = 0.0) {
  te::FlowAssignment assignment;
  const auto add_demand = [&](double top, double bottom) {
    te::FlowAssignment::DemandRouting routing;
    routing.demand = te::Demand{NodeId{0}, NodeId{3}, Gbps{top + bottom}, 0};
    if (top > 0.0) routing.paths.emplace_back(path_of(g, {0, 1}), Gbps{top});
    if (bottom > 0.0)
      routing.paths.emplace_back(path_of(g, {2, 3}), Gbps{bottom});
    routing.routed = Gbps{top + bottom};
    assignment.routings.push_back(std::move(routing));
  };
  add_demand(top0, bottom0);
  if (top1 > 0.0 || bottom1 > 0.0) add_demand(top1, bottom1);
  te::finalize_assignment(g, assignment);
  return assignment;
}

std::vector<Gbps> uniform_capacity(std::size_t edges, double gbps) {
  return std::vector<Gbps>(edges, Gbps{gbps});
}

/// Canonical rendering of a schedule's moves — the cheap equality oracle
/// for determinism checks.
std::string describe(const UpdateSchedule& schedule) {
  std::ostringstream os;
  os.precision(17);
  os << schedule.rounds.size() << "|" << schedule.makespan_seconds << "|"
     << schedule.feasible;
  for (const UpdateRound& round : schedule.rounds) {
    os << ";" << round.duration_seconds << ":";
    for (const Move& move : round.moves) {
      os << static_cast<int>(move.kind) << "," << move.demand_index << ","
         << move.volume.value << "," << move.edge.value << ","
         << move.from.value << "," << move.to.value << ","
         << move.duration_seconds << ",[";
      for (EdgeId e : move.edges) os << e.value << " ";
      os << "]";
    }
  }
  return os.str();
}

SchedulerConfig efficient_config() {
  SchedulerConfig config;
  config.procedure = bvt::Procedure::kEfficient;
  config.sampled_durations = false;  // deterministic expected downtimes
  return config;
}

TEST(UpdateSchedule, IdentityTransitionIsEmpty) {
  const graph::Graph g = diamond();
  const auto caps = uniform_capacity(4, 100.0);
  const auto assignment = split_assignment(g, 60.0, 0.0);
  const UpdateSchedule schedule =
      plan_schedule(g, caps, caps, assignment, assignment, efficient_config());
  EXPECT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.rounds.size(), 0u);
  EXPECT_EQ(schedule.route_moves, 0u);
  EXPECT_EQ(schedule.reconfigs, 0u);
  EXPECT_DOUBLE_EQ(schedule.makespan_seconds, 0.0);
  std::string violation;
  EXPECT_TRUE(validate_schedule(g, schedule, caps, assignment, &violation))
      << violation;
}

TEST(UpdateSchedule, PathSwapSerializesRemovalsBeforeAdds) {
  // Two 60 G demands trade paths. Batching the adds with the removals
  // would put a worst-case 120 G on each 100 G link, so at zero headroom
  // the wave construction must spend round 1 on removals and round 2 on
  // additions.
  const graph::Graph g = diamond();
  const auto caps = uniform_capacity(4, 100.0);
  const auto before = split_assignment(g, 60.0, 0.0, 0.0, 60.0);
  const auto after = split_assignment(g, 0.0, 60.0, 60.0, 0.0);
  const UpdateSchedule schedule =
      plan_schedule(g, caps, caps, before, after, efficient_config());
  ASSERT_TRUE(schedule.feasible);
  ASSERT_EQ(schedule.rounds.size(), 2u);
  ASSERT_EQ(schedule.rounds[0].moves.size(), 2u);
  ASSERT_EQ(schedule.rounds[1].moves.size(), 2u);
  for (const Move& move : schedule.rounds[0].moves)
    EXPECT_EQ(move.kind, Move::Kind::kRouteRemove);
  for (const Move& move : schedule.rounds[1].moves)
    EXPECT_EQ(move.kind, Move::Kind::kRouteAdd);
  EXPECT_EQ(schedule.route_moves, 4u);
  std::string violation;
  EXPECT_TRUE(validate_schedule(g, schedule, caps, after, &violation))
      << violation;
}

TEST(UpdateSchedule, HeadroomStrictlyShortensTheSwap) {
  // The augmentation-speed tradeoff in miniature: the swap's worst case is
  // 120 G per link, so 25% augmentation (limit 125 G) lets the adds ride
  // with the removals in a single round.
  const graph::Graph g = diamond();
  const auto caps = uniform_capacity(4, 100.0);
  const auto before = split_assignment(g, 60.0, 0.0, 0.0, 60.0);
  const auto after = split_assignment(g, 0.0, 60.0, 60.0, 0.0);
  SchedulerConfig tight = efficient_config();
  tight.headroom = 0.0;
  SchedulerConfig augmented = efficient_config();
  augmented.headroom = 0.25;
  const UpdateSchedule slow =
      plan_schedule(g, caps, caps, before, after, tight);
  const UpdateSchedule fast =
      plan_schedule(g, caps, caps, before, after, augmented);
  ASSERT_TRUE(slow.feasible);
  ASSERT_TRUE(fast.feasible);
  EXPECT_EQ(slow.rounds.size(), 2u);
  EXPECT_EQ(fast.rounds.size(), 1u);
  EXPECT_LT(fast.makespan_seconds, slow.makespan_seconds);
  std::string violation;
  EXPECT_TRUE(validate_schedule(g, slow, caps, after, &violation))
      << violation;
  EXPECT_TRUE(validate_schedule(g, fast, caps, after, &violation))
      << violation;
}

TEST(UpdateSchedule, LaserCyclingUpgradeForcesChurn) {
  // Upgrading A-B from 100 to 200 G with the standard procedure darkens
  // the link: the 50 G that stays on A-B-D must churn off, wait out the
  // reconfig, and come back — remove / reconfig / re-add, three rounds.
  const graph::Graph g = diamond();
  const auto before_caps = uniform_capacity(4, 100.0);
  auto after_caps = before_caps;
  after_caps[0] = Gbps{200.0};
  const auto assignment = split_assignment(g, 50.0, 30.0);
  SchedulerConfig config = efficient_config();
  config.procedure = bvt::Procedure::kStandard;
  const UpdateSchedule schedule = plan_schedule(
      g, before_caps, after_caps, assignment, assignment, config);
  ASSERT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.forced_churn, 1u);
  EXPECT_EQ(schedule.reconfigs, 1u);
  ASSERT_EQ(schedule.rounds.size(), 3u);
  EXPECT_EQ(schedule.rounds[0].moves[0].kind, Move::Kind::kRouteRemove);
  EXPECT_EQ(schedule.rounds[1].moves[0].kind, Move::Kind::kReconfig);
  EXPECT_EQ(schedule.rounds[2].moves[0].kind, Move::Kind::kRouteAdd);
  // The reconfig round is the expensive one: full laser-cycle downtime.
  EXPECT_GT(schedule.rounds[1].duration_seconds, 60.0);
  std::string violation;
  EXPECT_TRUE(
      validate_schedule(g, schedule, after_caps, assignment, &violation))
      << violation;
}

TEST(UpdateSchedule, HitlessUpgradeNeedsNoChurn) {
  // The efficient procedure keeps the laser on: 50 G kept traffic is below
  // min(100, 200) so the upgrade batches into round 1, nothing moves.
  const graph::Graph g = diamond();
  const auto before_caps = uniform_capacity(4, 100.0);
  auto after_caps = before_caps;
  after_caps[0] = Gbps{200.0};
  const auto assignment = split_assignment(g, 50.0, 30.0);
  const UpdateSchedule schedule =
      plan_schedule(g, before_caps, after_caps, assignment, assignment,
                    efficient_config());
  ASSERT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.forced_churn, 0u);
  EXPECT_EQ(schedule.route_moves, 0u);
  ASSERT_EQ(schedule.rounds.size(), 1u);
  EXPECT_EQ(schedule.rounds[0].moves[0].kind, Move::Kind::kReconfig);
  EXPECT_LT(schedule.makespan_seconds, 1.0);  // ~35 ms, not ~68 s
  std::string violation;
  EXPECT_TRUE(
      validate_schedule(g, schedule, after_caps, assignment, &violation))
      << violation;
}

TEST(UpdateSchedule, PreExistingOverloadRidesTheFloorButNeverGrows) {
  // An SNR flap dropped A-B to 40 G under 60 G of live traffic: the
  // schedule starts over-subscribed (floor), drains toward the target,
  // and validate accepts it — the floor excuses old load, not new.
  const graph::Graph g = diamond();
  auto before_caps = uniform_capacity(4, 100.0);
  before_caps[0] = Gbps{40.0};
  const auto before = split_assignment(g, 60.0, 0.0);
  const auto after = split_assignment(g, 30.0, 30.0);
  const UpdateSchedule schedule = plan_schedule(
      g, before_caps, before_caps, before, after, efficient_config());
  ASSERT_TRUE(schedule.feasible);
  EXPECT_GT(schedule.overload_floor_gbps[0], 0.0);
  std::string violation;
  EXPECT_TRUE(
      validate_schedule(g, schedule, before_caps, after, &violation))
      << violation;
}

TEST(UpdateSchedule, PlanningIsDeterministic) {
  const graph::Graph g = diamond();
  const auto before_caps = uniform_capacity(4, 100.0);
  auto after_caps = before_caps;
  after_caps[1] = Gbps{200.0};
  const auto before = split_assignment(g, 60.0, 20.0);
  const auto after = split_assignment(g, 20.0, 60.0);
  SchedulerConfig config;  // sampled durations on — the RNG path
  config.seed = 77;
  const UpdateSchedule one =
      plan_schedule(g, before_caps, after_caps, before, after, config);
  const UpdateSchedule two =
      plan_schedule(g, before_caps, after_caps, before, after, config);
  EXPECT_EQ(describe(one), describe(two));
  EXPECT_EQ(one.makespan_seconds, two.makespan_seconds);  // bitwise
  EXPECT_TRUE(one.initial == two.initial);
}

TEST(UpdateSchedule, InfeasibleTargetIsFlaggedNotLooped) {
  // Target load exceeds the target capacity outright: no valid wave order
  // exists, so the planner must bail out with feasible=false (and
  // validate must reject the result), not spin to max_rounds.
  const graph::Graph g = diamond();
  const auto before_caps = uniform_capacity(4, 100.0);
  auto after_caps = before_caps;
  after_caps[2] = Gbps{20.0};  // A-C shrinks below the target's 60 G
  after_caps[3] = Gbps{20.0};
  const auto before = split_assignment(g, 60.0, 0.0);
  const auto after = split_assignment(g, 0.0, 60.0);
  const UpdateSchedule schedule = plan_schedule(
      g, before_caps, after_caps, before, after, efficient_config());
  EXPECT_FALSE(schedule.feasible);
  std::string violation;
  EXPECT_FALSE(
      validate_schedule(g, schedule, after_caps, after, &violation));
  EXPECT_FALSE(violation.empty());
}

// core/translate.cpp may list one physical path twice for an OD (once per
// real and fake edge it projects from). The route table keys (demand,
// path), so the listing must plan, validate and execute exactly as the
// same routing with the duplicate merged.
TEST(UpdateSchedule, APathListedTwiceIsOneRoute) {
  const graph::Graph g = diamond();
  const auto before_caps = uniform_capacity(4, 100.0);
  auto after_caps = before_caps;
  after_caps[1] = Gbps{200.0};
  const auto routing = [&](std::vector<std::pair<std::vector<int>, double>>
                               paths) {
    te::FlowAssignment assignment;
    te::FlowAssignment::DemandRouting demand;
    double total = 0.0;
    for (const auto& [edges, volume] : paths) {
      demand.paths.emplace_back(path_of(g, edges), Gbps{volume});
      total += volume;
    }
    demand.demand = te::Demand{NodeId{0}, NodeId{3}, Gbps{total}, 0};
    demand.routed = Gbps{total};
    assignment.routings.push_back(std::move(demand));
    te::finalize_assignment(g, assignment);
    return assignment;
  };
  const auto before_listed = routing({{{0, 1}, 25.0}, {{0, 1}, 35.0}});
  const auto before_merged = routing({{{0, 1}, 60.0}});
  const auto after_listed =
      routing({{{0, 1}, 20.0}, {{2, 3}, 30.0}, {{0, 1}, 10.0}});
  const auto after_merged = routing({{{0, 1}, 30.0}, {{2, 3}, 30.0}});

  SchedulerConfig config = efficient_config();
  config.procedure = bvt::Procedure::kStandard;  // churns edge 1's traffic
  const UpdateSchedule listed = plan_schedule(
      g, before_caps, after_caps, before_listed, after_listed, config);
  const UpdateSchedule merged = plan_schedule(
      g, before_caps, after_caps, before_merged, after_merged, config);
  ASSERT_TRUE(merged.feasible);
  ASSERT_GT(merged.route_moves, 0u);
  EXPECT_EQ(describe(listed), describe(merged));
  EXPECT_TRUE(listed.initial == merged.initial);
  EXPECT_EQ(listed.forced_churn, merged.forced_churn);
  EXPECT_EQ(listed.initial.routes.size(), 1u);

  // Either listing of the target is the same terminal state.
  std::string violation;
  for (const te::FlowAssignment* target : {&after_listed, &after_merged}) {
    EXPECT_TRUE(validate_schedule(g, listed, after_caps, *target, &violation))
        << violation;
    EXPECT_TRUE(validate_schedule(g, merged, after_caps, *target, &violation))
        << violation;
  }
  ScheduleExecutor listed_run(g, listed);
  ScheduleExecutor merged_run(g, merged);
  EXPECT_TRUE(listed_run.run().completed);
  EXPECT_TRUE(merged_run.run().completed);
  EXPECT_TRUE(listed_run.state() == merged_run.state());  // bitwise
  const RouteKey top{0, {EdgeId{0}, EdgeId{1}}};
  ASSERT_TRUE(listed_run.state().routes.contains(top));
  EXPECT_EQ(listed_run.state().routes.at(top), 30.0);
  EXPECT_EQ(listed_run.state().routes.size(), 2u);
}

TEST(UpdateSchedule, CheckDataplaneDetectsLoopsAndWrongDestinations) {
  // A triangle with a back-edge so a looping walk actually exists:
  // A->B (0), B->A (1), B->C (2); demand A->C.
  graph::Graph g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  g.add_edge(a, b, Gbps{100.0});
  g.add_edge(b, a, Gbps{100.0});
  g.add_edge(b, c, Gbps{100.0});
  te::FlowAssignment assignment;
  te::FlowAssignment::DemandRouting routing;
  routing.demand = te::Demand{a, c, Gbps{10.0}, 0};
  routing.paths.emplace_back(path_of(g, {0, 2}), Gbps{10.0});
  routing.routed = Gbps{10.0};
  assignment.routings.push_back(std::move(routing));
  te::finalize_assignment(g, assignment);
  const auto caps = uniform_capacity(3, 100.0);
  const UpdateSchedule schedule = plan_schedule(
      g, caps, caps, assignment, assignment, efficient_config());
  ASSERT_TRUE(schedule.feasible);
  std::string violation;
  ASSERT_TRUE(check_dataplane(g, schedule, schedule.initial, &violation))
      << violation;

  // Forwarding loop: A->B->A revisits A.
  DataplaneState looped = schedule.initial;
  looped.routes[{0, {EdgeId{0}, EdgeId{1}, EdgeId{0}, EdgeId{2}}}] = 1.0;
  EXPECT_FALSE(check_dataplane(g, schedule, looped, &violation));
  EXPECT_NE(violation.find("loop"), std::string::npos) << violation;

  // Black-hole shape: a path that strands traffic short of its
  // destination.
  DataplaneState stranded = schedule.initial;
  stranded.routes[{0, {EdgeId{0}}}] = 1.0;
  EXPECT_FALSE(check_dataplane(g, schedule, stranded, &violation));
  EXPECT_NE(violation.find("destination"), std::string::npos) << violation;
}

// ---- Mutation checks: every validator clause must be able to fire. ----

struct MutationFixture : ::testing::Test {
  graph::Graph g = diamond();
  std::vector<Gbps> before_caps = uniform_capacity(4, 100.0);
  std::vector<Gbps> after_caps = uniform_capacity(4, 100.0);
  te::FlowAssignment before = split_assignment(g, 50.0, 30.0);
  te::FlowAssignment after = split_assignment(g, 30.0, 50.0);
  UpdateSchedule schedule;

  void SetUp() override {
    after_caps[0] = Gbps{200.0};
    SchedulerConfig config;
    config.procedure = bvt::Procedure::kStandard;  // darkens edge 0
    config.sampled_durations = false;
    schedule = plan_schedule(g, before_caps, after_caps, before, after,
                             config);
    ASSERT_TRUE(schedule.feasible);
    std::string violation;
    ASSERT_TRUE(
        validate_schedule(g, schedule, after_caps, after, &violation))
        << violation;
  }

  struct MoveRef {
    std::size_t round = 0;
    std::size_t index = 0;
    bool found = false;
  };

  /// First move (in execution order) satisfying `pred`.
  template <typename Pred>
  MoveRef find_move(const Pred& pred) const {
    for (std::size_t r = 0; r < schedule.rounds.size(); ++r)
      for (std::size_t i = 0; i < schedule.rounds[r].moves.size(); ++i)
        if (pred(schedule.rounds[r].moves[i])) return {r, i, true};
    return {};
  }

  static bool touches_edge_zero(const Move& move) {
    return std::find(move.edges.begin(), move.edges.end(), EdgeId{0}) !=
           move.edges.end();
  }
};

TEST_F(MutationFixture, DetectsRouteMoveRacingAReconfig) {
  // Drag the re-add of edge 0's churned traffic forward into the reconfig
  // round of the same edge.
  const MoveRef reconfig = find_move(
      [](const Move& m) { return m.kind == Move::Kind::kReconfig; });
  const MoveRef add = find_move([](const Move& m) {
    return m.kind == Move::Kind::kRouteAdd && touches_edge_zero(m);
  });
  ASSERT_TRUE(reconfig.found);
  ASSERT_TRUE(add.found);
  ASSERT_LT(reconfig.round, add.round);
  auto& add_moves = schedule.rounds[add.round].moves;
  const Move moved = add_moves[add.index];
  add_moves.erase(add_moves.begin() + static_cast<std::ptrdiff_t>(add.index));
  schedule.rounds[reconfig.round].moves.push_back(moved);
  std::string violation;
  EXPECT_FALSE(
      validate_schedule(g, schedule, after_caps, after, &violation));
  EXPECT_NE(violation.find("race"), std::string::npos) << violation;
}

TEST_F(MutationFixture, DetectsReconfigAboveDrainLimit) {
  // Pull the reconfig into round 0, before its edge drained. Round 0's
  // own moves are stripped so the drain clause (not the race clause) is
  // what fires.
  const MoveRef reconfig = find_move(
      [](const Move& m) { return m.kind == Move::Kind::kReconfig; });
  ASSERT_TRUE(reconfig.found);
  ASSERT_GT(reconfig.round, 0u);
  const Move moved = schedule.rounds[reconfig.round].moves[reconfig.index];
  auto& from = schedule.rounds[reconfig.round].moves;
  from.erase(from.begin() + static_cast<std::ptrdiff_t>(reconfig.index));
  schedule.rounds[0].moves.clear();
  schedule.rounds[0].moves.push_back(moved);
  std::string violation;
  EXPECT_FALSE(
      validate_schedule(g, schedule, after_caps, after, &violation));
  EXPECT_NE(violation.find("drain"), std::string::npos) << violation;
}

TEST_F(MutationFixture, DetectsWorstCaseOversubscription) {
  // Inflate the first re-add far beyond any link: the worst-case
  // interleaving clause fires.
  const MoveRef add = find_move(
      [](const Move& m) { return m.kind == Move::Kind::kRouteAdd; });
  ASSERT_TRUE(add.found);
  schedule.rounds[add.round].moves[add.index].volume = Gbps{500.0};
  std::string violation;
  EXPECT_FALSE(
      validate_schedule(g, schedule, after_caps, after, &violation));
  EXPECT_NE(violation.find("worst-case"), std::string::npos) << violation;
}

TEST_F(MutationFixture, DetectsTerminalStateDivergence) {
  // Drop every add: the schedule no longer reaches the target routing.
  for (UpdateRound& round : schedule.rounds)
    std::erase_if(round.moves, [](const Move& m) {
      return m.kind == Move::Kind::kRouteAdd;
    });
  std::string violation;
  EXPECT_FALSE(
      validate_schedule(g, schedule, after_caps, after, &violation));
  EXPECT_NE(violation.find("terminal"), std::string::npos) << violation;
}

TEST_F(MutationFixture, CheckDataplaneRefusesBlackHoleOnDarkLink) {
  // Traffic parked on a drained-to-zero link: the overload floor must NOT
  // excuse it — the limit sits below capacity, so no floor credit.
  DataplaneState dark = schedule.initial;
  dark.limit_gbps[0] = 0.0;
  std::string violation;
  EXPECT_FALSE(check_dataplane(g, schedule, dark, &violation));
  EXPECT_NE(violation.find("over-subscribed"), std::string::npos)
      << violation;
}

// ---- Executor ---------------------------------------------------------

struct ExecutorFixture : MutationFixture {
  /// Runs fault-free to produce the reference final state.
  DataplaneState reference_final() {
    ScheduleExecutor executor(g, schedule);
    executor.run();
    return executor.state();
  }
};

TEST_F(ExecutorFixture, FaultFreeRunCommitsAndEveryTransientHolds) {
  std::size_t observed = 0;
  ScheduleExecutor executor(g, schedule);
  const ExecutionResult& result = executor.run([&](const DataplaneState& s) {
    std::string violation;
    EXPECT_TRUE(check_dataplane(g, schedule, s, &violation)) << violation;
    ++observed;
  });
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.rounds_committed, schedule.rounds.size());
  EXPECT_EQ(result.commit_attempts, schedule.rounds.size());
  EXPECT_EQ(result.rollbacks, 0u);
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(result.makespan_seconds, schedule.makespan_seconds);  // bitwise
}

// update.exec.seconds times every ScheduleExecutor::run exactly once.
TEST_F(ExecutorFixture, EveryRunObservesTheExecHistogram) {
  const obs::Histogram& seconds =
      obs::Registry::global().histogram("update.exec.seconds");
  const std::uint64_t before = seconds.count();
  constexpr std::uint64_t kRuns = 3;
  for (std::uint64_t r = 0; r < kRuns; ++r) {
    ScheduleExecutor executor(g, schedule);
    executor.run();
  }
  EXPECT_EQ(seconds.count() - before, kRuns);
}

TEST_F(ExecutorFixture, CommitFailRollsBackThenConvergesBitIdentically) {
  const DataplaneState reference = reference_final();
  fault::FaultPlan plan = fault::FaultPlan::parse("update.commit@0:fail");
  fault::ScopedPlan armed(plan);
  ScheduleExecutor executor(g, schedule);
  const ExecutionResult& result = executor.run([&](const DataplaneState& s) {
    std::string violation;
    EXPECT_TRUE(check_dataplane(g, schedule, s, &violation)) << violation;
  });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rollbacks, 1u);
  EXPECT_EQ(result.commit_attempts, schedule.rounds.size() + 1);
  EXPECT_GT(result.makespan_seconds, schedule.makespan_seconds);
  EXPECT_TRUE(executor.state() == reference);  // bitwise
}

TEST_F(ExecutorFixture, PeriodicCommitFailAbortsAtTheRoundBoundary) {
  fault::FaultPlan plan = fault::FaultPlan::parse("update.commit%1@0:fail");
  fault::ScopedPlan armed(plan);
  ScheduleExecutor executor(g, schedule);
  const ExecutionResult& result = executor.run();
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds_committed, 0u);
  // kMaxCommitAttempts attempts, every one rolled back.
  EXPECT_EQ(kMaxCommitAttempts, 8u);
  EXPECT_EQ(result.commit_attempts, 8u);
  EXPECT_EQ(result.rollbacks, 8u);
  // Monotone progress: the dataplane is exactly the committed prefix —
  // here, the untouched initial state, bit for bit.
  EXPECT_TRUE(executor.state() == schedule.initial);
  // Aborted executors stay done; further runs are no-ops.
  EXPECT_TRUE(executor.done());
  executor.run();
  EXPECT_EQ(executor.result().commit_attempts, 8u);
}

TEST_F(ExecutorFixture, StallsAndDelaysAreTimingOnly) {
  const DataplaneState reference = reference_final();
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "update.commit@0:stall=5.0;update.commit@1:delay=250");
  fault::ScopedPlan armed(plan);
  ScheduleExecutor executor(g, schedule);
  const ExecutionResult& result = executor.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rollbacks, 0u);
  // 5 s stall + 250 ms delay, on top of the fault-free makespan.
  EXPECT_NEAR(result.makespan_seconds, schedule.makespan_seconds + 5.25,
              1e-9);
  EXPECT_TRUE(executor.state() == reference);
}

}  // namespace
}  // namespace rwc::update
