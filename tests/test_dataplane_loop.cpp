// The closed loop (dataplane::ClosedLoop, docs/DATAPLANE.md §5): its chain
// at pool sizes {1,2,8} and across a restore into a fresh loop before
// every round, the pending counter set that restore must carry, the
// refusal of a foreign state, the hook between the executed schedule and
// the dataplane, and the controller's execution of exactly the schedules
// it validated. The chains themselves are pinned by GoldenRoundChains
// (loop-1, loop-7).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dataplane/loop.hpp"
#include "exec/thread_pool.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "support/loop_fixture.hpp"
#include "support/round_signature.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"

namespace rwc {
namespace {

using dataplane::ClosedLoop;

constexpr std::uint64_t kSeeds[] = {1, 7};

TEST(ClosedLoop, ChainIsIdenticalAcrossPoolSizes) {
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t reference = loop_fixture::loop_chain(seed);
    for (const std::size_t threads : {1, 2, 8}) {
      exec::ThreadPool pool(threads);
      EXPECT_EQ(loop_fixture::loop_chain(seed, &pool), reference)
          << "seed " << seed << ", pool " << threads;
    }
  }
}

TEST(ClosedLoop, RestoreBeforeEveryRoundIsInvisible) {
  for (const std::uint64_t seed : kSeeds)
    EXPECT_EQ(loop_fixture::loop_chain(seed, nullptr, /*restore=*/true),
              loop_fixture::loop_chain(seed))
        << "seed " << seed;
}

// DemandPipeline::restore_state clears its replay queue, so the dataplane
// counters of the round before a restore reach the next estimate only
// because the loop's state carries them. Without them the next round
// synthesizes counters from the intent, and the chain moves.
TEST(ClosedLoop, RestoreWithoutThePendingSetDiverges) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const te::McfTe engine;
  const core::ControllerOptions options =
      loop_fixture::loop_options(1, nullptr);
  std::optional<ClosedLoop> kept, dropped;
  kept.emplace(fixture.topology, fixture.intent, engine, options);
  dropped.emplace(fixture.topology, fixture.intent, engine, options);
  loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 1);
  bool diverged = false;
  for (std::size_t r = 0; r < 8 && !diverged; ++r) {
    ClosedLoop::State state = dropped->save_state();
    EXPECT_EQ(state.pending.has_value(), r > 0) << "round " << r;
    state.pending.reset();
    dropped.emplace(fixture.topology, fixture.intent, engine, options);
    dropped->restore_state(std::move(state));
    const std::span<const util::Db> snr = walk.next();
    diverged = kept->step(snr).result.signature !=
               dropped->step(snr).result.signature;
  }
  EXPECT_TRUE(diverged);
}

// With the oracle demand source the loop has no estimate to feed, so it
// holds no counter set and its state carries no demand section.
TEST(ClosedLoop, OracleDemandHoldsNoPendingSet) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const te::McfTe engine;
  core::ControllerOptions options = loop_fixture::loop_options(1, nullptr);
  options.demand = demand::DemandConfig{};
  ClosedLoop loop(fixture.topology, fixture.intent, engine, options);
  loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 1);
  for (int r = 0; r < 3; ++r) loop.step(walk.next());
  const ClosedLoop::State state = loop.save_state();
  EXPECT_FALSE(state.pending.has_value());
  EXPECT_FALSE(state.demand.has_value());
  EXPECT_EQ(loop.dataplane().rounds(), 3u);
}

// The hook runs after the schedule executed and before the dataplane: it
// sees the installed assignment, and the events it adds are in the
// timeline the dataplane ran.
TEST(ClosedLoop, HookEditsTheTimelineTheDataplaneRuns) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const te::McfTe engine;
  ClosedLoop loop(fixture.topology, fixture.intent, engine,
                  loop_fixture::loop_options(7, nullptr));
  loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 7);
  std::size_t calls = 0;
  const ClosedLoop::Round round = loop.step(
      walk.next(), [&](const te::FlowAssignment& assignment,
                       dataplane::CapacityTimeline& timeline) {
        ++calls;
        EXPECT_EQ(assignment.total_routed,
                  loop.controller().last_assignment().total_routed);
        EXPECT_EQ(loop.dataplane().rounds(), 0u);
        timeline.add_event(0, static_cast<std::uint32_t>(timeline.ticks / 2),
                           0.0);
      });
  EXPECT_EQ(calls, 1u);
  ASSERT_TRUE(round.report.execution.has_value());
  EXPECT_TRUE(round.report.execution->completed);
  EXPECT_EQ(round.timeline.capacity_gbps(0, round.timeline.ticks - 1), 0.0);
  EXPECT_EQ(loop.dataplane().rounds(), 1u);
}

// A state saved from a loop built with other arguments is refused, and
// the refusal leaves the loop as it was: its next round equals that of a
// twin that never saw the state. One foreign state has one OD fewer (the
// dataplane's shape differs), the other another topology (the
// controller's does).
TEST(ClosedLoop, RestoreRejectsAForeignStateAndLeavesTheLoopUntouched) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const loop_fixture::Fixture other = loop_fixture::make_fixture(10);
  ASSERT_NE(other.topology.edge_count(), fixture.topology.edge_count());
  te::TrafficMatrix fewer = fixture.intent;
  fewer.pop_back();
  const te::McfTe engine;
  const core::ControllerOptions options =
      loop_fixture::loop_options(1, nullptr);
  auto state_after_two_rounds = [&](const loop_fixture::Fixture& built,
                                    const te::TrafficMatrix& intent) {
    ClosedLoop loop(built.topology, intent, engine, options);
    loop_fixture::SnrWalk walk(built.topology.edge_count(), 1);
    for (int r = 0; r < 2; ++r) loop.step(walk.next());
    return loop.save_state();
  };
  const ClosedLoop::State foreign[] = {
      state_after_two_rounds(fixture, fewer),
      state_after_two_rounds(other, other.intent)};

  ClosedLoop victim(fixture.topology, fixture.intent, engine, options);
  ClosedLoop twin(fixture.topology, fixture.intent, engine, options);
  loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 1);
  for (int r = 0; r < 2; ++r) {
    const std::span<const util::Db> snr = walk.next();
    victim.step(snr);
    twin.step(snr);
  }
  for (std::size_t s = 0; s < std::size(foreign); ++s) {
    EXPECT_THROW(victim.restore_state(foreign[s]), util::CheckError)
        << "foreign state " << s;
    const std::span<const util::Db> snr = walk.next();
    const ClosedLoop::Round got = victim.step(snr);
    const ClosedLoop::Round want = twin.step(snr);
    EXPECT_EQ(prop::signature_of(got.report), prop::signature_of(want.report))
        << "foreign state " << s;
    EXPECT_EQ(got.result.signature, want.result.signature)
        << "foreign state " << s;
  }
}

// The controller's update stage executes exactly the schedules it
// validated, and a fault-free execution commits every update round.
TEST(ClosedLoop, ExecutesExactlyTheValidatedSchedules) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const te::McfTe engine;
  for (const std::uint64_t seed : kSeeds) {
    ClosedLoop loop(fixture.topology, fixture.intent, engine,
                    loop_fixture::loop_options(seed, nullptr));
    loop_fixture::SnrWalk walk(fixture.topology.edge_count(), seed);
    std::size_t executed = 0;
    for (std::size_t r = 0; r < loop_fixture::kRounds; ++r) {
      const core::DynamicCapacityController::RoundReport report =
          loop.step(walk.next()).report;
      ASSERT_EQ(report.execution.has_value(), report.update_valid)
          << "seed " << seed << ", round " << r;
      if (!report.execution.has_value()) continue;
      EXPECT_TRUE(report.execution->completed)
          << "seed " << seed << ", round " << r;
      EXPECT_EQ(report.execution->rounds_committed,
                report.update->rounds.size())
          << "seed " << seed << ", round " << r;
      ++executed;
    }
    EXPECT_GT(executed, 0u) << "seed " << seed;
  }
}

// Execution is observational: with every commit failing, each non-empty
// schedule aborts (update.exec.aborts counts them), and every round's
// dataplane signature is still the fault-free run's.
TEST(ClosedLoop, AbortedExecutionsLeaveEveryRoundUnchanged) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const te::McfTe engine;
  const core::ControllerOptions options =
      loop_fixture::loop_options(1, nullptr);
  constexpr std::size_t kRounds = 12;
  const auto run = [&](std::vector<std::uint64_t>& signatures) {
    ClosedLoop loop(fixture.topology, fixture.intent, engine, options);
    loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 1);
    std::size_t aborted = 0;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const ClosedLoop::Round round = loop.step(walk.next());
      signatures.push_back(round.result.signature);
      const auto& execution = round.report.execution;
      if (execution.has_value() && execution->aborted) ++aborted;
    }
    return aborted;
  };
  std::vector<std::uint64_t> clean, faulted;
  EXPECT_EQ(run(clean), 0u);
  const obs::Counter& aborts =
      obs::Registry::global().counter("update.exec.aborts");
  const std::uint64_t before = aborts.value();
  std::size_t aborted = 0;
  {
    fault::ScopedPlan armed(fault::FaultPlan::parse("update.commit%1@0:fail"));
    aborted = run(faulted);
  }
  EXPECT_GT(aborted, 0u);
  EXPECT_EQ(aborts.value() - before, aborted);
  EXPECT_EQ(faulted, clean);
}

TEST(ClosedLoop, RequiresTheUpdateStage) {
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture();
  const te::McfTe engine;
  core::ControllerOptions options = loop_fixture::loop_options(1, nullptr);
  options.update.reset();
  EXPECT_THROW(ClosedLoop(fixture.topology, fixture.intent, engine, options),
               util::CheckError);
}

}  // namespace
}  // namespace rwc
