// The closed loop (dataplane::ClosedLoop, docs/DATAPLANE.md §5): its chain
// at pool sizes {1,2,8} and across a restore into a fresh loop before
// every round, the pending counter set that restore must carry, and the
// hook between the executed schedule and the dataplane. The chains
// themselves are pinned by GoldenRoundChains (loop-1, loop-7).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "dataplane/loop.hpp"
#include "exec/thread_pool.hpp"
#include "support/loop_fixture.hpp"
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
  ASSERT_TRUE(round.execution.has_value());
  EXPECT_TRUE(round.execution->completed);
  EXPECT_EQ(round.timeline.capacity_gbps(0, round.timeline.ticks - 1), 0.0);
  EXPECT_EQ(loop.dataplane().rounds(), 1u);
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
