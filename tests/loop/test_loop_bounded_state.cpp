// The dataplane's state stays bounded over a long closed loop
// (docs/DATAPLANE.md §2): on the benchmark's loop fixture at 24 nodes,
// seed 1, every one of 100 rounds runs at most 1.1 classes per distinct
// (OD, active path) pair of the saved state, as dataplane.classes
// reports it. A kernel whose classes split by history (carry, queue
// contents) grew to 2 821 classes over 623 pairs by round 100 here.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "dataplane/loop.hpp"
#include "obs/registry.hpp"
#include "support/loop_fixture.hpp"
#include "support/path_reference.hpp"
#include "te/mcf_te.hpp"

namespace rwc {
namespace {

TEST(LoopBoundedState, ClassesStayWithinTheOdPathPairsAt24Nodes) {
  constexpr std::size_t kLongRun = 100;
  const loop_fixture::Fixture fixture = loop_fixture::make_fixture(24);
  const te::McfTe engine;
  dataplane::ClosedLoop loop(fixture.topology, fixture.intent, engine,
                             loop_fixture::loop_options(1, nullptr));
  loop_fixture::SnrWalk walk(fixture.topology.edge_count(), 1);
  const obs::Gauge& classes =
      obs::Registry::global().gauge("dataplane.classes");
  for (std::size_t r = 0; r < kLongRun; ++r) {
    const dataplane::ClosedLoop::Round round = loop.step(walk.next());
    const dataplane::DataplaneSim::State state = loop.dataplane().save_state();
    const std::size_t pairs = dataplane::reference::od_path_pairs(state);
    ASSERT_GT(pairs, 0u) << "round " << r << " routes nothing";
    ASSERT_LE(classes.value(), 1.1 * static_cast<double>(pairs))
        << "round " << r << ": " << classes.value() << " classes for "
        << pairs << " (OD, path) pairs";
    ASSERT_EQ(dataplane::reference::unbalanced_od(state), "")
        << "round " << r;
    ASSERT_EQ(round.result.injected_bytes,
              round.result.delivered_bytes + round.result.dropped_bytes +
                  round.result.inflight_bytes)
        << "round " << r;
  }
}

}  // namespace
}  // namespace rwc
