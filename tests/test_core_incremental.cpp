// Tests for the controller's incremental re-solve hot path (docs/FLEET.md):
// the memo fast path, the dirty-link diff against the memo, and the contract
// that the hot path changes work counters and timings only — every round's
// result is bit-identical to a full re-solve on the same inputs. A
// non-incremental twin controller is driven with the same per-round inputs
// and the round signatures (tests/support/round_signature.hpp) must match.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/round_signature.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rwc::core {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Db;
using util::Gbps;
using namespace util::literals;

std::vector<Db> uniform_snr(const graph::Graph& g, double db) {
  return std::vector<Db>(g.edge_count(), Db{db});
}

ControllerOptions incremental_options() {
  ControllerOptions options;
  options.snr_margin = 0.0_dB;
  options.incremental = true;
  return options;
}

ControllerOptions full_options() {
  ControllerOptions options;
  options.snr_margin = 0.0_dB;
  return options;
}

/// Both controllers see the same round inputs; the incremental one must
/// produce the same signature. Returns the incremental round's report.
DynamicCapacityController::RoundReport step_pair(
    DynamicCapacityController& incremental, DynamicCapacityController& full,
    std::span<const Db> snr, const te::TrafficMatrix& demands,
    const std::string& context) {
  auto inc_report = incremental.run_round(snr, demands);
  const auto full_report = full.run_round(snr, demands);
  const prop::InvariantResult check = prop::check_signatures_equal(
      prop::signature_of(full_report), prop::signature_of(inc_report),
      context);
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_FALSE(full_report.stats.incremental_hit);
  return inc_report;
}

TEST(CoreIncremental, MemoHitsOnceInputsStabilize) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController incremental(
      base, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(base, optical::ModulationTable::standard(),
                                 engine, full_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 150_Gbps, 0}};
  const std::vector<Db> snr = uniform_snr(base, 20.0);

  // Round 0: cold — a full solve with every base link dirty.
  auto report = step_pair(incremental, full, snr, demands, "round 0");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_links, base.edge_count());

  // The first round may reconfigure links (upgrades change the next
  // round's solve inputs); with constant SNR and demands the inputs reach
  // a fixed point and the memo must serve every subsequent round.
  report = step_pair(incremental, full, snr, demands, "round 1");
  for (int round = 2; round < 6; ++round) {
    report = step_pair(incremental, full, snr, demands,
                       "round " + std::to_string(round));
    EXPECT_TRUE(report.stats.incremental_hit) << "round " << round;
    EXPECT_EQ(report.stats.dirty_links, 0u) << "round " << round;
    EXPECT_EQ(report.stats.evaluations, 0u) << "round " << round;
  }
}

TEST(CoreIncremental, SnrShiftOnEveryLinkMakesAllLinksDirty) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController incremental(
      base, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(base, optical::ModulationTable::standard(),
                                 engine, full_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 150_Gbps, 0}};

  auto report =
      step_pair(incremental, full, uniform_snr(base, 20.0), demands, "warm 0");
  report =
      step_pair(incremental, full, uniform_snr(base, 20.0), demands, "warm 1");
  report =
      step_pair(incremental, full, uniform_snr(base, 20.0), demands, "warm 2");
  ASSERT_TRUE(report.stats.incremental_hit);

  // Every link's SNR now supports only 175 G: every configured capacity
  // changes, so the memo misses and the diff marks every link.
  report =
      step_pair(incremental, full, uniform_snr(base, 12.0), demands, "shift");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_links, base.edge_count());
  EXPECT_GE(report.stats.evaluations, 1u);
}

TEST(CoreIncremental, DemandOnlyChangeDirtiesNoLink) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController incremental(
      base, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(base, optical::ModulationTable::standard(),
                                 engine, full_options());
  const NodeId a = *base.find_node("A");
  const NodeId b = *base.find_node("B");
  const std::vector<Db> snr = uniform_snr(base, 20.0);

  te::TrafficMatrix demands = {{a, b, 150_Gbps, 0}};
  step_pair(incremental, full, snr, demands, "warm 0");
  step_pair(incremental, full, snr, demands, "warm 1");
  auto report = step_pair(incremental, full, snr, demands, "warm 2");
  ASSERT_TRUE(report.stats.incremental_hit);

  // Changing only the demand volume invalidates the memo (the solve must
  // rerun) but no base link's inputs moved: zero dirty links on a non-hit
  // round.
  demands[0].volume = 160_Gbps;
  report = step_pair(incremental, full, snr, demands, "demand change");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_links, 0u);
  EXPECT_GE(report.stats.evaluations, 1u);
}

TEST(CoreIncremental, RestoreStateInvalidatesMemoButNotResults) {
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController incremental(
      base, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(base, optical::ModulationTable::standard(),
                                 engine, full_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 150_Gbps, 0}};
  const std::vector<Db> snr = uniform_snr(base, 20.0);

  step_pair(incremental, full, snr, demands, "warm 0");
  step_pair(incremental, full, snr, demands, "warm 1");
  auto report = step_pair(incremental, full, snr, demands, "warm 2");
  ASSERT_TRUE(report.stats.incremental_hit);

  // Round-tripping through PersistentState drops the memo (it is
  // deliberately not checkpointed): the next round costs one full solve
  // with every link dirty, then the memo re-forms.
  incremental.restore_state(incremental.save_state());
  report = step_pair(incremental, full, snr, demands, "post-restore");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_links, base.edge_count());
  report = step_pair(incremental, full, snr, demands, "post-restore + 1");
  EXPECT_TRUE(report.stats.incremental_hit);
}

TEST(CoreIncremental, ZeroHeadroomRoundsHitImmediately) {
  // SNR pinned exactly at the nominal rate's threshold: no link has
  // headroom, so no variable links exist and the solve inputs are stable
  // from round 0 — the memo serves every round after the first.
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController incremental(
      base, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(base, optical::ModulationTable::standard(),
                                 engine, full_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 90_Gbps, 0}};
  // 6.5 dB is the 100 G threshold (zero margin): feasible == nominal.
  const std::vector<Db> snr = uniform_snr(base, 6.5);

  auto report = step_pair(incremental, full, snr, demands, "round 0");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_TRUE(report.plan.upgrades.empty());
  for (int round = 1; round < 4; ++round) {
    report = step_pair(incremental, full, snr, demands,
                       "round " + std::to_string(round));
    EXPECT_TRUE(report.stats.incremental_hit) << "round " << round;
    EXPECT_TRUE(report.plan.upgrades.empty()) << "round " << round;
  }
}

TEST(CoreIncremental, SingleLinkSnrShiftDirtiesExactlyThatLink) {
  // The finest-grained perturbation the paper's traces produce: one link's
  // SNR crosses a modulation threshold. The memo diff must mark exactly
  // that link and RoundStats must report the matching dirty fraction.
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  DynamicCapacityController incremental(
      base, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(base, optical::ModulationTable::standard(),
                                 engine, full_options());
  const te::TrafficMatrix demands = {
      {*base.find_node("A"), *base.find_node("B"), 150_Gbps, 0}};

  std::vector<Db> snr = uniform_snr(base, 20.0);
  step_pair(incremental, full, snr, demands, "warm 0");
  step_pair(incremental, full, snr, demands, "warm 1");
  auto report = step_pair(incremental, full, snr, demands, "warm 2");
  ASSERT_TRUE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_fraction, 0.0);

  // Drop one link below the 200 G threshold: its feasible rate (and only
  // its) changes, so the memo misses with a single dirty link.
  snr[0] = Db{12.0};
  report = step_pair(incremental, full, snr, demands, "single-link shift");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_links, 1u);
  EXPECT_EQ(report.stats.dirty_fraction,
            1.0 / static_cast<double>(base.edge_count()));

  // Every link shifted (including the already-degraded one): the
  // fraction saturates at 1.
  report = step_pair(incremental, full, uniform_snr(base, 6.5), demands,
                     "all-links shift");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_fraction, 1.0);
}

/// An 8-node WAN at half load with SNR headroom on every link: its first
/// rounds upgrade links and consolidate, then settle into memo hits.
struct LoadedWan {
  graph::Graph topology;
  te::TrafficMatrix demands;
};

LoadedWan loaded_wan() {
  util::Rng rng = util::Rng::stream(2, 40);
  LoadedWan wan{sim::waxman(8, rng), {}};
  sim::GravityParams gravity;
  gravity.total = Gbps{wan.topology.total_capacity().value * 0.5};
  gravity.sparsity = 0.8;
  wan.demands = sim::gravity_matrix(wan.topology, gravity, rng);
  return wan;
}

TEST(CoreIncremental, PartialResolveFlagTracksSolverTierOnDemandShift) {
  // Tripling one demand leaves the topology (and so every link's inputs)
  // untouched, but the round must upgrade links again, so consolidation
  // runs trials on the augmented graph minus one fake link each — the
  // case the engine's prefix reuse serves. The round must stay
  // bit-identical to the full twin and report partial_resolve.
  LoadedWan wan = loaded_wan();
  te::McfTe engine;
  DynamicCapacityController incremental(
      wan.topology, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(wan.topology,
                                 optical::ModulationTable::standard(), engine,
                                 full_options());
  const std::vector<Db> snr = uniform_snr(wan.topology, 15.0);

  DynamicCapacityController::RoundReport report;
  for (int round = 0; round < 8 && !report.stats.incremental_hit; ++round)
    report = step_pair(incremental, full, snr, wan.demands,
                       "warm " + std::to_string(round));
  ASSERT_TRUE(report.stats.incremental_hit);
  EXPECT_FALSE(report.stats.partial_resolve);

  wan.demands[0].volume = Gbps{wan.demands[0].volume.value * 3.0};
  report = step_pair(incremental, full, snr, wan.demands, "demand shift");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_EQ(report.stats.dirty_links, 0u);
  EXPECT_TRUE(report.stats.partial_resolve);
}

TEST(CoreIncremental, RestoreThenPartialRoundStaysBitIdentical) {
  // Engine reuse state is never checkpointed and only changes timing:
  // after a save/restore round-trip the memo is gone and the first round
  // re-solves with nothing to reuse, and a later demand shift's trials are
  // served by prefix reuse again — with every round still bit-identical to
  // the always-full twin.
  LoadedWan wan = loaded_wan();
  te::McfTe engine;
  DynamicCapacityController incremental(
      wan.topology, optical::ModulationTable::standard(), engine,
      incremental_options());
  DynamicCapacityController full(wan.topology,
                                 optical::ModulationTable::standard(), engine,
                                 full_options());
  const std::vector<Db> snr = uniform_snr(wan.topology, 15.0);

  DynamicCapacityController::RoundReport report;
  for (int round = 0; round < 8 && !report.stats.incremental_hit; ++round)
    report = step_pair(incremental, full, snr, wan.demands,
                       "warm " + std::to_string(round));
  ASSERT_TRUE(report.stats.incremental_hit);

  // Restore drops the controller memo (docs/REPLAY.md).
  incremental.restore_state(incremental.save_state());
  report = step_pair(incremental, full, snr, wan.demands, "post-restore");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_FALSE(report.stats.partial_resolve);

  step_pair(incremental, full, snr, wan.demands, "re-warm");
  wan.demands[0].volume = Gbps{wan.demands[0].volume.value * 3.0};
  report = step_pair(incremental, full, snr, wan.demands,
                     "partial after restore");
  EXPECT_FALSE(report.stats.incremental_hit);
  EXPECT_TRUE(report.stats.partial_resolve);
}

TEST(CoreIncremental, AugmentRejectsZeroHeadroomVariableLink) {
  // Algorithm 1's precondition: a variable link must offer strictly more
  // than its current capacity. A zero-headroom "upgrade" is a contract
  // violation, not a no-op.
  graph::Graph base = sim::fig7_square();
  const std::vector<VariableLink> zero_headroom = {
      {EdgeId{0}, base.edge(EdgeId{0}).capacity}};
  EXPECT_THROW(augment_topology(base, zero_headroom,
                                TrafficProportionalPenalty{}, {}),
               util::CheckError);
}

}  // namespace
}  // namespace rwc::core
