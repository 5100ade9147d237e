// Differential layer for the consistent-update stage (docs/UPDATE.md):
// planning a transition schedule must never perturb what the controller
// decides (atomic-apply vs scheduled-apply produce bitwise-identical
// round signatures at pool sizes {1, 2, 8}), the schedules themselves
// must be pool-size invariant, and EXECUTING a schedule must commit every
// round with every transient dataplane state clean. Signatures come from
// tests/support/round_signature.hpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "exec/thread_pool.hpp"
#include "optical/modulation.hpp"
#include "prop/invariants.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "update/executor.hpp"
#include "update/schedule.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

/// Multi-round fixture whose SNR trace dips and recovers, so rounds carry
/// flaps, restorations AND TE upgrades — real material for transition
/// schedules.
struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  std::vector<std::vector<util::Db>> snr_rounds;
};

Fixture make_fixture(std::uint64_t seed, std::size_t rounds) {
  Fixture fixture;
  util::Rng topo_rng = util::Rng::stream(seed, 700);
  fixture.topology = sim::waxman(10, topo_rng);
  util::Rng demand_rng = util::Rng::stream(seed, 701);
  sim::GravityParams gravity;
  gravity.total =
      util::Gbps{fixture.topology.total_capacity().value * 0.45};
  fixture.demands =
      sim::gravity_matrix(fixture.topology, gravity, demand_rng);
  util::Rng snr_rng = util::Rng::stream(seed, 702);
  const std::size_t edges = fixture.topology.edge_count();
  std::vector<util::Db> snr(edges, util::Db{20.0});
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t e = 0; e < edges; ++e) {
      // Random walk between deep fade and strong headroom.
      double db = snr[e].value + snr_rng.uniform(-3.0, 3.0);
      if (db < 8.0) db = 8.0;
      if (db > 24.0) db = 24.0;
      snr[e] = util::Db{db};
    }
    fixture.snr_rounds.push_back(snr);
  }
  return fixture;
}

update::SchedulerConfig stage_config() {
  update::SchedulerConfig config;
  config.headroom = 0.1;
  config.seed = 9;
  return config;  // sampled durations on — the production path
}

struct ArmResult {
  std::vector<prop::RoundSignature> signatures;
  std::vector<std::optional<update::UpdateSchedule>> schedules;
  std::size_t feasible_schedules = 0;
  std::size_t validated_schedules = 0;
};

ArmResult run_arm(const Fixture& fixture, bool scheduled,
                  std::size_t threads) {
  exec::ThreadPool pool(threads);
  core::ControllerOptions options;
  options.pool = &pool;
  if (scheduled) options.update = stage_config();
  const te::McfTe engine;  // fresh per arm: empty trace store
  core::DynamicCapacityController controller(
      fixture.topology, optical::ModulationTable::standard(), engine,
      options);
  ArmResult result;
  for (const auto& snr : fixture.snr_rounds) {
    const auto report = controller.run_round(snr, fixture.demands);
    result.signatures.push_back(prop::signature_of(report));
    result.schedules.push_back(report.update);
    if (report.update.has_value() && report.update->feasible) {
      ++result.feasible_schedules;
      if (report.update_valid) ++result.validated_schedules;
    }
  }
  return result;
}

void expect_signatures_equal(const ArmResult& expected, const ArmResult& got,
                             const std::string& context) {
  ASSERT_EQ(expected.signatures.size(), got.signatures.size()) << context;
  for (std::size_t r = 0; r < expected.signatures.size(); ++r) {
    const prop::InvariantResult check = prop::check_signatures_equal(
        expected.signatures[r], got.signatures[r],
        context + ", round " + std::to_string(r));
    ASSERT_TRUE(check.ok) << check.detail;
  }
}

/// Schedules must be pool-size invariant: same rounds, same moves, same
/// makespan bits.
void expect_schedules_equal(const ArmResult& a, const ArmResult& b,
                            const std::string& context) {
  ASSERT_EQ(a.schedules.size(), b.schedules.size()) << context;
  for (std::size_t r = 0; r < a.schedules.size(); ++r) {
    const auto& lhs = a.schedules[r];
    const auto& rhs = b.schedules[r];
    ASSERT_EQ(lhs.has_value(), rhs.has_value()) << context << " round " << r;
    if (!lhs.has_value()) continue;
    EXPECT_EQ(lhs->feasible, rhs->feasible) << context << " round " << r;
    EXPECT_EQ(lhs->makespan_seconds, rhs->makespan_seconds)  // bitwise
        << context << " round " << r;
    EXPECT_TRUE(lhs->initial == rhs->initial) << context << " round " << r;
    ASSERT_EQ(lhs->rounds.size(), rhs->rounds.size())
        << context << " round " << r;
    for (std::size_t u = 0; u < lhs->rounds.size(); ++u) {
      const auto& lr = lhs->rounds[u];
      const auto& rr = rhs->rounds[u];
      EXPECT_EQ(lr.duration_seconds, rr.duration_seconds);
      ASSERT_EQ(lr.moves.size(), rr.moves.size());
      for (std::size_t m = 0; m < lr.moves.size(); ++m) {
        EXPECT_EQ(lr.moves[m].kind, rr.moves[m].kind);
        EXPECT_EQ(lr.moves[m].demand_index, rr.moves[m].demand_index);
        EXPECT_EQ(lr.moves[m].volume.value, rr.moves[m].volume.value);
        EXPECT_EQ(lr.moves[m].edges, rr.moves[m].edges);
        EXPECT_EQ(lr.moves[m].edge.value, rr.moves[m].edge.value);
        EXPECT_EQ(lr.moves[m].duration_seconds, rr.moves[m].duration_seconds);
      }
    }
  }
}

constexpr std::uint64_t kSeed = 31;
constexpr std::size_t kRounds = 14;

TEST(UpdateDifferential, ScheduledApplyMatchesAtomicApplyAtEveryPoolSize) {
  const Fixture fixture = make_fixture(kSeed, kRounds);
  const ArmResult atomic = run_arm(fixture, false, 1);
  const ArmResult scheduled_serial = run_arm(fixture, true, 1);
  // The comparison only means something if the stage actually planned
  // non-trivial schedules.
  ASSERT_GT(scheduled_serial.feasible_schedules, 0u);
  EXPECT_EQ(scheduled_serial.validated_schedules,
            scheduled_serial.feasible_schedules);
  expect_signatures_equal(atomic, scheduled_serial, "pool 1 scheduled");
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::string context = "pool " + std::to_string(threads);
    expect_signatures_equal(atomic, run_arm(fixture, false, threads),
                            context + " atomic");
    const ArmResult scheduled = run_arm(fixture, true, threads);
    expect_signatures_equal(atomic, scheduled, context + " scheduled");
    expect_schedules_equal(scheduled_serial, scheduled, context);
  }
}

TEST(UpdateDifferential, ExecutedSchedulesConvergeIncludingMidRestore) {
  const Fixture fixture = make_fixture(kSeed, kRounds);
  const ArmResult scheduled = run_arm(fixture, true, 1);
  std::size_t executed = 0;
  for (std::size_t r = 0; r < scheduled.schedules.size(); ++r) {
    const auto& maybe = scheduled.schedules[r];
    if (!maybe.has_value() || !maybe->feasible || maybe->rounds.empty())
      continue;
    const update::UpdateSchedule& schedule = *maybe;
    // Uninterrupted execution: commits everything, every transient clean.
    update::ScheduleExecutor reference(fixture.topology, schedule);
    reference.run([&](const update::DataplaneState& state) {
      std::string violation;
      EXPECT_TRUE(update::check_dataplane(fixture.topology, schedule, state,
                                          &violation))
          << "controller round " << r << ": " << violation;
    });
    ASSERT_TRUE(reference.result().completed) << "controller round " << r;
    ++executed;
  }
  // Vacuity guard: the fixture must execute at least one schedule.
  EXPECT_GT(executed, 0u);
}

}  // namespace
}  // namespace rwc
