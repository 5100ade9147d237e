// Differential layer for closed-loop demand estimation (docs/DEMAND.md):
// on zero-noise counters with on-grid true volumes the estimated-demand
// control loop must reproduce the oracle-demand loop's round signatures
// BIT-IDENTICALLY (the exact-recovery certificate makes the estimate the
// truth), the estimated loop's signature chain must be invariant to the
// thread-pool size, and noisy estimation must degrade gracefully — every
// round still satisfies the capacity bound and flow conservation, and every
// estimate stays finite and non-negative. On under-determined instances
// the estimator's link-space damped solve must match the dense OD-space
// ridge of tests/support/dense_ridge.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "demand/counters.hpp"
#include "demand/estimator.hpp"
#include "demand/routing_matrix.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "prop/invariants.hpp"
#include "replay/driver.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/dense_ridge.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using replay::ReplayConfig;
using replay::ReplayDriver;

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
  ReplayConfig config;
};

/// Instance fixture with ON-GRID demand volumes: the exact-recovery
/// certificate compares re-synthesized counters bitwise, so oracle
/// equivalence needs truths the 1e-6 Gbps estimate grid can represent
/// (docs/DEMAND.md §4). Diurnal scaling is off for the same reason — a
/// scaled volume falls off the grid.
Fixture make_fixture(std::uint64_t seed, std::uint64_t rounds) {
  util::Rng rng = util::Rng::stream(seed, 1);
  Fixture fixture;
  fixture.topology = sim::waxman(9, rng);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{fixture.topology.total_capacity().value * 0.5};
  fixture.demands = sim::gravity_matrix(fixture.topology, gravity, rng);
  for (te::Demand& demand : fixture.demands)
    demand.volume = util::Gbps{demand::snap_to_grid(demand.volume.value)};
  fixture.config.rounds = rounds;
  fixture.config.diurnal = false;
  fixture.config.hysteresis = core::HysteresisParams{};
  fixture.config.seed = util::Rng::stream(seed, 2).next_u64();
  return fixture;
}

std::vector<prop::RoundSignature> run_arm(const Fixture& fixture,
                                          const ReplayConfig& config,
                                          std::uint64_t* chain = nullptr) {
  te::McfTe engine;
  ReplayDriver driver(fixture.topology, engine, fixture.demands, config);
  std::vector<prop::RoundSignature> signatures;
  while (!driver.done()) signatures.push_back(prop::signature_of(driver.step()));
  if (chain != nullptr) *chain = driver.signature_chain();
  return signatures;
}

TEST(DemandDifferential, ZeroNoiseEstimatedMatchesOracleOnEveryRound) {
  for (const std::uint64_t seed : {11u, 23u}) {
    const Fixture fixture = make_fixture(seed, 16);

    ReplayConfig oracle = fixture.config;
    std::uint64_t oracle_chain = 0;
    const auto oracle_arm = run_arm(fixture, oracle, &oracle_chain);

    ReplayConfig estimated = fixture.config;
    estimated.demand.source = demand::DemandSource::kEstimated;
    const auto& exact_counter =
        obs::Registry::global().counter("demand.estimates_exact");
    const std::uint64_t exact_before = exact_counter.value();
    std::uint64_t estimated_chain = 0;
    const auto estimated_arm = run_arm(fixture, estimated, &estimated_chain);

    ASSERT_EQ(oracle_arm.size(), estimated_arm.size());
    for (std::size_t r = 0; r < oracle_arm.size(); ++r) {
      const prop::InvariantResult check = prop::check_signatures_equal(
          oracle_arm[r], estimated_arm[r],
          "seed " + std::to_string(seed) + ", round " + std::to_string(r));
      ASSERT_TRUE(check.ok) << check.detail;
    }
    EXPECT_EQ(oracle_chain, estimated_chain) << "seed " << seed;
    // Vacuity: the equivalence must come from certified exact recoveries,
    // not from the estimator never running. Round 0 bootstraps from intent
    // (no installed routing to invert); every later round must certify.
    EXPECT_GE(exact_counter.value() - exact_before, fixture.config.rounds - 1)
        << "seed " << seed;
  }
}

TEST(DemandDifferential, EstimatedChainInvariantToPoolSizes) {
  const Fixture fixture = make_fixture(37, 12);
  ReplayConfig config = fixture.config;
  config.demand.source = demand::DemandSource::kEstimated;
  config.demand.noise = 0.02;  // exercise the damped/noisy solve path too

  std::uint64_t reference_chain = 0;
  const auto reference = run_arm(fixture, config, &reference_chain);

  for (const std::size_t pool_threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(pool_threads);
    ReplayConfig pooled = config;
    pooled.pool = &pool;
    std::uint64_t chain = 0;
    const auto got = run_arm(fixture, pooled, &chain);
    ASSERT_EQ(reference.size(), got.size()) << "pool=" << pool_threads;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      const prop::InvariantResult check = prop::check_signatures_equal(
          reference[r], got[r],
          "pool=" + std::to_string(pool_threads) + ", round " +
              std::to_string(r));
      ASSERT_TRUE(check.ok) << check.detail;
    }
    EXPECT_EQ(chain, reference_chain) << "pool=" << pool_threads;
  }
}

TEST(DemandDifferential, NoisyEstimationDegradesGracefully) {
  // With 5% counter noise and packet loss the estimate cannot match the
  // oracle — but the CONTROL LOOP must stay sound: configured rates never
  // exceed what the observed SNR supports, accepted routings conserve flow
  // on the current topology, and every estimated volume is finite and
  // non-negative (the estimator's hard output contract).
  const Fixture fixture = make_fixture(53, 12);
  ReplayConfig config = fixture.config;
  config.demand.source = demand::DemandSource::kEstimated;
  config.demand.noise = 0.05;
  config.demand.loss_rate = 0.01;

  te::McfTe engine;
  ReplayDriver driver(fixture.topology, engine, fixture.demands, config);
  std::uint64_t estimator_rounds = 0;
  driver.set_round_observer(
      [&](std::uint64_t round, std::span<const util::Db> snr,
          const core::DynamicCapacityController::RoundReport& report) {
        const auto& controller = driver.controller();
        const prop::InvariantResult bound = prop::check_capacity_bound(
            controller.table(), snr, config.snr_margin,
            controller.configured_capacities());
        ASSERT_TRUE(bound.ok) << "round " << round << ": " << bound.detail;
        const prop::InvariantResult flow = prop::check_flow_conservation(
            controller.current_topology(), report.plan.physical_assignment);
        ASSERT_TRUE(flow.ok) << "round " << round << ": " << flow.detail;

        ASSERT_TRUE(report.demand.has_value()) << "round " << round;
        const demand::DemandPipeline* pipeline = controller.demand_pipeline();
        ASSERT_NE(pipeline, nullptr);
        for (const te::Demand& demand : pipeline->last_estimated()) {
          EXPECT_TRUE(std::isfinite(demand.volume.value)) << "round " << round;
          EXPECT_GE(demand.volume.value, 0.0) << "round " << round;
        }
        if (report.demand->estimated) ++estimator_rounds;
      });
  driver.run();
  EXPECT_GT(estimator_rounds, 0u)
      << "noisy arm never ran a least-squares solve — vacuous test";
}

/// Per OD, its routing column: (link, fraction) pairs.
using Columns = std::vector<std::vector<std::pair<std::size_t, double>>>;

/// `ods` random columns over `links` links: each OD splits over one to
/// three paths of one to four random links, the split fractions summing
/// to one, and a link two paths share carries their sum.
Columns random_columns(std::size_t links, std::size_t ods, util::Rng& rng) {
  Columns columns(ods);
  for (auto& column : columns) {
    std::map<std::size_t, double> fraction_of;
    const auto paths = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t p = 0; p < paths; ++p) {
      const double share = 1.0 / static_cast<double>(paths);
      const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 4));
      std::vector<std::size_t> path;
      for (std::size_t h = 0; h < hops; ++h) {
        const auto link = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(links) - 1));
        if (std::find(path.begin(), path.end(), link) == path.end())
          path.push_back(link);
      }
      for (const std::size_t link : path) fraction_of[link] += share;
    }
    column.assign(fraction_of.begin(), fraction_of.end());
  }
  return columns;
}

/// The routing matrix of `columns`: every OD observable, each row's
/// entries in ascending OD order.
demand::RoutingMatrix matrix_of(std::size_t links, const Columns& columns) {
  demand::RoutingMatrix matrix;
  matrix.links = links;
  matrix.ods = columns.size();
  matrix.rows.resize(links);
  matrix.observable.assign(columns.size(), 1);
  for (std::size_t j = 0; j < columns.size(); ++j)
    for (const auto& [link, fraction] : columns[j])
      matrix.rows[link].push_back({static_cast<std::uint32_t>(j), fraction});
  return matrix;
}

/// Estimates `truth` back from 1%-noise counters over `matrix`, with the
/// links in `missing` unreported, and checks that the estimate took the
/// damped solve and matches the dense OD-space ridge within 1e-9 of the
/// reference's largest volume.
void expect_matches_dense_ridge(const demand::RoutingMatrix& matrix,
                                const std::vector<double>& truth,
                                const std::vector<double>& intent,
                                const std::vector<double>& prior,
                                const std::vector<std::size_t>& missing,
                                std::uint64_t round, const std::string& label) {
  demand::DemandConfig config;
  config.source = demand::DemandSource::kEstimated;
  config.noise = 0.01;
  config.seed = 41;
  demand::CounterSet counters =
      demand::synthesize_counters(matrix, truth, {}, config, round);
  for (const std::size_t link : missing)
    counters.samples[link].missing = true;

  const demand::EstimateResult estimate =
      demand::estimate_od_volumes(matrix, counters, intent, prior, config);
  const std::vector<double> reference = demand::dense_ridge_estimate(
      matrix, counters, intent, prior, config.interval_seconds);
  ASSERT_EQ(reference.size(), estimate.volumes.size()) << label;
  EXPECT_TRUE(estimate.stats.damped) << label;
  EXPECT_FALSE(estimate.stats.exact) << label;

  double scale = 0.0;
  double error = 0.0;
  for (std::size_t j = 0; j < reference.size(); ++j) {
    scale = std::max(scale, std::abs(reference[j]));
    error = std::max(error, std::abs(estimate.volumes[j] - reference[j]));
  }
  ASSERT_GT(scale, 0.0) << label;
  EXPECT_LE(error, 1e-9 * scale) << label << ": max |link - dense| "
                                 << error << " at scale " << scale;
}

std::vector<double> random_volumes(std::size_t ods, double low, double high,
                                   util::Rng& rng) {
  std::vector<double> volumes(ods);
  for (double& volume : volumes) volume = rng.uniform(low, high);
  return volumes;
}

// More ODs than usable links, so the undamped attempt is skipped: random
// sizes and splits, some links unreported, cold and warm priors.
TEST(DemandDifferential, LinkSpaceRidgeMatchesDenseReferenceUnderdetermined) {
  util::Rng rng = util::Rng::stream(2017, 1);
  for (std::uint64_t instance = 0; instance < 40; ++instance) {
    const auto links = static_cast<std::size_t>(rng.uniform_int(2, 24));
    const auto ods = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(links) + 1,
        3 * static_cast<std::int64_t>(links)));
    const demand::RoutingMatrix matrix =
        matrix_of(links, random_columns(links, ods, rng));
    const std::vector<double> truth = random_volumes(ods, 1.0, 100.0, rng);
    const std::vector<double> intent = random_volumes(ods, 1.0, 100.0, rng);
    std::vector<double> prior;
    if (instance % 2 == 1) {
      prior = truth;
      for (double& volume : prior) volume *= rng.uniform(0.8, 1.2);
    }
    std::vector<std::size_t> missing;
    if (instance % 3 == 2) missing.push_back(instance % links);
    expect_matches_dense_ridge(matrix, truth, intent, prior, missing,
                               instance,
                               "instance " + std::to_string(instance));
  }
}

// One OD more than there are links: the smallest under-determined size.
TEST(DemandDifferential, LinkSpaceRidgeMatchesDenseReferenceOneOdOverLinks) {
  util::Rng rng = util::Rng::stream(2017, 2);
  for (std::size_t links = 1; links <= 24; ++links) {
    const std::size_t ods = links + 1;
    const demand::RoutingMatrix matrix =
        matrix_of(links, random_columns(links, ods, rng));
    const std::vector<double> truth = random_volumes(ods, 1.0, 100.0, rng);
    const std::vector<double> intent = random_volumes(ods, 1.0, 100.0, rng);
    expect_matches_dense_ridge(matrix, truth, intent, {}, {}, links,
                               "links " + std::to_string(links));
  }
}

// Duplicated routing columns make R^T R singular even with fewer ODs than
// links, so the undamped attempt runs and refuses, and with more ODs too.
TEST(DemandDifferential, LinkSpaceRidgeMatchesDenseReferenceDuplicatedColumns) {
  util::Rng rng = util::Rng::stream(2017, 3);
  for (std::uint64_t instance = 0; instance < 20; ++instance) {
    const auto links = static_cast<std::size_t>(rng.uniform_int(6, 20));
    const std::size_t ods =
        instance % 2 == 0 ? links / 2 : links + links / 2;
    Columns columns = random_columns(links, ods, rng);
    for (std::size_t j = 1; j < ods; j += 3) columns[j] = columns[j - 1];
    const demand::RoutingMatrix matrix = matrix_of(links, columns);
    const std::vector<double> truth = random_volumes(ods, 1.0, 100.0, rng);
    const std::vector<double> intent = random_volumes(ods, 1.0, 100.0, rng);
    expect_matches_dense_ridge(matrix, truth, intent, {}, {}, instance,
                               "instance " + std::to_string(instance) +
                                   ", " + std::to_string(ods) + " ODs over " +
                                   std::to_string(links) + " links");
  }
}

// A prior far from the truth, up to twenty times the largest true volume
// or zero, pulls some ridge components negative; both sides project them
// onto zero.
TEST(DemandDifferential, LinkSpaceRidgeMatchesDenseReferenceFarPrior) {
  util::Rng rng = util::Rng::stream(2017, 4);
  for (std::uint64_t instance = 0; instance < 20; ++instance) {
    const auto links = static_cast<std::size_t>(rng.uniform_int(4, 20));
    const std::size_t ods = 2 * links;
    const demand::RoutingMatrix matrix =
        matrix_of(links, random_columns(links, ods, rng));
    const std::vector<double> truth = random_volumes(ods, 1.0, 100.0, rng);
    const std::vector<double> prior =
        instance % 4 == 3 ? std::vector<double>(ods, 0.0)
                          : random_volumes(ods, 0.0, 2000.0, rng);
    expect_matches_dense_ridge(matrix, truth, truth, prior, {}, instance,
                               "instance " + std::to_string(instance));
  }
}

}  // namespace
}  // namespace rwc
