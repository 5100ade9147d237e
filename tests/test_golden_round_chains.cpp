// Golden round chains: the rolling signature chains and SimulationMetrics
// of small seeded ReplayDriver, ServeService and fleet::run_fleet runs,
// pinned bit-for-bit against tests/golden/round-chains.golden. A chain
// folds every round's upgrades, routed volume, penalty, flap counts and
// transition verdict, so drift in the controller, the per-round account or
// the signature fold shows up here, named by the run that moved. Doubles
// are committed as IEEE-754 bit patterns.
//
// Regenerating after an INTENDED behavior change:
//   RWC_GOLDEN_REGEN=1 ./build/tests/rwc_tests --gtest_filter='GoldenRoundChains.*'
// then commit the rewritten fixture alongside the change that explains it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "replay/driver.hpp"
#include "serve/service.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"

#ifndef RWC_GOLDEN_DIR
#error "RWC_GOLDEN_DIR must point at the committed fixture directory"
#endif

namespace rwc {
namespace {

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::string bits_of(double value) {
  return hex(std::bit_cast<std::uint64_t>(value));
}

/// offered delivered availability downtime failures flaps upgrades
/// restorations lock_failures te_rounds
std::string metrics_fields(const sim::SimulationMetrics& m) {
  std::ostringstream out;
  out << bits_of(m.offered_gbps_hours) << ' '
      << bits_of(m.delivered_gbps_hours) << ' ' << bits_of(m.availability)
      << ' ' << bits_of(m.reconfig_downtime_hours) << ' ' << m.link_failures
      << ' ' << m.link_flaps << ' ' << m.upgrades << ' ' << m.restorations
      << ' ' << m.lock_failures << ' ' << m.te_rounds;
  return out.str();
}

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix demands;
};

Fixture make_fixture(std::uint64_t seed, int nodes, double load) {
  util::Rng topo_rng = util::Rng::stream(seed, 0);
  Fixture f{sim::waxman(nodes, topo_rng), {}};
  util::Rng demand_rng = util::Rng::stream(seed, 1);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{f.topology.total_capacity().value * load};
  f.demands = sim::gravity_matrix(f.topology, gravity, demand_rng);
  return f;
}

/// name chain <metrics_fields>
std::string replay_line(const std::string& name, const te::TeAlgorithm& engine,
                        const replay::ReplayConfig& config) {
  const Fixture f = make_fixture(20170701, 10, 0.4);
  replay::ReplayDriver driver(f.topology, engine, f.demands, config);
  const sim::SimulationMetrics metrics = driver.run();
  return name + ' ' + hex(driver.signature_chain()) + ' ' +
         metrics_fields(metrics);
}

replay::ReplayConfig replay_config(std::uint64_t rounds) {
  replay::ReplayConfig config;
  config.rounds = rounds;
  config.seed = 11;
  config.chunk_rounds = 16;
  return config;
}

/// serve chain rounds epochs invalid_transitions reductions restorations
/// upgrades. Hysteresis and the update stage on; seeded SNR and demand
/// events every round, and at round 4 the most loaded link's SNR drops to
/// a 50 G-only reading (a forced reduction under load), recovering at 8.
std::string serve_line() {
  const Fixture f = make_fixture(99, 8, 0.35);
  const te::McfTe engine;
  serve::ServeConfig config;
  config.seed = 5;
  config.hysteresis = core::HysteresisParams{};
  config.update = update::SchedulerConfig{};
  serve::ServeService service(f.topology, engine, f.demands, config);

  util::Rng rng = util::Rng::stream(5, 3);
  const auto edges = static_cast<std::int64_t>(f.topology.edge_count());
  const auto demand_count = static_cast<std::int64_t>(f.demands.size());
  std::uint32_t forced_edge = 0;
  std::size_t invalid = 0, reductions = 0, restorations = 0, upgrades = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 2; ++i)
      service.queue().offer(
          {serve::IngestType::kSnr,
           static_cast<std::uint32_t>(rng.uniform_int(0, edges - 1)),
           rng.uniform(12.0, 18.0)});
    const auto slot = static_cast<std::size_t>(
        rng.uniform_int(0, demand_count - 1));
    service.queue().offer(
        {serve::IngestType::kDemand, static_cast<std::uint32_t>(slot),
         f.demands[slot].volume.value * rng.uniform(0.8, 1.3)});
    if (round == 4) {
      const std::vector<double>& load =
          service.controller().last_assignment().edge_load_gbps;
      forced_edge = static_cast<std::uint32_t>(
          std::max_element(load.begin(), load.end()) - load.begin());
      service.queue().offer({serve::IngestType::kSnr, forced_edge, 5.0});
    }
    if (round == 8)
      service.queue().offer({serve::IngestType::kSnr, forced_edge, 15.0});
    const serve::ServeService::RoundReport report = service.step();
    invalid += report.transition_valid ? 0 : 1;
    reductions += report.reductions.size();
    restorations += report.restorations.size();
    upgrades += report.plan.upgrades.size();
  }
  std::ostringstream out;
  out << "serve " << hex(service.signature_chain()) << ' ' << service.round()
      << ' ' << service.epochs_published() << ' ' << invalid << ' '
      << reductions << ' ' << restorations << ' ' << upgrades;
  return out.str();
}

/// fleet-<i> chain <metrics_fields>, then
/// fleet fleet_chain total_rounds failure_events crawl_retained_events
std::vector<std::string> fleet_lines() {
  fleet::FleetConfig config;
  config.instances = 3;
  config.shards = 2;
  config.rounds = 12;
  config.seed = 23;
  config.min_nodes = 8;
  config.max_nodes = 10;
  const fleet::FleetResult result = fleet::run_fleet(config);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < result.instances.size(); ++i)
    lines.push_back("fleet-" + std::to_string(i) + ' ' +
                    hex(result.instances[i].signature_chain) + ' ' +
                    metrics_fields(result.instances[i].metrics));
  std::ostringstream out;
  out << "fleet " << hex(result.fleet_chain) << ' ' << result.total_rounds
      << ' ' << result.failure_events << ' ' << result.crawl_retained_events;
  lines.push_back(out.str());
  return lines;
}

std::vector<std::string> golden_lines() {
  std::vector<std::string> lines;
  const te::McfTe mcf;
  lines.push_back(replay_line("replay-mcf-oracle", mcf, replay_config(48)));
  {
    replay::ReplayConfig config = replay_config(48);
    config.demand.source = demand::DemandSource::kEstimated;
    config.demand.noise = 0.05;
    lines.push_back(replay_line("replay-mcf-estimated", mcf, config));
  }
  const te::SwanTe swan;
  lines.push_back(replay_line("replay-swan", swan, replay_config(24)));
  lines.push_back(serve_line());
  for (std::string& line : fleet_lines()) lines.push_back(std::move(line));
  return lines;
}

TEST(GoldenRoundChains, MatchFixture) {
  const std::filesystem::path path =
      std::filesystem::path(RWC_GOLDEN_DIR) / "round-chains.golden";
  const std::vector<std::string> lines = golden_lines();

  if (std::getenv("RWC_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << '\n';
    GTEST_SKIP() << "regenerated " << path << " — commit it";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) expected.push_back(line);
  ASSERT_EQ(expected.size(), lines.size()) << "fixture " << path;
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], expected[i])
        << "run " << i << " drifted from " << path;
}

}  // namespace
}  // namespace rwc
