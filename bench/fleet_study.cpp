// Fleet-scale deployment study (docs/FLEET.md, EXPERIMENTS.md §2 table).
//
// Runs a sharded fleet of sampled WAN instances through the full
// replay/controller pipeline and prints the paper-shaped deployment
// numbers: the per-link capability CDF over the modulation ladder (§2.1),
// the fraction of failure events retaining crawl capacity (§2.2), and the
// incremental re-solve hot-path economics (hit rate, rounds/sec, median
// stable-round speedup).
//
// Flags:
//   --instances N    fleet size (default 1000)
//   --shards N       shard count (default 8; results are invariant)
//   --rounds N       TE rounds per instance (default 96)
//   --seed N         fleet seed (default 20170701, the repo's pinned seed)
//   --engine mcf|swan
//   --demand oracle|estimated
//                    demand source for every instance (docs/DEMAND.md):
//                    oracle feeds the true matrix, estimated closes the
//                    loop through link counters and the OD estimator
//   --demand-noise F relative counter noise for --demand estimated
//                    (default 0; the zero-noise fleet numbers match the
//                    oracle fleet numbers bit-for-bit)
//   --faults SPEC    arm a fault plan (RWC_FAULTS grammar) around the run;
//                    parallel-keyed sites only (docs/FLEET.md)
//   --full           disable the incremental hot path
//   --json PATH      dump the obs registry (fleet.*, solver.incremental_*)
//   --study-json PATH  dump the DeploymentStudy JSON (EXPERIMENTS.md table)
//   --selfcheck      differential + speedup gate (exits non-zero on any
//                    divergence between incremental and full re-solve, on
//                    shard-count or reuse-flag variance, or when the median
//                    stable-round speedup falls below 2x); used by the
//                    tier2 ctest
//
// The --selfcheck fixture is deliberately small so the registered ctest
// stays in seconds; the full study is the default invocation.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/registry.hpp"
#include "fleet/fleet.hpp"
#include "fleet/study.hpp"
#include "obs/timer.hpp"
#include "replay/driver.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace {

using rwc::fleet::DeploymentStudy;
using rwc::fleet::FleetConfig;
using rwc::fleet::FleetResult;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Round-resolved probe of the re-solve ladder (docs/SOLVERS.md): one
/// instance-shaped replay run twice over identical inputs — full re-solve,
/// then incremental with prefix reuse — comparing every round's wall time
/// and result. Rounds split three ways in the incremental arm: stable
/// (memo-served), perturbed (missed the memo with few dirty links,
/// classified at <= 5% dirty), and reconfigured (everything else).
/// `identical` reports whether every round's signature content matched
/// bitwise.
struct ProbeResult {
  double stable_round_speedup = 0.0;
  std::uint64_t stable_rounds = 0;
  /// Median full-arm / incremental-arm wall time over the perturbed
  /// rounds: what reuse saves versus solving those rounds cold.
  double perturbed_round_speedup = 0.0;
  /// Median perturbed-round latency over median stable-round latency in
  /// the incremental arm: how close "little changed" comes to "nothing
  /// changed".
  double perturbed_vs_stable_ratio = 0.0;
  std::uint64_t perturbed_rounds = 0;
  /// Perturbed rounds whose solve reused earlier work (prefix resume).
  std::uint64_t partial_rounds = 0;
  std::uint64_t rounds = 0;
  bool identical = true;
};

ProbeResult probe_speedup(std::uint64_t seed, std::uint64_t rounds) {
  rwc::util::Rng rng = rwc::util::Rng::stream(seed, 1);
  rwc::graph::Graph topology = rwc::sim::waxman(24, rng);
  rwc::sim::GravityParams gravity;
  gravity.total =
      rwc::util::Gbps{topology.total_capacity().value * 0.5};
  const rwc::te::TrafficMatrix demands =
      rwc::sim::gravity_matrix(topology, gravity, rng);

  rwc::replay::ReplayConfig config;
  config.rounds = rounds;
  config.diurnal = false;  // stable demands: the hot path's home turf
  config.hysteresis = rwc::core::HysteresisParams{};  // see FleetConfig
  config.seed = rwc::util::Rng::stream(seed, 2).next_u64();

  struct Round {
    double seconds = 0.0;
    std::uint64_t chain = 0.0;
    bool hit = false;
    bool partial = false;
    double dirty_fraction = 0.0;
  };
  const auto run_arm = [&](bool incremental) {
    rwc::replay::ReplayConfig arm_config = config;
    arm_config.incremental = incremental;
    rwc::te::McfTe::Options options;
    options.prefix_reuse = incremental;  // the incremental arm reuses
    rwc::te::McfTe engine(options);
    rwc::replay::ReplayDriver driver(topology, engine, demands, arm_config);
    std::vector<Round> out;
    out.reserve(rounds);
    while (!driver.done()) {
      const auto report = driver.step();
      out.push_back(Round{report.stats.total_seconds,
                          driver.signature_chain(),
                          report.stats.incremental_hit,
                          report.stats.partial_resolve,
                          report.stats.dirty_fraction});
    }
    return out;
  };

  const std::vector<Round> full = run_arm(false);
  const std::vector<Round> incremental = run_arm(true);

  ProbeResult result;
  result.rounds = rounds;
  std::vector<double> full_stable;
  std::vector<double> incremental_stable;
  std::vector<double> full_perturbed;
  std::vector<double> incremental_perturbed;
  for (std::size_t r = 0; r < full.size(); ++r) {
    if (full[r].chain != incremental[r].chain) result.identical = false;
    if (incremental[r].hit) {
      full_stable.push_back(full[r].seconds);
      incremental_stable.push_back(incremental[r].seconds);
    } else if (incremental[r].dirty_fraction > 0.0 &&
               incremental[r].dirty_fraction <= 0.05) {
      full_perturbed.push_back(full[r].seconds);
      incremental_perturbed.push_back(incremental[r].seconds);
      if (incremental[r].partial) ++result.partial_rounds;
    }
  }
  result.stable_rounds = full_stable.size();
  result.perturbed_rounds = full_perturbed.size();
  const double incremental_median = median(incremental_stable);
  if (incremental_median > 0.0)
    result.stable_round_speedup = median(full_stable) / incremental_median;
  const double perturbed_median = median(incremental_perturbed);
  if (perturbed_median > 0.0)
    result.perturbed_round_speedup = median(full_perturbed) / perturbed_median;
  if (incremental_median > 0.0)
    result.perturbed_vs_stable_ratio = perturbed_median / incremental_median;
  return result;
}

std::optional<std::string> arg_value(int argc, char** argv,
                                     const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return std::string(argv[i + 1]);
  return std::nullopt;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

void print_study(const DeploymentStudy& study, double rounds_per_sec) {
  std::printf("instances          %llu\n",
              static_cast<unsigned long long>(study.instances));
  std::printf("links              %llu\n",
              static_cast<unsigned long long>(study.links));
  std::printf("capability CDF (fraction of links at or above):\n");
  for (const auto& point : study.capability_cdf)
    std::printf("  >= %5.0f Gbps    %6.1f%%\n", point.rate_gbps,
                100.0 * point.fraction);
  std::printf("potential gain     %.1f Tbps total, %.1f Gbps/link mean\n",
              study.total_gain_gbps / 1000.0, study.mean_gain_gbps);
  std::printf("failure events     %llu (%llu retained crawl: %.1f%%)\n",
              static_cast<unsigned long long>(study.failure_events),
              static_cast<unsigned long long>(study.crawl_retained_events),
              100.0 * study.crawl_retention_fraction);
  std::printf("availability       %.4f\n", study.availability);
  std::printf("delivered fraction %.4f\n", study.delivered_fraction);
  std::printf("rounds             %llu (%.1f rounds/sec)\n",
              static_cast<unsigned long long>(study.total_rounds),
              rounds_per_sec);
  std::printf("incremental hits   %llu (%.1f%% of rounds)\n",
              static_cast<unsigned long long>(study.incremental_hits),
              100.0 * study.incremental_hit_rate);
  std::printf("partial re-solves  %llu (%.1f%% of memo misses)\n",
              static_cast<unsigned long long>(study.partial_rounds),
              100.0 * study.partial_hit_rate);
}

}  // namespace

int main(int argc, char** argv) {
  rwc::bench::JsonExportGuard json_guard(argc, argv);

  FleetConfig config;
  config.instances = 1000;
  config.shards = 8;
  config.rounds = 96;
  config.seed = rwc::bench::kFleetSeed;
  const bool selfcheck = has_flag(argc, argv, "--selfcheck");
  if (selfcheck) {
    // Small fixture: the gate must run in seconds under ctest.
    config.instances = 8;
    config.rounds = 12;
    config.shards = 2;
  }
  if (const auto v = arg_value(argc, argv, "--instances"))
    config.instances = static_cast<std::size_t>(std::stoull(*v));
  if (const auto v = arg_value(argc, argv, "--shards"))
    config.shards = static_cast<std::size_t>(std::stoull(*v));
  if (const auto v = arg_value(argc, argv, "--rounds"))
    config.rounds = std::stoull(*v);
  if (const auto v = arg_value(argc, argv, "--seed"))
    config.seed = std::stoull(*v);
  if (const auto v = arg_value(argc, argv, "--engine"))
    config.engine = (*v == "swan") ? rwc::fleet::EngineKind::kSwan
                                   : rwc::fleet::EngineKind::kMcf;
  if (const auto v = arg_value(argc, argv, "--demand"))
    config.demand.source = (*v == "estimated")
                               ? rwc::demand::DemandSource::kEstimated
                               : rwc::demand::DemandSource::kOracle;
  if (const auto v = arg_value(argc, argv, "--demand-noise"))
    config.demand.noise = std::stod(*v);
  config.incremental = !has_flag(argc, argv, "--full");

  std::optional<rwc::fault::ScopedPlan> fault_plan;
  if (const auto v = arg_value(argc, argv, "--faults"))
    fault_plan.emplace(rwc::fault::FaultPlan::parse(*v));

  rwc::bench::print_header("Fleet deployment study (Run, Walk, Crawl §2)");

  // Hot-path probe: round-resolved differential + speedup measurement.
  const ProbeResult probe = probe_speedup(config.seed, 48);
  std::printf("hot-path probe     %llu/%llu stable rounds, median speedup "
              "%.2fx, results %s\n",
              static_cast<unsigned long long>(probe.stable_rounds),
              static_cast<unsigned long long>(probe.rounds),
              probe.stable_round_speedup,
              probe.identical ? "bit-identical" : "DIVERGED");
  std::printf("perturbed rounds   %llu (<=5%% dirty; %llu prefix reuse), "
              "median speedup %.2fx vs full, %.2fx stable-round latency\n",
              static_cast<unsigned long long>(probe.perturbed_rounds),
              static_cast<unsigned long long>(probe.partial_rounds),
              probe.perturbed_round_speedup,
              probe.perturbed_vs_stable_ratio);

  const rwc::obs::StopWatch watch;
  const FleetResult fleet = rwc::fleet::run_fleet(config);
  const double seconds = watch.seconds();
  const double rounds_per_sec =
      seconds > 0.0 ? static_cast<double>(fleet.total_rounds) / seconds : 0.0;
  const DeploymentStudy study = rwc::fleet::build_study(fleet);

  std::printf("fleet chain        %016llx\n",
              static_cast<unsigned long long>(fleet.fleet_chain));
  print_study(study, rounds_per_sec);

  // Snapshot gauges for the BENCH_fleet.json CI artifact (--json).
  auto& registry = rwc::obs::Registry::global();
  registry.gauge("fleet.study.rounds_per_sec").set(rounds_per_sec);
  registry.gauge("fleet.study.stable_round_speedup")
      .set(probe.stable_round_speedup);
  registry.gauge("fleet.study.partial_hit_rate").set(fleet.partial_hit_rate());

  if (const auto v = arg_value(argc, argv, "--study-json")) {
    std::ofstream out(*v);
    out << rwc::fleet::to_json(study);
  }

  if (!selfcheck) return 0;

  // --selfcheck: the acceptance gates, exercised on the small fixture.
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selfcheck FAILED: %s\n", what);
      ++failures;
    }
  };
  expect(probe.identical,
         "incremental rounds bit-identical to full re-solve");
  expect(probe.stable_rounds > 0, "probe saw stable rounds");
  expect(probe.stable_round_speedup >= 2.0,
         "median stable-round speedup >= 2x");
  expect(probe.perturbed_rounds > 0, "probe saw perturbed rounds");
  // The partial flag must be invisible to results, like the incremental
  // flag below.
  FleetConfig no_partial = config;
  no_partial.partial = !config.partial;
  expect(rwc::fleet::run_fleet(no_partial).fleet_chain == fleet.fleet_chain,
         "fleet chain invariant to partial flag");

  // Shard-count and hot-path invariance of the whole fleet.
  FleetConfig reshard = config;
  reshard.shards = config.shards == 1 ? 4 : 1;
  expect(rwc::fleet::run_fleet(reshard).fleet_chain == fleet.fleet_chain,
         "fleet chain invariant to shard count");
  FleetConfig full_config = config;
  full_config.incremental = !config.incremental;
  expect(rwc::fleet::run_fleet(full_config).fleet_chain == fleet.fleet_chain,
         "fleet chain invariant to incremental flag");
  return failures == 0 ? 0 : 1;
}
