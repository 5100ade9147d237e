// fleet_swan: fleet::run_instance over a sharded pool, SWAN engine, on
// calibrated SNR traces — the only workload on the LP simplex, PathCache
// and ReplayDriver.
//
// The benchmark shards instances exactly as fleet::run_fleet does
// (contiguous blocks, one shard per task, id-order fold) so it can time
// every instance; fleet::run_fleet itself runs the set-up and, after the
// measured window, one verification pass whose fleet chain must equal the
// benchmark's fold. The window repeats the same pass, so every pass must
// print the same chain, and each instance's time is its best over the
// passes (the fastest pass for the rate), which keeps the figures on the
// code rather than on the phases of a shared host.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fleet/fleet.hpp"

namespace rwc::perfbench {

namespace {

/// Pool workers besides the main thread, which waits while they run (the
/// thread budget is 4; two busy threads leave the shared host headroom).
constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kInstancesPerPass = 16;
constexpr std::size_t kShards = 8;
/// Short instances keep a pass near a second, so a window holds many
/// passes and each instance's best is taken across the whole window.
constexpr std::uint64_t kRounds = 48;
/// Instances an untraced run re-runs through fleet::run_fleet.
constexpr std::size_t kVerifyInstances = 4;
/// Set-ups timed before each pass of the untraced window.
constexpr std::size_t kSetupsPerPass = 3;

struct Pass {
  double start = 0.0;
  double end = 0.0;
  std::uint64_t chain = 0xcbf29ce484222325ULL;
  std::vector<fleet::InstanceResult> results;
  std::vector<double> instance_seconds;
  std::vector<double> shard_seconds;
};

/// Which of the pool's workers the calling thread is (0, 1, ...).
std::size_t worker_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1);
  return slot;
}

/// Runs one pass with its workers pinned to CPUs chosen by `index`.
Pass run_pass(const fleet::FleetConfig& config, exec::ThreadPool& pool,
              std::size_t index) {
  Pass pass;
  pass.results.resize(config.instances);
  pass.instance_seconds.resize(config.instances);
  pass.shard_seconds.resize(config.shards);
  pass.start = now_seconds();
  {
    const SpanScope span("bench.round", /*ambient=*/true);
    const std::size_t base = config.instances / config.shards;
    const std::size_t extra = config.instances % config.shards;
    exec::parallel_for(pool, config.shards, [&](std::size_t shard) {
      pin_to_cpu(index * kPoolWorkers + worker_slot());
      const double shard_start = now_seconds();
      const std::size_t begin = shard * base + std::min(shard, extra);
      const std::size_t end = begin + base + (shard < extra ? 1 : 0);
      for (std::size_t id = begin; id < end; ++id) {
        const double start = now_seconds();
        {
          const SpanScope instance_span("fleet.run_instance");
          pass.results[id] = fleet::run_instance(config, id);
        }
        pass.instance_seconds[id] = now_seconds() - start;
      }
      pass.shard_seconds[shard] = now_seconds() - shard_start;
    });
  }
  pass.end = now_seconds();
  for (const fleet::InstanceResult& result : pass.results)
    pass.chain = chain_mix(pass.chain, result.signature_chain);
  return pass;
}

/// Registry deltas of one fleet's work plus the per-instance attribution
/// counts the fleet folds (what run_fleet adds to fleet.*).
CounterValues fleet_work(const CounterValues& before,
                         const std::vector<fleet::InstanceResult>& results) {
  CounterValues work = counter_delta(read_counters(), before);
  std::uint64_t partial = 0;
  std::uint64_t hits = 0;
  for (const fleet::InstanceResult& result : results) {
    partial += result.partial_rounds;
    hits += result.incremental_hits;
  }
  work["fleet.partial_rounds"] = partial;
  work["fleet.incremental_hits"] = hits;
  return work;
}

}  // namespace

Report run_fleet_swan(const RunOptions& options) {
  Report report;
  exec::ThreadPool pool(kPoolWorkers);
  fleet::FleetConfig config;
  config.instances = kInstancesPerPass;
  config.shards = kShards;
  config.rounds = kRounds;
  // The population is fixed: per-instance cost is heavy-tailed (a few
  // instances carry hard LPs), so a seed-drawn population would make the
  // pass time a property of the draw rather than of the code.
  config.seed = kStructureSeed;
  config.engine = fleet::EngineKind::kSwan;
  config.pool = &pool;

  // Set-up: a one-round fleet of one instance per worker — topology,
  // trace generation, driver construction and the cold first round. The
  // untraced window runs kSetupsPerPass of them before every pass, so
  // set-ups are sampled across the whole window, not in one phase of the
  // host before it.
  fleet::FleetConfig cold = config;
  cold.instances = kPoolWorkers;
  cold.shards = kPoolWorkers;
  cold.rounds = 1;
  std::vector<double> setups;

  // Whole passes: another starts only while it would end within half a
  // pass of the window's end.
  const int windows = options.trace ? 2 : 1;
  Tracer& tracer = Tracer::instance();
  ThreadWatch threads;
  std::vector<Pass> passes[2];
  CounterValues first_work;
  for (int w = 0; w < windows; ++w) {
    tracer.enable(w == 1);
    const double t0 = now_seconds();
    do {
      for (std::size_t i = 0; w == 0 && i < kSetupsPerPass; ++i) {
        const double start = now_seconds();
        fleet::run_fleet(cold);
        setups.push_back(now_seconds() - start);
      }
      const CounterValues before = read_counters();
      passes[w].push_back(run_pass(config, pool, passes[w].size()));
      if (w == 0 && passes[0].size() == 1)
        first_work = fleet_work(before, passes[0].front().results);
      threads.sample(0.0);
    } while (now_seconds() - t0 +
                 0.5 * (passes[w].back().end - passes[w].back().start) <
             options.seconds);
  }
  tracer.enable(false);
  const double peak_rss = peak_rss_mb();

  // Every pass is the same work: same chain.
  const std::uint64_t chain = passes[0].front().chain;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  double offered = 0.0;
  double delivered = 0.0;
  std::uint64_t window_rounds = 0;
  for (int w = 0; w < 2; ++w) {
    for (const Pass& pass : passes[w]) {
      if (pass.chain != chain)
        report.fail("fleet passes disagree on the chain");
      for (const fleet::InstanceResult& result : pass.results) {
        ++attempted;
        const sim::SimulationMetrics& m = result.metrics;
        if (!(m.delivered_gbps_hours <= m.offered_gbps_hours * (1 + 1e-12)))
          ++failed;
        if (w == 0) {
          offered += m.offered_gbps_hours;
          delivered += m.delivered_gbps_hours;
          window_rounds += result.rounds;
        }
      }
    }
  }
  if (failed > 0) report.fail("an instance delivered more than offered");
  report.count(attempted, failed);

  // Verification: fleet::run_fleet, untimed. Instance inputs depend only
  // on (seed, id), so a prefix fleet must fold the pass's first chains.
  // Traced runs repeat the whole pass: it is the counter audit's second
  // run of the same work.
  fleet::FleetConfig check = config;
  if (!options.trace) check.instances = kVerifyInstances;
  fleet::FleetResult reference;
  const CounterValues before_reference = read_counters();
  {
    const SpanScope span("fleet.run_fleet");
    reference = fleet::run_fleet(check);
  }
  std::uint64_t expected = Pass{}.chain;
  for (std::size_t id = 0; id < check.instances; ++id)
    expected = chain_mix(expected, passes[0].front().results[id].signature_chain);
  const bool chain_match = reference.fleet_chain == expected;
  std::printf("%-28s %zu instances x %llu rounds, %zu shards, SWAN\n",
              "fleet pass", config.instances,
              static_cast<unsigned long long>(config.rounds), config.shards);
  std::printf("%-28s %016llx (%zu passes)\n", "fleet chain",
              static_cast<unsigned long long>(chain),
              passes[0].size() + passes[1].size());
  std::printf("%-28s %016llx %s (%zu instances)\n", "run_fleet chain",
              static_cast<unsigned long long>(reference.fleet_chain),
              chain_match ? "MATCH" : "MISMATCH", check.instances);
  if (!chain_match) report.fail("run_fleet disagrees with the sharded passes");
  threads.check(report);

  // Each instance's mean round in its fastest pass; the fastest pass.
  std::vector<double> round_ms(config.instances,
                               std::numeric_limits<double>::infinity());
  double fastest0 = std::numeric_limits<double>::infinity();
  for (const Pass& pass : passes[0]) {
    for (std::size_t id = 0; id < config.instances; ++id)
      round_ms[id] = std::min(round_ms[id], pass.instance_seconds[id] * 1e3 /
                                                static_cast<double>(kRounds));
    fastest0 = std::min(fastest0, pass.end - pass.start);
  }
  const double pass_rounds =
      static_cast<double>(window_rounds) / static_cast<double>(passes[0].size());

  std::printf("%-28s %zu passes, %llu instance-rounds\n", "measured",
              passes[0].size(), static_cast<unsigned long long>(window_rounds));
  report.set("setup_s", quantile(setups, 0.5), "s");
  report.set("rounds_per_s", pass_rounds / fastest0, "1/s");
  // A replayed instance runs its rounds back to back, so a round's SNR
  // sample is due when the previous round ends: reaction time and round
  // time coincide, measured per instance as its mean round.
  for (const char* metric : {"round", "react"}) {
    const std::string name(metric);
    report.set(name + "_p50_ms", quantile(round_ms, 0.5), "ms");
    report.set(name + "_p90_ms", quantile(round_ms, 0.9), "ms");
    report.set(name + "_p99_ms", quantile(round_ms, 0.99), "ms");
  }
  report.set("delivered_frac", offered > 0 ? delivered / offered : 0.0,
             "ratio");
  report.set("peak_rss_mb", peak_rss, "MiB");

  if (!options.trace) return report;

  audit_counters(report, first_work,
                 fleet_work(before_reference, reference.instances),
                 static_cast<double>(config.instances * config.rounds));

  const std::vector<Span> spans = tracer.spans();
  if (!options.spans_path.empty() &&
      !write_spans_csv(spans, options.spans_path))
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_path.c_str());
  const auto summary = summarize(spans);
  std::vector<double> instance_s;
  std::vector<double> imbalance;
  std::uint64_t hits = 0;
  std::uint64_t rounds1 = 0;
  double fastest1 = std::numeric_limits<double>::infinity();
  for (const Pass& pass : passes[1]) {
    instance_s.insert(instance_s.end(), pass.instance_seconds.begin(),
                      pass.instance_seconds.end());
    const double slowest =
        *std::max_element(pass.shard_seconds.begin(), pass.shard_seconds.end());
    imbalance.push_back(slowest / mean(pass.shard_seconds));
    for (const fleet::InstanceResult& result : pass.results) {
      hits += result.incremental_hits;
      rounds1 += result.rounds;
    }
    fastest1 = std::min(fastest1, pass.end - pass.start);
  }
  const double hit_frac =
      rounds1 > 0 ? static_cast<double>(hits) / static_cast<double>(rounds1)
                  : 0.0;
  const double rps1 = static_cast<double>(rounds1) /
                     static_cast<double>(passes[1].size()) / fastest1;
  const double rps0 = pass_rounds / fastest0;
  report.set("fleet.instance_ms.p50", quantile(instance_s, 0.5) * 1e3, "ms");
  report.set("fleet.instance_ms.p99", quantile(instance_s, 0.99) * 1e3, "ms");
  report.set("fleet.instance_ms.max", quantile(instance_s, 1.0) * 1e3, "ms");
  report.set("fleet.shard_imbalance", mean(imbalance), "ratio");
  report.set("fleet.memo_hit_frac", hit_frac, "ratio");
  report.set("core.memo_hit_frac", hit_frac, "ratio");
  report.set("trace.overhead_frac", rps0 > 0 ? 1.0 - rps1 / rps0 : 0.0,
             "ratio");
  emit_self_times(report, summary, static_cast<double>(rounds1));
  return report;
}

}  // namespace rwc::perfbench
