// loop_dataplane: a 12-node WAN whose control loop the benchmark closes
// from public calls, one round at a time:
//
//   DemandPipeline::round   estimate OD demand from the previous round's
//                           dataplane counters (synthetic on round 0)
//   run_round               augment -> solve -> translate -> consolidate
//   plan_schedule, validate_schedule, ScheduleExecutor::run
//   build_timeline, DataplaneSim::run_round
//   counter_observations    -> counters_from_observations -> push_replay
//
// The loop is closed: round r+1 starts when round r's counters are fed
// back. Every round must pass the dataplane cross-check oracle (goodput
// within tolerance of the solver allocation, no capacity violation outside
// update windows, byte conservation). The loop is a pure function of the
// seed, so the window runs it in passes: each pass builds a fresh loop,
// runs the cold first round as set-up and then kPassRounds measured
// rounds, all passes doing the same work and folding the same chain. Each
// round's time is the best over the passes, which keeps the figures on
// the code rather than on the phases of a shared host.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/controller.hpp"
#include "dataplane/counters.hpp"
#include "dataplane/dataplane.hpp"
#include "demand/pipeline.hpp"
#include "demand/routing_matrix.hpp"
#include "exec/thread_pool.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "timed_engine.hpp"
#include "update/executor.hpp"
#include "update/schedule.hpp"
#include "util/rng.hpp"

namespace rwc::perfbench {

namespace {

/// Pool workers besides the loop thread (the thread budget is 4).
constexpr std::size_t kPoolWorkers = 0;
/// Rounds the verification pass reproduces (the set-up round included).
constexpr std::size_t kChainRounds = 16;
/// Measured rounds of one pass, after its cold first round. Short passes
/// mean many of them per window, so each round's best is taken over
/// samples spread across the whole window.
constexpr std::size_t kPassRounds = 32;
/// Rounds between recovery fronts of the SNR schedule.
constexpr std::size_t kFrontPeriod = 4;
/// Oracle tolerances, as in dataplane::run_xcheck.
constexpr double kGapTolerance = 0.02;
constexpr double kOvershootTolerance = 0.02;
constexpr double kMinAllocGbps = 1e-3;
constexpr double kConservationRelTol = 1e-9;
constexpr double kConservationAbsBytes = 1.0;

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix intent;
};

Fixture make_fixture() {
  util::Rng rng = util::Rng::stream(kStructureSeed, 0x4c4f4f50);
  Fixture fixture{sim::waxman(12, rng), {}};
  sim::GravityParams gravity;
  gravity.total =
      util::Gbps{fixture.topology.total_capacity().value * 0.4};
  fixture.intent = sim::gravity_matrix(fixture.topology, gravity, rng);
  // On the estimator's grid, so clean counters certify exact recovery.
  for (te::Demand& demand : fixture.intent)
    demand.volume = util::Gbps{demand::snap_to_grid(demand.volume.value)};
  return fixture;
}

struct LoopRound {
  double start = 0.0;
  double planned = 0.0;  ///< schedule executed: the plan is installed
  double end = 0.0;
  bool ok = true;
  std::string failure;
  bool exact = false;
  bool memo_hit = false;
  double evaluations = 0.0;
  double upgrades = 0.0;
  double update_rounds = 0.0;
  double update_moves = 0.0;
  double injected_bytes = 0.0;
  double delivered_bytes = 0.0;
  double dropped_bytes = 0.0;
  double migrations = 0.0;
  double rate_cuts = 0.0;
  double flowlet_ticks = 0.0;
};

/// One closed loop: controller, dataplane, demand pipeline and the SNR
/// random walk, all owned here. `engine` must outlive the loop.
class Loop {
 public:
  Loop(const Fixture& fixture, const te::TeAlgorithm& engine,
       exec::ThreadPool& pool, std::uint64_t seed)
      : fixture_(fixture),
        controller_(fixture.topology, optical::ModulationTable::standard(),
                    engine, controller_options(pool)),
        sim_(fixture.topology, fixture.intent.size(), dataplane_config(pool)),
        pipeline_(fixture.topology.edge_count(), demand::DemandConfig{}),
        snr_(fixture.topology.edge_count(), util::Db{20.0}),
        seed_(seed) {
    schedule_config_.headroom = 0.1;
    schedule_config_.seed = seed;
  }

  /// Fold over every round so far.
  std::uint64_t chain() const { return chain_; }
  /// Fold over the first kChainRounds rounds (0 until they have run).
  std::uint64_t prefix_chain() const { return prefix_chain_; }
  std::size_t rounds() const { return round_; }

  LoopRound step() {
    LoopRound out;
    out.start = now_seconds();
    const SpanScope round_span("bench.round");
    const graph::Graph& topology = controller_.physical_topology();
    const std::size_t edges = topology.edge_count();

    // SNR random walk between deep fade and strong headroom (pure in
    // (seed, round)): flaps, restorations and upgrades every round. Every
    // kFrontPeriod-th round a recovery front also lifts a random quarter of
    // the links to full SNR. That keeps most links near the top of the
    // ladder, so rounds that solve more than once (consolidation trials)
    // stay rare at every seed and react_p90 lands on single-solve rounds;
    // with the walk alone their share ranged from 0 to 11% of rounds by
    // seed, and the p90 jumped between the two modes.
    util::Rng rng = util::Rng::stream(seed_, 0x10000 + round_);
    for (util::Db& snr : snr_)
      snr = util::Db{std::clamp(snr.value + rng.uniform(-3.0, 3.0), 8.0,
                                24.0)};
    if (round_ % kFrontPeriod == kFrontPeriod - 1)
      for (std::size_t lifted = 0; lifted < edges / 4; ++lifted)
        snr_[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(edges) - 1))] = util::Db{24.0};

    demand::DemandPipeline::Result estimate;
    {
      const SpanScope span("demand.round");
      estimate = pipeline_.round(fixture_.intent,
                                 controller_.last_assignment());
    }
    out.exact = estimate.stats.exact;

    const std::span<const util::Gbps> configured =
        controller_.configured_capacities();
    const std::vector<util::Gbps> before(configured.begin(),
                                         configured.end());
    te::FlowAssignment previous = controller_.last_assignment();
    core::DynamicCapacityController::RoundReport report;
    {
      const SpanScope span("core.run_round", /*ambient=*/true);
      report = controller_.run_round(snr_, estimate.demands);
    }
    const std::span<const util::Gbps> after_span =
        controller_.configured_capacities();
    const std::vector<util::Gbps> after(after_span.begin(), after_span.end());
    const te::FlowAssignment& assignment = report.plan.physical_assignment;
    out.memo_hit = report.stats.incremental_hit;
    out.evaluations = static_cast<double>(report.stats.evaluations);
    out.upgrades = static_cast<double>(report.plan.upgrades.size());
    // The legacy two-phase transition check needs the old load to fit the
    // new capacities before its first step, which an SNR-forced reduction
    // breaks by construction; the update schedule below tolerates that
    // overload (it may persist, never grow) and is the check that counts.
    if (!report.transition_valid && report.reductions.empty())
      fail(out, "transition failed validation");

    // The consistent update, planned from the post-flap capacities (SNR
    // forced those at t = 0; only TE upgrades are scheduled reconfigs).
    std::vector<util::Gbps> pre_upgrade = after;
    for (const core::CapacityChange& change : report.plan.upgrades)
      pre_upgrade[static_cast<std::size_t>(change.edge.value)] = change.from;
    previous.edge_load_gbps.resize(edges, 0.0);
    update::UpdateSchedule schedule;
    {
      const SpanScope span("update.plan");
      schedule = update::plan_schedule(topology, pre_upgrade, after, previous,
                                       assignment, schedule_config_);
    }
    bool scheduled = schedule.feasible;
    {
      const SpanScope span("update.validate");
      scheduled = scheduled && update::validate_schedule(topology, schedule,
                                                         after, assignment);
    }
    if (!scheduled) fail(out, "update schedule infeasible or invalid");
    if (scheduled) {
      const SpanScope span("update.exec");
      update::ScheduleExecutor executor(topology, schedule);
      if (!executor.run().completed) fail(out, "update schedule aborted");
    }
    out.update_rounds = static_cast<double>(schedule.rounds.size());
    out.update_moves =
        static_cast<double>(schedule.route_moves + schedule.reconfigs);
    out.planned = now_seconds();

    const dataplane::DataplaneConfig& dp = sim_.config();
    dataplane::CapacityTimeline timeline;
    {
      const SpanScope span("dataplane.timeline");
      timeline = dataplane::build_timeline(
          before, after, scheduled ? &schedule : nullptr, dp.ticks_per_round,
          dp.tick_seconds);
    }
    dataplane::RoundResult result;
    {
      const SpanScope span("dataplane.round");
      result = sim_.run_round(assignment, timeline);
    }
    check_oracle(assignment, result, out);

    std::vector<double> installed;
    for (const te::FlowAssignment::DemandRouting& routing :
         assignment.routings)
      installed.push_back(routing.routed.value);
    {
      const SpanScope span("dataplane.counters");
      const demand::RoutingMatrix matrix =
          demand::build_routing_matrix(edges, estimate.demands, assignment);
      const std::vector<demand::DataplaneLinkObservation> observed =
          dataplane::counter_observations(result, matrix, installed);
      pipeline_.push_replay(demand::counters_from_observations(
          matrix, installed, observed, pipeline_.config().interval_seconds,
          round_));
    }

    // RoundResult byte totals are cumulative; per-OD delivery is per round.
    out.injected_bytes = result.injected_bytes - injected_total_;
    out.dropped_bytes = result.dropped_bytes - dropped_total_;
    injected_total_ = result.injected_bytes;
    dropped_total_ = result.dropped_bytes;
    for (const double bytes : result.od_delivered_bytes)
      out.delivered_bytes += bytes;
    out.migrations = static_cast<double>(result.migrations);
    out.rate_cuts = static_cast<double>(result.rate_cuts);
    out.flowlet_ticks = static_cast<double>(
        fixture_.intent.size() * dp.flowlets_per_od * dp.ticks_per_round);

    chain_ = chain_mix(chain_, result.signature);
    chain_ = chain_mix(chain_,
                       std::bit_cast<std::uint64_t>(report.total_routed.value));
    chain_ = chain_mix(chain_, report.plan.upgrades.size());
    ++round_;
    if (round_ == kChainRounds) prefix_chain_ = chain_;
    out.end = now_seconds();
    return out;
  }

 private:
  static core::ControllerOptions controller_options(exec::ThreadPool& pool) {
    core::ControllerOptions options;
    options.pool = &pool;
    return options;
  }

  static dataplane::DataplaneConfig dataplane_config(exec::ThreadPool& pool) {
    dataplane::DataplaneConfig config;
    config.pool = &pool;
    return config;
  }

  static void fail(LoopRound& out, const std::string& why) {
    if (out.ok) out.failure = why;
    out.ok = false;
  }

  void check_oracle(const te::FlowAssignment& assignment,
                    const dataplane::RoundResult& result,
                    LoopRound& out) const {
    for (std::size_t i = 0; i < assignment.routings.size(); ++i) {
      const double alloc = assignment.routings[i].routed.value;
      if (alloc < kMinAllocGbps) continue;
      const double goodput = result.od_goodput_gbps[i];
      if ((alloc - goodput) / alloc > kGapTolerance)
        fail(out, "goodput shortfall beyond tolerance");
      if ((goodput - alloc) / alloc > kOvershootTolerance)
        fail(out, "goodput overshoot beyond tolerance");
    }
    if (result.capacity_violations > 0)
      fail(out, "capacity violated outside update windows");
    const double ledger =
        result.delivered_bytes + result.dropped_bytes + result.inflight_bytes;
    if (std::abs(ledger - result.injected_bytes) >
        result.injected_bytes * kConservationRelTol + kConservationAbsBytes)
      fail(out, "byte conservation broken");
  }

  const Fixture& fixture_;
  core::DynamicCapacityController controller_;
  dataplane::DataplaneSim sim_;
  demand::DemandPipeline pipeline_;
  update::SchedulerConfig schedule_config_;
  std::vector<util::Db> snr_;
  std::uint64_t seed_;
  std::size_t round_ = 0;
  double injected_total_ = 0.0;
  double dropped_total_ = 0.0;
  std::uint64_t chain_ = 0x6c6f6f70ull;  // "loop"
  std::uint64_t prefix_chain_ = 0;
};

/// Engine + loop of one pass. The loop solves through the forwarding
/// wrapper when `timed_path` is set, else through the bare engine.
struct Instance {
  Instance(const Fixture& fixture, exec::ThreadPool& pool, std::uint64_t seed,
           bool timed_path)
      : loop(fixture,
             timed_path ? static_cast<const te::TeAlgorithm&>(timed) : engine,
             pool, seed) {}
  te::McfTe engine;
  TimedEngine timed{engine};
  Loop loop;
};

/// One pass: a fresh loop's cold first round, then kPassRounds rounds.
struct Pass {
  std::vector<LoopRound> rounds;
  std::uint64_t chain = 0;
  std::uint64_t prefix_chain = 0;
  double wall = 0.0;  ///< construction through the last round
  double setup = 0.0;  ///< construction through the cold first round
};

/// Runs one pass on the `cpu`-th CPU; `work` (if set) receives the registry
/// deltas of its first kChainRounds rounds, construction included.
Pass run_pass(const Fixture& fixture, exec::ThreadPool& pool,
              std::uint64_t seed, bool timed_path, std::size_t cpu,
              CounterValues* work) {
  pin_to_cpu(cpu);
  Pass pass;
  const double start = now_seconds();
  const CounterValues before = read_counters();
  const double setup_start = now_seconds();
  Instance instance(fixture, pool, seed, timed_path);
  for (std::size_t r = 0; r <= kPassRounds; ++r) {
    pass.rounds.push_back(instance.loop.step());
    if (r == 0) pass.setup = now_seconds() - setup_start;
    if (work != nullptr && instance.loop.rounds() == kChainRounds)
      *work = counter_delta(read_counters(), before);
  }
  pass.chain = instance.loop.chain();
  pass.prefix_chain = instance.loop.prefix_chain();
  pass.wall = now_seconds() - start;
  unpin_cpu();
  return pass;
}

}  // namespace

Report run_loop_dataplane(const RunOptions& options) {
  Report report;
  const Fixture fixture = make_fixture();
  exec::ThreadPool pool(kPoolWorkers);
  std::printf("%-28s %zu nodes, %zu edges, %zu demands\n", "network",
              fixture.topology.node_count(), fixture.topology.edge_count(),
              fixture.intent.size());

  // Whole passes: another starts only while it would end within half a
  // pass of the window's end. Passes go through the forwarding engine only
  // when traced; the verification pass takes the other path. Every pass
  // starts with a set-up (construction through the first completed loop
  // round), so set-ups are sampled across the whole window, not in one
  // phase of the host before it.
  const int windows = options.trace ? 2 : 1;
  Tracer& tracer = Tracer::instance();
  ThreadWatch threads;
  std::vector<Pass> passes[2];
  CounterValues live_work;
  for (int w = 0; w < windows; ++w) {
    tracer.enable(w == 1);
    const double t0 = now_seconds();
    do {
      const bool first = w == 0 && passes[0].empty();
      passes[w].push_back(run_pass(fixture, pool, options.seed, options.trace,
                                   passes[w].size(),
                                   first ? &live_work : nullptr));
      threads.sample(0.0);
    } while (now_seconds() - t0 + 0.5 * passes[w].back().wall <
             options.seconds);
  }
  tracer.enable(false);
  const double peak_rss = peak_rss_mb();

  // Every pass is the same work: same chain. A fresh loop on the other
  // engine path, untimed, must reproduce its first kChainRounds rounds.
  const Pass& reference = passes[0].front();
  const CounterValues before_verify = read_counters();
  Instance verify(fixture, pool, options.seed, !options.trace);
  for (std::size_t r = 0; r < kChainRounds; ++r) verify.loop.step();
  const CounterValues verify_work =
      counter_delta(read_counters(), before_verify);
  const bool chain_match = verify.loop.chain() == reference.prefix_chain;
  std::printf("%-28s %016llx (%zu passes of %zu rounds)\n", "loop chain",
              static_cast<unsigned long long>(reference.chain),
              passes[0].size() + passes[1].size(), kPassRounds + 1);
  std::printf("%-28s %016llx (first %zu rounds)\n", "loop prefix chain",
              static_cast<unsigned long long>(reference.prefix_chain),
              kChainRounds);
  std::printf("%-28s %016llx %s\n", "verify chain",
              static_cast<unsigned long long>(verify.loop.chain()),
              chain_match ? "MATCH" : "MISMATCH");
  if (!chain_match) report.fail("verification pass does not reproduce the chain");

  std::uint64_t attempted = 0;
  std::uint64_t failures = 0;
  for (int w = 0; w < 2; ++w)
    for (const Pass& pass : passes[w]) {
      if (pass.chain != reference.chain)
        report.fail("loop passes disagree on the chain");
      for (const LoopRound& round : pass.rounds) {
        ++attempted;
        failures += round.ok ? 0 : 1;
      }
    }
  for (std::size_t r = 0; r < reference.rounds.size(); ++r)
    if (!reference.rounds[r].ok)
      std::printf("round %zu failed: %s\n", r,
                  reference.rounds[r].failure.c_str());
  report.count(attempted, failures);
  threads.check(report);

  // Timings: each measured round's best over the window's passes; the rate
  // is that of a pass made of those best rounds.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> round_s[2], react[2];
  double rps[2] = {0.0, 0.0};
  for (int w = 0; w < windows; ++w) {
    round_s[w].assign(kPassRounds, kInf);
    react[w].assign(kPassRounds, kInf);
    for (const Pass& pass : passes[w])
      for (std::size_t i = 0; i < kPassRounds; ++i) {
        const LoopRound& round = pass.rounds[i + 1];
        round_s[w][i] = std::min(round_s[w][i], round.end - round.start);
        react[w][i] = std::min(react[w][i], round.planned - round.start);
      }
    double best_pass = 0.0;
    for (const double seconds : round_s[w]) best_pass += seconds;
    rps[w] = static_cast<double>(kPassRounds) / best_pass;
  }

  // Everything else is the same in every pass; the per-layer figures cover
  // every round of the traced window, cold first rounds included, as its
  // spans do.
  double offered = 0.0, delivered = 0.0;
  for (std::size_t i = 1; i < reference.rounds.size(); ++i) {
    offered += reference.rounds[i].injected_bytes;
    delivered += reference.rounds[i].delivered_bytes;
  }
  std::vector<double> exact, hits, evals, upgrades, update_rounds,
      update_moves, migrations, rate_cuts;
  double injected = 0.0, dropped = 0.0, flowlet_ticks = 0.0;
  for (const Pass& pass : passes[1])
    for (const LoopRound& round : pass.rounds) {
      exact.push_back(round.exact ? 1.0 : 0.0);
      hits.push_back(round.memo_hit ? 1.0 : 0.0);
      evals.push_back(round.evaluations);
      upgrades.push_back(round.upgrades);
      update_rounds.push_back(round.update_rounds);
      update_moves.push_back(round.update_moves);
      migrations.push_back(round.migrations);
      rate_cuts.push_back(round.rate_cuts);
      injected += round.injected_bytes;
      dropped += round.dropped_bytes;
      flowlet_ticks += round.flowlet_ticks;
    }

  std::size_t multi_solve = 0;
  for (std::size_t i = 1; i < reference.rounds.size(); ++i)
    multi_solve += reference.rounds[i].evaluations > 1.0 ? 1 : 0;
  std::printf("%-28s %zu of %zu measured rounds\n", "rounds solving > once",
              multi_solve, kPassRounds);
  std::printf("%-28s %zu passes x %zu rounds\n", "measured",
              passes[0].size(), kPassRounds);
  std::vector<double> setups;
  for (const Pass& pass : passes[0]) setups.push_back(pass.setup);
  report.set("setup_s", quantile(setups, 0.5), "s");
  report.set("rounds_per_s", rps[0], "1/s");
  report.set("round_p50_ms", quantile(round_s[0], 0.5) * 1e3, "ms");
  report.set("round_p90_ms", quantile(round_s[0], 0.9) * 1e3, "ms");
  report.set("round_p99_ms", quantile(round_s[0], 0.99) * 1e3, "ms");
  report.set("react_p50_ms", quantile(react[0], 0.5) * 1e3, "ms");
  report.set("react_p90_ms", quantile(react[0], 0.9) * 1e3, "ms");
  report.set("react_p99_ms", quantile(react[0], 0.99) * 1e3, "ms");
  report.set("delivered_frac", offered > 0.0 ? delivered / offered : 0.0,
             "ratio");
  report.set("peak_rss_mb", peak_rss, "MiB");

  if (!options.trace) return report;

  audit_counters(report, live_work, verify_work,
                 static_cast<double>(kChainRounds));

  const std::vector<Span> spans = tracer.spans();
  if (!options.spans_path.empty() &&
      !write_spans_csv(spans, options.spans_path))
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_path.c_str());
  const auto summary = summarize(spans);
  const auto span_of = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? SpanStats{} : it->second;
  };
  const SpanStats solve = span_of("te.solve");
  const SpanStats run_round = span_of("core.run_round");
  const SpanStats loop_round = span_of("bench.round");
  const SpanStats dp_round = span_of("dataplane.round");
  const double n1 = static_cast<double>(evals.size());
  double solve_busy = 0.0, cover = 0.0, wall = 0.0, dp_seconds = 0.0;
  for (const double d : solve.durations) solve_busy += d;
  for (const double c : run_round.child_cover) cover += c;
  for (const double d : loop_round.durations) wall += d;
  for (const double d : dp_round.durations) dp_seconds += d;
  report.set("te.solve_ms.p50", quantile(solve.durations, 0.5) * 1e3, "ms");
  report.set("te.solve_ms.p99", quantile(solve.durations, 0.99) * 1e3, "ms");
  report.set("te.solve_busy_ms", n1 > 0 ? solve_busy * 1e3 / n1 : 0.0, "ms");
  report.set("te.solve_wall_frac", wall > 0 ? cover / wall : 0.0, "ratio");
  report.set("core.evals_per_round", mean(evals), "count");
  report.set("core.upgrades_per_round", mean(upgrades), "count");
  report.set("core.memo_hit_frac", mean(hits), "ratio");
  report.set("core.self_ms.p50", quantile(run_round.self, 0.5) * 1e3, "ms");
  report.set("core.self_ms.p99", quantile(run_round.self, 0.99) * 1e3, "ms");
  report.set("demand.round_ms.p50",
             quantile(span_of("demand.round").durations, 0.5) * 1e3, "ms");
  report.set("demand.exact_frac", mean(exact), "ratio");
  report.set("update.plan_ms.p50",
             quantile(span_of("update.plan").durations, 0.5) * 1e3, "ms");
  report.set("update.exec_ms.p50",
             quantile(span_of("update.exec").durations, 0.5) * 1e3, "ms");
  report.set("update.rounds", mean(update_rounds), "count");
  report.set("update.moves", mean(update_moves), "count");
  report.set("dataplane.round_ms.p50", quantile(dp_round.durations, 0.5) * 1e3,
             "ms");
  report.set("dataplane.round_ms.p99",
             quantile(dp_round.durations, 0.99) * 1e3, "ms");
  report.set("dataplane.timeline_ms",
             quantile(span_of("dataplane.timeline").durations, 0.5) * 1e3,
             "ms");
  report.set("dataplane.counters_ms",
             quantile(span_of("dataplane.counters").durations, 0.5) * 1e3,
             "ms");
  report.set("dataplane.flowlet_ticks_per_s",
             dp_seconds > 0 ? flowlet_ticks / dp_seconds : 0.0, "1/s");
  report.set("dataplane.drop_frac", injected > 0 ? dropped / injected : 0.0,
             "ratio");
  report.set("dataplane.migrations", mean(migrations), "count");
  report.set("dataplane.rate_cuts", mean(rate_cuts), "count");
  report.set("trace.overhead_frac", rps[0] > 0 ? 1.0 - rps[1] / rps[0] : 0.0,
             "ratio");
  emit_self_times(report, summary, n1);
  return report;
}

}  // namespace rwc::perfbench
