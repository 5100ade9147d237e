// serve_steady and serve_weather: ServeService under paced epoch reads,
// rounds back to back on the serving thread.
//
// serve_steady's telemetry is open-loop: a producer thread sleeps to a
// schedule and offers every event when it is due. serve_weather's is
// closed-loop: the serving thread offers the next weather front right
// before each round, so every round applies exactly one front. (With
// fronts on a fixed schedule, a slow phase of the host made rounds batch
// more fronts, and a bigger batch costs more to consolidate, so the round
// rate amplified the host's swings.)
//
// Threads: the serving (main) thread, the telemetry producer (open loop
// only) and one epoch reader; the controller's pool has no workers, so
// consolidation runs on the serving thread. Every event and read is timed
// from when it was due.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "exec/rcu.hpp"
#include "exec/thread_pool.hpp"
#include "serve/service.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "timed_engine.hpp"
#include "util/rng.hpp"

namespace rwc::perfbench {

namespace {

using serve::IngestEvent;
using serve::IngestType;
using serve::PlanEpoch;
using serve::ServeConfig;
using serve::ServeService;

/// A generator may run this late (p99) before the run is invalid.
constexpr double kMaxLateSeconds = 0.02;
/// Every read: ~2000 snapshots per second while rounds publish.
constexpr double kReadsPerSecond = 2000.0;
/// Equal slices a window is cut into; rounds_per_s is the fastest slice's
/// rate, a best-of like the passes of the deterministic workloads.
constexpr int kRateSlices = 5;

/// Rounds per second of the slice of [begin, end) in which the most of
/// `ends` (round end times) fall.
double fastest_slice_rate(const std::vector<double>& ends, double begin,
                          double end) {
  const double slice = (end - begin) / kRateSlices;
  if (!(slice > 0.0)) return 0.0;
  int counts[kRateSlices] = {};
  for (const double t : ends) {
    const int k = static_cast<int>((t - begin) / slice);
    if (k >= 0 && k < kRateSlices) ++counts[k];
  }  return *std::max_element(counts, counts + kRateSlices) / slice;
}

struct Network {
  graph::Graph topology;
  te::TrafficMatrix demands;
};

Network make_network(int nodes, double load, double sparsity) {
  util::Rng rng = util::Rng::stream(kStructureSeed,
                                    static_cast<std::uint64_t>(nodes));
  Network net{sim::waxman(nodes, rng), {}};
  sim::GravityParams gravity;
  gravity.total = util::Gbps{net.topology.total_capacity().value * load};
  gravity.sparsity = sparsity;
  net.demands = sim::gravity_matrix(net.topology, gravity, rng);
  return net;
}

/// One scheduled ingest event, due `offset` seconds into the run.
struct Due {
  double offset = 0.0;
  IngestEvent event;
};

/// serve_steady telemetry: SNR samples at a fixed rate, each jittering a
/// link by at most 0.3 dB around a base that sits inside the top ladder
/// step (so the feasible rate does not move), and every 1024th event a
/// demand-volume update, which is what forces a re-solve. The rates keep
/// the gated p50 and p90 away from mode boundaries: about two events
/// arrive per round, so few rounds drain an empty queue, and re-solves
/// take well under 10% of both the rounds and the serving time.
class SteadySchedule {
 public:
  static constexpr double kEventsPerSecond = 4000.0;
  static constexpr std::uint64_t kDemandEvery = 1024;

  SteadySchedule(std::uint64_t seed, std::size_t edges,
                 const te::TrafficMatrix& demands)
      : rng_(util::Rng::stream(seed, 0x53544459)) {
    for (std::size_t e = 0; e < edges; ++e)
      base_snr_.push_back(rng_.uniform(14.5, 16.5));
    for (const te::Demand& demand : demands)
      base_volume_.push_back(demand.volume.value);
  }

  Due next() {
    Due due;
    due.offset = static_cast<double>(k_) / kEventsPerSecond;
    ++k_;
    if (k_ % kDemandEvery == 0 && !base_volume_.empty()) {
      const auto d = rng_.uniform_int(
          0, static_cast<std::int64_t>(base_volume_.size()) - 1);
      due.event.type = IngestType::kDemand;
      due.event.index = static_cast<std::uint32_t>(d);
      due.event.value =
          base_volume_[static_cast<std::size_t>(d)] * rng_.uniform(0.8, 1.2);
    } else {
      const auto e = rng_.uniform_int(
          0, static_cast<std::int64_t>(base_snr_.size()) - 1);
      due.event.type = IngestType::kSnr;
      due.event.index = static_cast<std::uint32_t>(e);
      due.event.value =
          base_snr_[static_cast<std::size_t>(e)] + rng_.uniform(-0.3, 0.3);
    }
    return due;
  }

 private:
  util::Rng rng_;
  std::vector<double> base_snr_;
  std::vector<double> base_volume_;
  std::uint64_t k_ = 0;
};

/// serve_weather telemetry: each weather front dips a fresh 15% of physical
/// links (both directions) to 5-10 dB, and restores the previous front's
/// links to clear sky. A front is offered as one burst, due when offered.
class WeatherSchedule {
 public:
  static constexpr double kDipShare = 0.15;

  WeatherSchedule(std::uint64_t seed, std::size_t edges)
      : rng_(util::Rng::stream(seed, 0x57544852)), links_(edges / 2) {}

  /// The next front's events, in the order they are offered.
  std::vector<IngestEvent> next_front() {
    std::vector<IngestEvent> front;
    const auto sample = [&](std::size_t link, double db) {
      for (std::size_t dir = 0; dir < 2; ++dir)
        front.push_back(IngestEvent{IngestType::kSnr,
                                    static_cast<std::uint32_t>(2 * link + dir),
                                    db});
    };
    for (const std::size_t link : dipped_)
      sample(link, 15.0 + rng_.uniform(-0.3, 0.3));
    dipped_.clear();
    // A fixed share of links per front, drawn without replacement.
    std::vector<std::size_t> order(links_);
    for (std::size_t link = 0; link < links_; ++link) order[link] = link;
    const std::size_t dips = static_cast<std::size_t>(
        kDipShare * static_cast<double>(links_) + 0.5);
    for (std::size_t i = 0; i < dips; ++i) {
      const auto j = rng_.uniform_int(static_cast<std::int64_t>(i),
                                      static_cast<std::int64_t>(links_) - 1);
      std::swap(order[i], order[static_cast<std::size_t>(j)]);
      dipped_.push_back(order[i]);
    }
    for (const std::size_t link : dipped_) sample(link, rng_.uniform(5.0, 10.0));
    return front;
  }

 private:
  util::Rng rng_;
  std::size_t links_;
  std::vector<std::size_t> dipped_;
};

struct ProducerRecord {
  std::vector<double> due;
  std::vector<IngestEvent> events;
  std::vector<double> late;
  std::uint64_t rejected = 0;

  /// Offers `event`, due at `due`, and records it.
  void offer(ServeService& service, const IngestEvent& event, double due) {
    late.push_back(now_seconds() - due);
    bool accepted = false;
    {
      const SpanScope span("serve.offer");
      accepted = service.queue().offer(event);
    }
    this->due.push_back(due);
    events.push_back(event);
    if (!accepted) ++rejected;
  }
};

void run_producer(ServeService& service, SteadySchedule& schedule, double t0,
                  double t_end, ProducerRecord& record) {
  tighten_timer_slack();
  for (;;) {
    const Due next = schedule.next();
    const double due = t0 + next.offset;
    if (due >= t_end) break;
    sleep_until_seconds(due);
    record.offer(service, next.event, due);
  }
}

struct ReaderRecord {
  std::vector<double> due;
  std::vector<double> latency;  ///< due -> snapshot held
  std::vector<double> late;
  std::uint64_t torn = 0;
  std::uint64_t backwards = 0;
  std::uint64_t empty = 0;
};

void run_reader(ServeService& service, double t0, double t_end,
                ReaderRecord& record) {
  tighten_timer_slack();
  exec::RcuReader reader(service.rcu_domain());
  std::uint64_t last_epoch = 0;
  for (std::uint64_t k = 0;; ++k) {
    const double due = t0 + static_cast<double>(k) / kReadsPerSecond;
    if (due >= t_end) break;
    sleep_until_seconds(due);
    record.late.push_back(now_seconds() - due);
    Tracer& tracer = Tracer::instance();
    const std::int64_t span = tracer.begin("serve.read");
    exec::RcuGuard<PlanEpoch> epoch(service.epoch_cell(), reader);
    const std::uint64_t number = epoch ? epoch->epoch : 0;
    const double held = now_seconds();
    tracer.end(span);
    record.due.push_back(due);
    record.latency.push_back(held - due);
    if (!epoch) {
      ++record.empty;
      continue;
    }
    if (!epoch->consistent()) ++record.torn;
    if (number < last_epoch) ++record.backwards;
    last_epoch = number;
  }
}

struct RoundRecord {
  double start = 0.0;
  double end = 0.0;
  int window = 0;
  std::size_t batch = 0;
  bool transition_valid = true;
  bool forced_reduction = false;
  bool update_valid = true;
  bool memo_hit = false;
  double evaluations = 0.0;
  double upgrades = 0.0;
  double update_rounds = 0.0;
  double update_moves = 0.0;
  double update_seconds = 0.0;
  double routed = 0.0;
  double offered = 0.0;
  std::uint64_t chain = 0;  ///< the service's signature chain after it
};

/// Engine + service of one run; the wrapper forwards to `engine`.
struct Instance {
  te::McfTe engine;
  TimedEngine timed{engine};
  std::unique_ptr<ServeService> service;
};

template <typename Schedule>
Report run_serve(const RunOptions& options, const Network& net,
                 bool hysteresis, Schedule schedule) {
  Report report;
  exec::ThreadPool pool(0);
  ServeConfig config;
  config.seed = options.seed;
  if (hysteresis) config.hysteresis = core::HysteresisParams{};
  config.update = update::SchedulerConfig{};
  config.queue_capacity = std::size_t{1} << 16;
  config.max_readers = 4;
  config.pool = &pool;
  std::printf("%-28s %zu nodes, %zu edges, %zu demands\n", "network",
              net.topology.node_count(), net.topology.edge_count(),
              net.demands.size());

  // Set-up: construction through the first published epoch (the cold
  // round). The last instance serves the measured windows. The live
  // service runs through the forwarding engine only when traced; the
  // replay below takes the other path, so equal chains show the wrapper is
  // timing-only.
  std::unique_ptr<Instance> live;
  CounterValues before_live;
  const double setup_s = median_setup_seconds([&] {
    before_live = read_counters();
    auto instance = std::make_unique<Instance>();
    const te::TeAlgorithm& engine =
        options.trace ? static_cast<const te::TeAlgorithm&>(instance->timed)
                      : instance->engine;
    instance->service = std::make_unique<ServeService>(net.topology, engine,
                                                       net.demands, config);
    instance->service->step();
    live = std::move(instance);
  }, [&] { live.reset(); });
  ServeService& service = *live->service;
  const std::size_t first_round = service.round();
  const std::uint64_t setup_chain = service.signature_chain();

  const int windows = options.trace ? 2 : 1;
  const double t0 = now_seconds() + 0.01;
  const double t_split = t0 + options.seconds;
  const double t_end = t0 + windows * options.seconds;
  ProducerRecord produced;
  ReaderRecord reads;
  std::vector<RoundRecord> rounds;
  // Sized for the fastest expected round rate, so growth never copies
  // (a doubling would make peak RSS jump with the round count).
  rounds.reserve(static_cast<std::size_t>(windows * options.seconds * 5000));
  ThreadWatch threads;
  Tracer& tracer = Tracer::instance();
  constexpr bool kOpenLoop = std::is_same_v<Schedule, SteadySchedule>;
  {
    std::jthread producer;
    if constexpr (kOpenLoop)
      producer = std::jthread([&] {
        run_producer(service, schedule, t0, t_end, produced);
      });
    std::jthread reader([&] { run_reader(service, t0, t_end, reads); });
    sleep_until_seconds(t0);
    for (;;) {
      const double start = now_seconds();
      if (start >= t_end) break;
      if (options.trace && start >= t_split) tracer.enable(true);
      if constexpr (!kOpenLoop)
        for (const IngestEvent& event : schedule.next_front())
          produced.offer(service, event, start);
      ServeService::RoundReport result;
      {
        const SpanScope span("serve.step");
        result = service.step();
      }
      RoundRecord round;
      round.start = start;
      round.end = now_seconds();
      round.window = start >= t_split ? 1 : 0;
      round.batch = service.log().batch(service.round() - 1).size();
      round.transition_valid = result.transition_valid;
      round.forced_reduction = !result.reductions.empty();
      round.update_valid = result.update_valid;
      round.memo_hit = result.stats.incremental_hit;
      round.evaluations = static_cast<double>(result.stats.evaluations);
      round.upgrades = static_cast<double>(result.plan.upgrades.size());
      round.update_rounds = static_cast<double>(result.stats.update_rounds);
      round.update_moves = static_cast<double>(
          result.stats.update_route_moves + result.stats.update_reconfigs);
      round.update_seconds = result.stats.update_seconds;
      round.routed = result.total_routed.value;
      round.offered = te::total_demand(service.demands()).value;
      round.chain = service.signature_chain();
      rounds.push_back(round);
      threads.sample();
    }
  }
  tracer.enable(false);
  const double peak_rss = peak_rss_mb();
  const CounterValues live_work = counter_delta(read_counters(), before_live);

  // Match applied events to rounds: one producer and no shedding, so the
  // concatenated ingest log is the offered sequence in order.
  std::vector<double> react[2];
  std::vector<double> queue_wait[2];
  std::uint64_t dropped = service.queue().dropped() + produced.rejected;
  if (dropped == 0) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      for (const IngestEvent& event :
           service.log().batch(first_round + i)) {
        if (k >= produced.events.size() || !(produced.events[k] == event)) {
          report.fail("ingest log does not match the offered events");
          break;
        }
        const int window = produced.due[k] >= t_split ? 1 : 0;
        react[window].push_back(rounds[i].end - produced.due[k]);
        queue_wait[window].push_back(rounds[i].start - produced.due[k]);
        ++k;
      }
    }
  } else {
    report.fail("ingest shed " + std::to_string(dropped) + " events");
  }

  // Replay the recorded log, untimed, on a fresh service. Results are the
  // same at every pool size, so an untraced run replays its first quarter
  // on three workers and compares the chain the live service had after
  // that round; a traced run replays all of it serially, as the counter
  // audit's second run.
  Instance fresh;
  const te::TeAlgorithm& replay_engine =
      options.trace ? static_cast<const te::TeAlgorithm&>(fresh.engine)
                    : fresh.timed;
  exec::ThreadPool replay_pool(options.trace ? 0 : 3);
  ServeConfig replay_config = config;
  replay_config.pool = &replay_pool;
  ServeService replayed(net.topology, replay_engine, net.demands,
                        replay_config);
  const std::size_t log_rounds = service.log().rounds();
  const std::size_t replay_rounds =
      options.trace ? log_rounds : std::max(first_round, log_rounds / 4);
  const std::uint64_t live_chain =
      replay_rounds == first_round
          ? setup_chain
          : rounds[replay_rounds - first_round - 1].chain;
  const CounterValues before_replay = read_counters();
  for (std::size_t r = 0; r < replay_rounds; ++r)
    replayed.step(service.log().batch(r));
  const CounterValues replay_work =
      counter_delta(read_counters(), before_replay);
  const bool chain_match = replayed.signature_chain() == live_chain;
  std::printf("%-28s %016llx (after %zu of %zu rounds)\n", "live chain",
              static_cast<unsigned long long>(live_chain), replay_rounds,
              log_rounds);
  std::printf("%-28s %016llx %s\n", "replayed chain",
              static_cast<unsigned long long>(replayed.signature_chain()),
              chain_match ? "MATCH" : "MISMATCH");
  if (!chain_match) report.fail("log replay does not reproduce the chain");

  // Failures and the generator bound.
  std::uint64_t invalid_rounds = 0;
  std::uint64_t legacy_invalid = 0;
  // The legacy two-phase transition check needs the old load to fit the
  // new capacities before its first step, which an SNR-forced reduction
  // breaks by construction; on such rounds the update schedule (which lets
  // that overload persist but never grow) is the check that counts.
  for (const RoundRecord& round : rounds) {
    const bool legacy_ok = round.transition_valid || round.forced_reduction;
    invalid_rounds += round.update_valid && legacy_ok ? 0 : 1;
    legacy_invalid += round.transition_valid ? 0 : 1;
  }
  std::printf("%-28s %llu (legacy check off on %llu forced-reduction "
              "rounds)\n",
              "invalid rounds", static_cast<unsigned long long>(invalid_rounds),
              static_cast<unsigned long long>(legacy_invalid));
  report.count(rounds.size(), invalid_rounds);
  report.count(reads.latency.size(),
               reads.torn + reads.backwards + reads.empty);
  report.count(produced.events.size(), dropped);
  std::vector<double> late = produced.late;
  late.insert(late.end(), reads.late.begin(), reads.late.end());
  const double late_p99 = quantile(late, 0.99);
  if (late_p99 > kMaxLateSeconds)
    report.fail("paced generators ran late (p99 " +
                std::to_string(late_p99 * 1e3) + " ms)");
  threads.check(report);

  // Per-window views.
  std::vector<double> round_s[2], round_end[2], read_s[2], batch[2], evals[2],
      upgrades[2], hits[2], update_rounds[2], update_moves[2], update_s[2];
  double routed = 0.0;
  double offered = 0.0;
  double window_end[2] = {t0, t_split};
  for (const RoundRecord& round : rounds) {
    const int w = round.window;
    round_s[w].push_back(round.end - round.start);
    round_end[w].push_back(round.end);
    batch[w].push_back(static_cast<double>(round.batch));
    evals[w].push_back(round.evaluations);
    upgrades[w].push_back(round.upgrades);
    hits[w].push_back(round.memo_hit ? 1.0 : 0.0);
    update_rounds[w].push_back(round.update_rounds);
    update_moves[w].push_back(round.update_moves);
    update_s[w].push_back(round.update_seconds);
    window_end[w] = round.end;
    if (w == 0) {
      routed += round.routed;
      offered += round.offered;
    }
  }
  for (std::size_t i = 0; i < reads.due.size(); ++i)
    read_s[reads.due[i] >= t_split ? 1 : 0].push_back(reads.latency[i]);
  const double rps[2] = {
      fastest_slice_rate(round_end[0], t0, window_end[0]),
      fastest_slice_rate(round_end[1], t_split, window_end[1])};

  std::printf("%-28s %zu rounds in %d slices, %zu events, %zu reads\n",
              "measured", round_s[0].size(), kRateSlices, react[0].size(),
              reads.latency.size());
  report.set("setup_s", setup_s, "s");
  report.set("rounds_per_s", rps[0], "1/s");
  report.set("round_p50_ms", quantile(round_s[0], 0.5) * 1e3, "ms");
  report.set("round_p90_ms", quantile(round_s[0], 0.9) * 1e3, "ms");
  report.set("round_p99_ms", quantile(round_s[0], 0.99) * 1e3, "ms");
  report.set("react_p50_ms", quantile(react[0], 0.5) * 1e3, "ms");
  report.set("react_p90_ms", quantile(react[0], 0.9) * 1e3, "ms");
  report.set("react_p99_ms", quantile(react[0], 0.99) * 1e3, "ms");
  report.set("read_p50_us", quantile(read_s[0], 0.5) * 1e6, "us");
  report.set("read_p99_us", quantile(read_s[0], 0.99) * 1e6, "us");
  report.set("delivered_frac", offered > 0.0 ? routed / offered : 0.0,
             "ratio");
  report.set("peak_rss_mb", peak_rss, "MiB");
  report.set("gen.late_ms.p99", late_p99 * 1e3, "ms");

  if (!options.trace) return report;

  audit_counters(report, live_work, replay_work,
                 static_cast<double>(service.log().rounds()));

  // Per-layer view of the traced window.
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
  const SpanStats step = span_of("serve.step");
  const double n1 = static_cast<double>(round_s[1].size());
  double solve_busy = 0.0;
  for (const double d : solve.durations) solve_busy += d;
  double cover = 0.0;
  double step_total = 0.0;
  for (std::size_t i = 0; i < step.durations.size(); ++i) {
    cover += step.child_cover[i];
    step_total += step.durations[i];
  }
  report.set("te.solve_ms.p50", quantile(solve.durations, 0.5) * 1e3, "ms");
  report.set("te.solve_ms.p99", quantile(solve.durations, 0.99) * 1e3, "ms");
  report.set("te.solve_busy_ms", n1 > 0 ? solve_busy * 1e3 / n1 : 0.0, "ms");
  report.set("te.solve_wall_frac", step_total > 0 ? cover / step_total : 0.0,
             "ratio");
  report.set("core.evals_per_round", mean(evals[1]), "count");
  report.set("core.upgrades_per_round", mean(upgrades[1]), "count");
  report.set("core.memo_hit_frac", mean(hits[1]), "ratio");
  report.set("core.self_ms.p50", quantile(step.self, 0.5) * 1e3, "ms");
  report.set("core.self_ms.p99", quantile(step.self, 0.99) * 1e3, "ms");
  report.set("serve.step_ms.p50", quantile(step.durations, 0.5) * 1e3, "ms");
  report.set("serve.step_ms.p99", quantile(step.durations, 0.99) * 1e3, "ms");
  report.set("serve.queue_wait_ms.p50", quantile(queue_wait[1], 0.5) * 1e3,
             "ms");
  report.set("serve.queue_wait_ms.p99", quantile(queue_wait[1], 0.99) * 1e3,
             "ms");
  report.set("serve.batch_events", mean(batch[1]), "count");
  report.set("serve.offer_us.p99",
             quantile(span_of("serve.offer").durations, 0.99) * 1e6, "us");
  report.set("serve.shed_frac",
             produced.events.empty()
                 ? 0.0
                 : static_cast<double>(dropped) /
                       static_cast<double>(produced.events.size()),
             "ratio");
  report.set("serve.read_us.p50", quantile(read_s[1], 0.5) * 1e6, "us");
  report.set("serve.read_us.p99", quantile(read_s[1], 0.99) * 1e6, "us");
  report.set("update.plan_ms.p50", quantile(update_s[1], 0.5) * 1e3, "ms");
  report.set("update.rounds", mean(update_rounds[1]), "count");
  report.set("update.moves", mean(update_moves[1]), "count");
  report.set("trace.overhead_frac", rps[0] > 0 ? 1.0 - rps[1] / rps[0] : 0.0,
             "ratio");
  emit_self_times(report, summary, n1);
  return report;
}

}  // namespace

Report run_serve_steady(const RunOptions& options) {
  const Network net = make_network(12, 0.4, 0.0);
  return run_serve(options, net, /*hysteresis=*/true,
                   SteadySchedule(options.seed, net.topology.edge_count(),
                                  net.demands));
}

Report run_serve_weather(const RunOptions& options) {
  const Network net = make_network(40, 0.3, 0.91);
  return run_serve(options, net, /*hysteresis=*/false,
                   WeatherSchedule(options.seed, net.topology.edge_count()));
}

}  // namespace rwc::perfbench
