#include "bench.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "obs/registry.hpp"

namespace rwc::perfbench {

namespace {

/// Solver-ladder counters reported as per-layer counts (after the audit).
const char* const kLadderCounters[] = {
    "flow.mincost.runs",      "solver.warm_starts",
    "solver.warm_misses",     "solver.partial_repairs",
    "lp.simplex.iterations",  "lp.basis_reuse_hits",
    "cache.path.hits",        "cache.path.misses",
    "exec.steals",
};

/// Everything the audit compares: the ladder plus the per-round attribution
/// counters known to leak across concurrent rounds.
const char* const kAuditedCounters[] = {
    "flow.mincost.runs",       "flow.mincost.paths",
    "solver.warm_starts",      "solver.warm_misses",
    "solver.partial_repairs",  "solver.partial_rollbacks",
    "solver.partial_rounds",   "solver.incremental_hits",
    "solver.incremental_misses",
    "lp.simplex.solves",       "lp.simplex.iterations",
    "lp.basis_reuse_hits",     "lp.basis_reuse_misses",
    "cache.path.hits",         "cache.path.misses",
    "exec.tasks",              "exec.steals",
    "fleet.partial_rounds",    "demand.rounds",
};

/// Every span name the benchmark records (self times are emitted for all).
const char* const kSpanNames[] = {
    "bench.round",        "serve.step",       "serve.offer",
    "serve.read",         "core.run_round",   "te.solve",
    "demand.round",       "update.plan",      "update.validate",
    "update.exec",        "dataplane.timeline", "dataplane.round",
    "dataplane.counters", "fleet.run_fleet",  "fleet.run_instance",
};

/// Every per-layer metric a traced run reports, with its unit. A workload
/// sets the ones its layers reach; the rest read 0 (layer bypassed).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"te.solve_ms.p50", "ms"},
    {"te.solve_ms.p99", "ms"},
    {"te.solve_busy_ms", "ms"},
    {"te.solve_wall_frac", "ratio"},
    {"core.evals_per_round", "count"},
    {"core.upgrades_per_round", "count"},
    {"core.memo_hit_frac", "ratio"},
    {"core.self_ms.p50", "ms"},
    {"core.self_ms.p99", "ms"},
    {"serve.step_ms.p50", "ms"},
    {"serve.step_ms.p99", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.batch_events", "count"},
    {"serve.offer_us.p99", "us"},
    {"serve.shed_frac", "ratio"},
    {"serve.read_us.p50", "us"},
    {"serve.read_us.p99", "us"},
    {"demand.round_ms.p50", "ms"},
    {"demand.exact_frac", "ratio"},
    {"update.plan_ms.p50", "ms"},
    {"update.exec_ms.p50", "ms"},
    {"update.rounds", "count"},
    {"update.moves", "count"},
    {"dataplane.round_ms.p50", "ms"},
    {"dataplane.round_ms.p99", "ms"},
    {"dataplane.timeline_ms", "ms"},
    {"dataplane.counters_ms", "ms"},
    {"dataplane.flowlet_ticks_per_s", "1/s"},
    {"dataplane.drop_frac", "ratio"},
    {"dataplane.migrations", "count"},
    {"dataplane.rate_cuts", "count"},
    {"fleet.instance_ms.p50", "ms"},
    {"fleet.instance_ms.p99", "ms"},
    {"fleet.instance_ms.max", "ms"},
    {"fleet.shard_imbalance", "ratio"},
    {"fleet.memo_hit_frac", "ratio"},
    {"gen.late_ms.p99", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// CPUs the process was allowed when first asked (before any pinning).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    return out;
  }();
  return cpus;
}

/// Best effort: a thread that cannot be moved keeps running where it is.
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void pin_to_cpu(std::size_t index) {
  const std::vector<int>& cpus = allowed_cpus();
  if (!cpus.empty()) set_affinity({cpus[index % cpus.size()]});
}

void unpin_cpu() {
  if (!allowed_cpus().empty()) set_affinity(allowed_cpus());
}

void complete_per_layer(Report& report) {
  for (const auto& [name, unit] : kPerLayer)
    if (report.metrics.find(name) == report.metrics.end())
      report.set(name, 0.0, unit);
}

void sleep_until_seconds(double t) {
  const double wait = t - now_seconds();
  if (wait > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

std::size_t live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
  return 0;
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_setup_seconds(const std::function<void()>& setup,
                            const std::function<void()>& discard) {
  // At least three set-ups; cheap ones repeat for up to two seconds, so
  // the median spans more than one phase of a noisy host. Each but the
  // last is discarded, untimed, before the next.
  std::vector<double> samples;
  const double begin = now_seconds();
  for (;;) {
    const double start = now_seconds();
    setup();
    samples.push_back(now_seconds() - start);
    if (samples.size() >= 3 &&
        (samples.size() >= 200 || now_seconds() - begin >= 2.0))
      break;
    discard();
  }
  return quantile(samples, 0.5);
}

CounterValues read_counters() {
  auto& registry = obs::Registry::global();
  CounterValues values;
  for (const char* name : kAuditedCounters)
    values[name] = registry.counter(name).value();
  return values;
}

CounterValues counter_delta(const CounterValues& after,
                            const CounterValues& before) {
  CounterValues delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

void audit_counters(Report& report, const CounterValues& first,
                    const CounterValues& second, double units) {
  std::printf("counter audit (two runs of the same work, same threads):\n");
  std::size_t unresolved = 0;
  for (const auto& [name, value] : first) {
    const auto it = second.find(name);
    const std::uint64_t other = it == second.end() ? 0 : it->second;
    const bool exact = value == other;
    if (!exact) ++unresolved;
    std::printf("  %-28s %12llu %12llu  %s\n", name.c_str(),
                static_cast<unsigned long long>(value),
                static_cast<unsigned long long>(other),
                exact ? "exact" : "UNRESOLVED");
  }
  for (const char* name : kLadderCounters) {
    const auto it = first.find(name);
    const double value = it == first.end() ? 0.0 : static_cast<double>(it->second);
    report.set(name, units > 0.0 ? value / units : 0.0, "1/round");
  }
  report.set("audit.unresolved", static_cast<double>(unresolved), "count");
}

void emit_self_times(Report& report,
                     const std::map<std::string, SpanStats>& spans,
                     double rounds) {
  for (const char* name : kSpanNames) {
    const auto it = spans.find(name);
    double total = 0.0;
    if (it != spans.end())
      for (const double self : it->second.self) total += self;
    report.set(std::string("self.") + name + "_ms",
               rounds > 0.0 ? total * 1e3 / rounds : 0.0, "ms/round");
  }
}

void ThreadWatch::sample(double interval) {
  const double now = now_seconds();
  if (last_ >= 0.0 && now - last_ < interval) return;
  last_ = now;
  peak_ = std::max(peak_, live_threads());
}

void ThreadWatch::check(Report& report) const {
  std::printf("%-28s %zu (budget %zu)\n", "peak threads", peak_,
              kThreadBudget);
  if (peak_ > kThreadBudget)
    report.fail("ran " + std::to_string(peak_) + " threads, budget " +
                std::to_string(kThreadBudget));
}

}  // namespace rwc::perfbench
