// Shared run plumbing of the closed-loop benchmark: options, the metric
// report every workload fills, pacing, process probes and the registry
// counter audit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace rwc::perfbench {

/// Threads one workload process may run, pool workers included.
inline constexpr std::size_t kThreadBudget = 4;

/// Topology and base-demand seed shared by every run: the workload seed
/// drives the telemetry, weather and demand schedules, so different seeds
/// exercise different event streams on the same network.
inline constexpr std::uint64_t kStructureSeed = 20171130;

/// Fold of one value into a chain (the mixer fleet::run_fleet uses, so
/// fleet chains compare bit for bit).
inline std::uint64_t chain_mix(std::uint64_t hash, std::uint64_t value) {
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  hash = (hash ^ value) * 0x2545f4914f6cdd1dULL;
  return hash ^ (hash >> 29);
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty = do not write).
  std::string spans_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `failed` counts operations that went
/// wrong (torn or backwards reads, invalid rounds, oracle failures, shed
/// events); any failure or failed check clears `correct`.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void count(std::uint64_t attempts, std::uint64_t failures) {
    attempted += attempts;
    failed += failures;
  }
};

/// Sets every per-layer metric the workload did not reach to 0.
void complete_per_layer(Report& report);

/// Sleeps until now_seconds() reaches `t` (returns at once if past).
void sleep_until_seconds(double t);

/// Asks the kernel for fine-grained timer wakeups on the calling thread, so
/// paced generators wake close to their due times.
void tighten_timer_slack();

/// Pins the calling thread to the `index`-th (modulo their number) of the
/// CPUs the process was allowed at start-up. Passes of the deterministic
/// workloads rotate over the CPUs: on a shared host the CPUs run at
/// different speeds at the same time, and a best-of over passes that all
/// ran on one CPU would follow that CPU.
void pin_to_cpu(std::size_t index);

/// Lets the calling thread run on every CPU the process was allowed.
void unpin_cpu();

/// Live threads of this process (/proc/self/status), 0 when unreadable.
std::size_t live_threads();

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Median wall time of repeated calls of `setup`, each timed alone: at
/// least three, more (up to 200) while they fit in two seconds. `discard` runs,
/// untimed, between set-ups to release the previous one; the last set-up
/// is kept.
double median_setup_seconds(const std::function<void()>& setup,
                            const std::function<void()>& discard);

/// Values of the audited registry counters.
using CounterValues = std::map<std::string, std::uint64_t>;
CounterValues read_counters();
CounterValues counter_delta(const CounterValues& after,
                            const CounterValues& before);

/// The exactness audit: a counter is a per-layer count only when two runs
/// of the same work at the same thread count agree exactly. Emits each
/// solver-ladder counter of `first` divided by `units` (per round) and
/// `audit.unresolved`, and prints the audit table.
void audit_counters(Report& report, const CounterValues& first,
                    const CounterValues& second, double units);

/// Emits `self.<span>_ms` (self time per round) for every span name the
/// benchmark records, 0 for spans the workload does not reach.
void emit_self_times(Report& report,
                     const std::map<std::string, SpanStats>& spans,
                     double rounds);

/// Tracks the highest live-thread count seen while a run is measured.
class ThreadWatch {
 public:
  /// Samples at most once per `interval` seconds.
  void sample(double interval = 0.25);
  std::size_t peak() const { return peak_; }
  /// Fails `report` when the peak exceeded the thread budget.
  void check(Report& report) const;

 private:
  double last_ = -1.0;
  std::size_t peak_ = 0;
};

Report run_serve_steady(const RunOptions& options);
Report run_serve_weather(const RunOptions& options);
Report run_loop_dataplane(const RunOptions& options);
Report run_fleet_swan(const RunOptions& options);

}  // namespace rwc::perfbench
