// In-memory span recorder and sample statistics for the closed-loop
// benchmark.
//
// Spans are recorded only around calls the benchmark itself makes into a
// layer's public function (plus the forwarding TE engine, timed_engine.hpp);
// nothing inside the library is instrumented. A span's parent is the
// innermost open span on the same thread or, for spans opened on a pool
// worker with nothing open (consolidation waves, fleet shards), the
// "ambient" span the benchmark declared around the call that fanned out.
// A layer's self time is its span minus the union of its children's
// intervals, so concurrent children never count twice.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rwc::perfbench {

/// Seconds on the steady clock since the first call in the process.
double now_seconds();

/// Exact quantile of stored samples (linear interpolation between order
/// statistics, the same rule as numpy's default). 0 for no samples.
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = -1.0;
  std::int64_t parent = -1;
};

class Tracer {
 public:
  /// The process-wide recorder; disabled until enable(true).
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread (no-op returning -1 when disabled).
  std::int64_t begin(const char* name);
  void end(std::int64_t id);

  /// Parent for spans opened on threads with no open span of their own.
  void set_ambient(std::int64_t id) {
    ambient_.store(id, std::memory_order_relaxed);
  }

  std::vector<Span> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> ambient_{-1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; `ambient` additionally makes it the parent of spans opened on
/// other threads while it is open.
class SpanScope {
 public:
  explicit SpanScope(const char* name, bool ambient = false);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope();

 private:
  std::int64_t id_;
  bool ambient_;
};

/// Per span name: durations and self times (span minus the union of its
/// children's intervals), both in seconds, in recording order.
struct SpanStats {
  std::vector<double> durations;
  std::vector<double> self;
  /// Union of child intervals per span (same order as durations).
  std::vector<double> child_cover;
};
std::map<std::string, SpanStats> summarize(const std::vector<Span>& spans);

/// Writes spans as CSV (name,start,end,parent) so a run can be inspected
/// after the fact. Returns false when the file cannot be written.
bool write_spans_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace rwc::perfbench
