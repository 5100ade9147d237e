// RAII wall-clock timing for the observability layer (rwc::obs).
//
//   StopWatch   — monotonic stopwatch for stage timings.
//   ScopedTimer — zero-lookup timer recording into a Histogram reference
//                 the caller obtained (and cached) beforehand; the
//                 controller round and the TE engines' solves are timed
//                 this way (docs/OBSERVABILITY.md §1).
#pragma once

#include <chrono>

#include "obs/registry.hpp"

namespace rwc::obs {

/// Monotonic wall-clock stopwatch.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Records the lifetime of the scope into `histogram` (seconds). When
/// `accumulate_seconds` is non-null the elapsed time is also added there —
/// used to fill per-round stat structs alongside the global histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram,
                       double* accumulate_seconds = nullptr)
      : histogram_(histogram), accumulate_(accumulate_seconds) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const double elapsed = watch_.seconds();
    histogram_.observe(elapsed);
    if (accumulate_ != nullptr) *accumulate_ += elapsed;
  }

 private:
  Histogram& histogram_;
  double* accumulate_;
  StopWatch watch_;
};

}  // namespace rwc::obs
