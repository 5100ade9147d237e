// Fault-injection registry (rwc::fault).
//
// Hot paths declare *sites* — named points where an armed FaultPlan may
// perturb behavior — by calling fault::next("site") (serial sites, keyed by
// the site's own hit counter) or fault::at("site", key) (parallel sites,
// keyed by a caller-supplied deterministic value such as a link index or a
// network fingerprint). Both return the Action to apply, or a falsy Action
// when nothing is scheduled.
//
// Cost contract: when no plan is armed — production and every test that
// does not opt in — a site evaluation is one relaxed atomic load. All
// bookkeeping (hit counters, per-site obs counters under fault.*) happens
// only while armed.
//
// Arming:
//   * programmatic — Registry::global().arm(plan) / disarm(), or the RAII
//     ScopedPlan used by tests;
//   * environment — RWC_FAULTS holds a plan spec (fault/plan.hpp grammar),
//     parsed and armed on first Registry::global() use.
//
// The site catalog and per-site action semantics live in docs/FAULTS.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "fault/plan.hpp"

namespace rwc::obs {
class Counter;
}

namespace rwc::fault {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in site evaluates against.
  /// First use arms from RWC_FAULTS when the variable is set.
  static Registry& global();

  /// Installs `plan` and resets every site's hit counter, so the same plan
  /// armed twice injects identically (reproducibility).
  void arm(FaultPlan plan);

  /// Removes the plan; sites return to the one-atomic-load fast path.
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The armed plan ("" when disarmed) — for failure reports.
  std::string armed_spec() const;

  /// Evaluates `site` against the armed plan with the site's next hit
  /// counter value as the key. Call only when armed() (the inline helpers
  /// below guard this).
  Action evaluate_next(std::string_view site);

  /// Evaluates `site` with an explicit deterministic key.
  Action evaluate_at(std::string_view site, std::uint64_t key);

  /// Evaluations seen / injections fired at `site` since the last arm().
  std::uint64_t evaluations(std::string_view site) const;
  std::uint64_t injected(std::string_view site) const;

 private:
  struct SiteState {
    std::uint64_t next_hit = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t injected = 0;
    /// The site's fault.site.<site> counter, looked up on its first fire.
    obs::Counter* fired = nullptr;
  };

  Action match_locked(SiteState& state, std::string_view site,
                      std::uint64_t key);

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// Serial-site evaluation: key = the site's own 0-based hit counter.
inline Action next(std::string_view site) {
  Registry& registry = Registry::global();
  if (!registry.armed()) return {};
  return registry.evaluate_next(site);
}

/// Parallel-site evaluation: key supplied by the caller and required to be
/// deterministic across thread interleavings (index, id, fingerprint).
inline Action at(std::string_view site, std::uint64_t key) {
  Registry& registry = Registry::global();
  if (!registry.armed()) return {};
  return registry.evaluate_at(site, key);
}

/// RAII arm/disarm for tests: arms `plan` on the global registry for the
/// scope's lifetime, restoring the disarmed state on exit.
class ScopedPlan {
 public:
  explicit ScopedPlan(FaultPlan plan) { Registry::global().arm(std::move(plan)); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
  ~ScopedPlan() { Registry::global().disarm(); }
};

}  // namespace rwc::fault
