#include "fault/registry.hpp"

#include <cstdlib>

#include "obs/registry.hpp"

namespace rwc::fault {

namespace {

/// Handles into the global obs registry (docs/OBSERVABILITY.md: fault.*).
struct FaultMetrics {
  obs::Gauge& armed;
  obs::Counter& evaluations;
  obs::Counter& injected;

  static FaultMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static FaultMetrics metrics{
        registry.gauge("fault.armed"),
        registry.counter("fault.evaluations"),
        registry.counter("fault.injected"),
    };
    return metrics;
  }
};

}  // namespace

Registry& Registry::global() {
  static Registry* const registry = [] {
    auto* r = new Registry();
    if (const char* env = std::getenv("RWC_FAULTS"); env != nullptr && *env)
      r->arm(FaultPlan::parse(env));
    return r;
  }();
  return *registry;
}

void Registry::arm(FaultPlan plan) {
  std::lock_guard lock(mutex_);
  plan_ = std::move(plan);
  sites_.clear();
  FaultMetrics::instance().armed.set(1.0);
  armed_.store(true, std::memory_order_relaxed);
}

void Registry::disarm() {
  std::lock_guard lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  FaultMetrics::instance().armed.set(0.0);
  plan_ = FaultPlan{};
  sites_.clear();
}

std::string Registry::armed_spec() const {
  std::lock_guard lock(mutex_);
  return armed_.load(std::memory_order_relaxed) ? plan_.to_string()
                                                : std::string{};
}

Action Registry::match_locked(SiteState& state, std::string_view site,
                              std::uint64_t key) {
  ++state.evaluations;
  auto& metrics = FaultMetrics::instance();
  metrics.evaluations.add();
  for (const Injection& injection : plan_.injections) {
    if (!injection.matches(site, key)) continue;
    ++state.injected;
    metrics.injected.add();
    // Per-site injection counter, created lazily on first fire.
    if (state.fired == nullptr)
      state.fired = &obs::Registry::global().counter("fault.site." +
                                                     std::string(site));
    state.fired->add();
    return injection.action;
  }
  return {};
}

Action Registry::evaluate_next(std::string_view site) {
  std::lock_guard lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return {};
  auto it = sites_.find(site);
  if (it == sites_.end())
    it = sites_.emplace(std::string(site), SiteState{}).first;
  const std::uint64_t key = it->second.next_hit++;
  return match_locked(it->second, site, key);
}

Action Registry::evaluate_at(std::string_view site, std::uint64_t key) {
  std::lock_guard lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return {};
  auto it = sites_.find(site);
  if (it == sites_.end())
    it = sites_.emplace(std::string(site), SiteState{}).first;
  return match_locked(it->second, site, key);
}

std::uint64_t Registry::evaluations(std::string_view site) const {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.evaluations;
}

std::uint64_t Registry::injected(std::string_view site) const {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.injected;
}

}  // namespace rwc::fault
