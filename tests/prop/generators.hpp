// Seeded input generators for the property harness. Everything is a pure
// function of the util::Rng handed in, so a test that prints its seed is a
// complete reproduction recipe (pair with the minimized fault-plan spec
// from tests/prop/shrink.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "graph/graph.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/demand.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rwc::prop {

/// Connected Waxman WAN, 8-14 nodes at 100 Gbps nominal.
inline graph::Graph random_topology(util::Rng& rng) {
  const int nodes = static_cast<int>(rng.uniform_int(8, 14));
  return sim::waxman(nodes, rng);
}

/// Gravity matrix loading the topology to 30-70% of total capacity.
inline te::TrafficMatrix random_demands(const graph::Graph& graph,
                                        util::Rng& rng) {
  sim::GravityParams gravity;
  gravity.total =
      util::Gbps{graph.total_capacity().value * rng.uniform(0.3, 0.7)};
  gravity.sparsity = rng.uniform(0.0, 0.9);
  return sim::gravity_matrix(graph, gravity, rng);
}

/// Per-link SNR: mostly healthy (the ladder tops out at 13 dB), with a
/// degraded tail reaching below the 50 G threshold (3 dB) so rounds see
/// walk/crawl flaps, not only upgrades.
inline std::vector<util::Db> random_snr(std::size_t links, util::Rng& rng) {
  std::vector<util::Db> snr(links, util::Db{0.0});
  for (util::Db& value : snr)
    value = util::Db{rng.bernoulli(0.2) ? rng.uniform(0.0, 7.0)
                                        : rng.uniform(7.0, 20.0)};
  return snr;
}

/// What a generated injection may do at one site. Serial sites are keyed by
/// their own small hit counters, so one-shot (period 0) injections with
/// small hits fire; parallel sites are keyed by large deterministic values
/// (fingerprints, edge ids), so generated injections use period matching,
/// which fires for any key distribution.
struct SiteProfile {
  std::string_view site;
  bool serial = false;
  std::vector<fault::Kind> kinds;
};

/// Sites whose injections may change RESULTS (capacities, routing) but must
/// never break an invariant: the capacity-bound / conservation properties
/// draw from these.
inline const std::vector<SiteProfile>& degrading_sites() {
  static const std::vector<SiteProfile> sites = {
      {"core.snr", false,
       {fault::Kind::kStale, fault::Kind::kNan, fault::Kind::kGarbage,
        fault::Kind::kDrop}},
      {"flow.mincost", false, {fault::Kind::kBudget}},
  };
  return sites;
}

/// Sites whose injections are contractually TIMING-ONLY (steal-boundary
/// delays): any property may include them and results must be
/// byte-identical to a run without them.
inline const std::vector<SiteProfile>& timing_sites() {
  static const std::vector<SiteProfile> sites = {
      {"exec.steal", true, {fault::Kind::kDelay}},
  };
  return sites;
}

inline fault::Injection random_injection(const SiteProfile& profile,
                                         util::Rng& rng) {
  fault::Injection injection;
  injection.site = std::string(profile.site);
  injection.action.kind = profile.kinds[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(profile.kinds.size()) - 1))];
  if (profile.serial && rng.bernoulli(0.5)) {
    injection.period = 0;  // one-shot on an early hit
    injection.hit = static_cast<std::uint64_t>(rng.uniform_int(0, 7));
  } else {
    injection.period = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
    injection.hit = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(injection.period) - 1));
  }
  switch (injection.action.kind) {
    case fault::Kind::kBudget:
      injection.action.magnitude = static_cast<double>(rng.uniform_int(0, 24));
      break;
    case fault::Kind::kStall:
      injection.action.magnitude = rng.uniform(0.1, 10.0);  // seconds
      break;
    case fault::Kind::kDelay:
      injection.action.magnitude = rng.uniform(0.05, 1.0);  // milliseconds
      break;
    default:
      injection.action.magnitude = 0.0;
  }
  return injection;
}

/// A schedule of 1..max_injections injections drawn from `profiles`.
inline fault::FaultPlan random_fault_plan(
    std::span<const SiteProfile> profiles, util::Rng& rng,
    std::uint64_t seed_for_provenance, std::size_t max_injections = 6) {
  fault::FaultPlan plan;
  plan.seed = seed_for_provenance;
  const std::size_t count = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(max_injections)));
  for (std::size_t i = 0; i < count; ++i) {
    const auto& profile = profiles[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(profiles.size()) - 1))];
    plan.injections.push_back(random_injection(profile, rng));
  }
  return plan;
}

}  // namespace rwc::prop
