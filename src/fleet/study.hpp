// Deployment-study aggregation over a fleet run (the paper's §2 numbers).
//
// build_study() reduces a FleetResult into the distributions the paper
// reports: the per-link capability CDF over the modulation ladder (§2.1 —
// "what fraction of links could run above their provisioned rate, and how
// far"), the aggregate potential capacity gain (the "+145 Tbps" analog),
// and the availability story (§2.2 — what fraction of failure events
// retained crawl capacity). bench/fleet_study dumps it as JSON for
// EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace rwc::fleet {

struct DeploymentStudy {
  /// One point of the capability CDF: how many links (directed edges,
  /// fleet-wide) could sustain at least `rate_gbps` at some round.
  struct CdfPoint {
    double rate_gbps = 0.0;
    std::uint64_t links_at_or_above = 0;
    double fraction = 0.0;
  };

  std::uint64_t instances = 0;
  std::uint64_t links = 0;  ///< directed edges across the fleet
  /// Capability CDF at every ladder rate, ascending.
  std::vector<CdfPoint> capability_cdf;
  /// Sum over links of max(capability - nominal, 0): the fleet's potential
  /// capacity gain if every link ran at its best observed rate.
  double total_gain_gbps = 0.0;
  double mean_gain_gbps = 0.0;

  std::uint64_t failure_events = 0;
  std::uint64_t crawl_retained_events = 0;
  /// §2.2: fraction of failure events that kept >= 50 G feasible.
  double crawl_retention_fraction = 0.0;

  /// Mean over instances of the per-round link-up fraction.
  double availability = 0.0;
  /// Fleet-wide delivered / offered volume.
  double delivered_fraction = 0.0;

  std::uint64_t total_rounds = 0;
  std::uint64_t incremental_hits = 0;
  double incremental_hit_rate = 0.0;
  /// Rounds served by solver-rung reuse (docs/SOLVERS.md) and the
  /// fraction of memo-miss rounds it covered.
  std::uint64_t partial_rounds = 0;
  double partial_hit_rate = 0.0;

  /// Fraction of links whose capability reached `rate_gbps` (nearest CDF
  /// point at or above); 0 when the ladder has no such rate.
  double fraction_at_or_above(double rate_gbps) const;
};

DeploymentStudy build_study(const FleetResult& fleet);

/// Compact single-object JSON rendering (bench/fleet_study --study-json).
std::string to_json(const DeploymentStudy& study);

}  // namespace rwc::fleet
