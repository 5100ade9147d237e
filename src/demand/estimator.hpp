// OD traffic-matrix inference from link counters (rwc::demand).
//
// The estimator inverts the installed routing matrix against one round of
// observed link counters — the pseudoinverse technique of SNIPPETS.md
// snippet 1 (estimate_od_data.py), reshaped for a closed control loop:
//
//   1. Sanitize: missing / non-finite / negative counters are excluded and
//      counted (demand.counters_*); a 100%-loss link is unobservable.
//   2. Loss composition: each usable link's offered load is its delivered
//      rate divided back by (1 - loss_rate), loss_rate from the packet
//      counters (0/0 -> 0: a zero-packet interval is a clean empty link).
//   3. Solve min ||R x - y||^2 over the observable ODs (n columns) and the
//      usable links (m rows). When n <= m the undamped OD-space normal
//      equations R^T R x = R^T y are factored first (n x n Cholesky); for
//      n > m, R^T R has rank at most m and cannot be factored, so that
//      attempt is skipped. On rank deficiency, or for n > m, the ridge
//      problem min ||R x - y||^2 + lambda ||x - x0||^2, damped toward the
//      EWMA/intent prior x0 with lambda = kRidgeDamping * max(largest
//      squared column norm, 1), is solved in LINK space:
//        x = x0 + R^T (R R^T + lambda I)^-1 (y - R x0),
//      an m x m Cholesky of R R^T + lambda I accumulated from the sparse
//      routing columns. Both forms of the ridge have the same solution;
//      the link-space form costs O(m^3) and the OD-space form O(n^3),
//      and gravity matrices have far more ODs than links.
//   4. Project onto x >= 0. The EXACT-RECOVERY CERTIFICATE snaps the
//      projected candidate to the 1e-6 Gbps grid, re-synthesizes every
//      link's byte counter from it in the contractual row-entry order and
//      accepts the snapped candidate iff every counter matches
//      bit-for-bit; otherwise the estimate is returned unsnapped. The
//      certificate does not need n <= m: a damped solve certifies too
//      whenever its snapped candidate reproduces the counters, as it does
//      when the prior already explains them. On clean zero-noise rounds
//      with on-grid true volumes it fires and the estimate IS the truth,
//      which is what makes estimated-demand rounds reproduce oracle round
//      signatures exactly (docs/DEMAND.md §4,
//      tests/test_demand_differential.cpp).
//   5. Unobservable ODs (empty routing column) fall back to the offered
//      intent — the host-reported demand a real controller has anyway.
//
// The `demand.solve` fault site (kind kBudget) fires once per call: when
// the armed budget is smaller than the unknown count the solve is skipped
// and every OD falls back to its prior/intent (finite and non-negative by
// construction — the degraded mode the property harness pins).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "demand/config.hpp"
#include "demand/counters.hpp"
#include "demand/routing_matrix.hpp"

namespace rwc::demand {

/// 1e-6 Gbps (~1 kbit/s) grid a certified estimate is snapped to.
inline constexpr double kVolumeGridGbps = 1e-6;

/// Ridge damping of the least-squares fallback, relative to the largest
/// squared column norm of the routing matrix (floored at 1).
inline constexpr double kRidgeDamping = 1e-3;

/// Snaps a volume onto the estimate grid (idempotent for the magnitudes the
/// ladder deals in).
double snap_to_grid(double gbps);

/// Per-round outcome accounting. Work/diagnostic data only — never part of
/// a round's result signature (the estimated volumes themselves are).
struct EstimateStats {
  bool estimated = false;         ///< a least-squares solve ran
  bool exact = false;             ///< exact-recovery certificate fired
  bool damped = false;            ///< the ridge-damped link-space solve ran
  bool budget_exhausted = false;  ///< demand.solve budget fell back to prior
  std::uint64_t sanitized = 0;    ///< non-finite/negative samples excluded
  std::uint64_t dropped = 0;      ///< missing samples
  std::uint64_t lossy_unobservable = 0;  ///< 100%-loss links excluded
  std::uint64_t unobservable_ods = 0;    ///< ODs served from intent
  double residual = 0.0;  ///< RMS link-load residual of the estimate
};

struct EstimateResult {
  std::vector<double> volumes;  ///< per OD, finite and >= 0
  EstimateStats stats;
};

/// Estimates per-OD volumes from `counters` against `matrix`. `intent` is
/// the offered-intent fallback (per OD); `prior` is the EWMA history prior
/// (empty == cold, intent substitutes). Pure function of its arguments plus
/// the armed fault plan.
EstimateResult estimate_od_volumes(const RoutingMatrix& matrix,
                                   const CounterSet& counters,
                                   std::span<const double> intent,
                                   std::span<const double> prior,
                                   const DemandConfig& config);

}  // namespace rwc::demand
