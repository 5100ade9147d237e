#include "dataplane/counters.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rwc::dataplane {

std::vector<demand::DataplaneLinkObservation> counter_observations(
    const RoundResult& result, const demand::RoutingMatrix& matrix,
    std::span<const double> installed_volumes, double rel_tol) {
  RWC_CHECK_MSG(result.links.size() == matrix.links,
                "counter_observations: result/matrix link count mismatch");
  RWC_CHECK_MSG(installed_volumes.size() == matrix.ods,
                "counter_observations: volume/OD count mismatch");
  RWC_CHECK_MSG(result.measure_seconds > 0.0,
                "counter_observations: empty measurement region");

  const std::size_t ods = matrix.ods;
  auto gbps_of = [&result](std::uint64_t quanta) {
    return demand::gbps_of(static_cast<double>(quanta) /
                               static_cast<double>(kQuantaPerByte),
                           result.measure_seconds);
  };
  std::vector<demand::DataplaneLinkObservation> observations(matrix.links);
  for (std::size_t i = 0; i < matrix.links; ++i) {
    demand::DataplaneLinkObservation& obs = observations[i];
    const LinkRoundStats& link = result.links[i];
    obs.delivered_gbps = gbps_of(link.measured_bytes);
    obs.dropped_gbps = gbps_of(link.measured_dropped_bytes);

    // Reconciliation: per-OD measured rates against the installed shares,
    // the whole-link rate against the analytic offered load (this catches
    // stray traffic from ODs outside the row, e.g. pre-migration drain),
    // and a drop-free measurement region.
    bool ok = link.measured_dropped_bytes == 0;
    for (const demand::RoutingMatrix::Entry& entry : matrix.rows[i]) {
      if (!ok) break;
      const double expected = entry.fraction * installed_volumes[entry.od];
      const double measured =
          gbps_of(result.link_od_measured_bytes[i * ods + entry.od]);
      ok = std::abs(measured - expected) <=
           rel_tol * std::max(1.0, std::abs(expected));
    }
    if (ok) {
      const double analytic =
          demand::offered_load(matrix.rows[i], installed_volumes);
      ok = std::abs(obs.delivered_gbps - analytic) <=
           rel_tol * std::max(1.0, std::abs(analytic));
    }
    obs.reconcilable = ok;
  }
  return observations;
}

}  // namespace rwc::dataplane
