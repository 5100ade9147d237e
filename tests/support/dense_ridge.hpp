// The OD-space ridge estimate: the differential reference of the damped
// solve in demand::estimate_od_volumes (src/demand/estimator.cpp). The
// estimator solves the ridge in link space, factoring the m x m matrix
// R R^T + lambda I over the usable links; this reference factors the dense
// n x n normal equations (R^T R + lambda I) x = R^T y + lambda x0 over the
// observable ODs, with the same rows, columns, prior and lambda, and
// projects onto x >= 0 as the estimator does. Both forms have the same
// solution, so tests/test_demand_differential.cpp holds the two within
// rounding on under-determined instances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "demand/counters.hpp"
#include "demand/estimator.hpp"
#include "demand/routing_matrix.hpp"
#include "util/check.hpp"

namespace rwc::demand {

/// Per OD, the projected OD-space ridge estimate for observable ODs and the
/// intent for the rest. The rows are the links whose sample is present;
/// every present sample must be finite, non-negative and loss-free. An
/// empty `prior` is cold: the intent is the prior. Returns an empty vector
/// when the damped system does not factor.
inline std::vector<double> dense_ridge_estimate(
    const RoutingMatrix& matrix, const CounterSet& counters,
    std::span<const double> intent, std::span<const double> prior,
    double interval_seconds) {
  RWC_EXPECTS(counters.samples.size() == matrix.links);
  RWC_EXPECTS(intent.size() == matrix.ods);
  std::vector<std::size_t> links;
  std::vector<double> observed;
  for (std::size_t i = 0; i < matrix.links; ++i) {
    const CounterSample& sample = counters.samples[i];
    if (sample.missing) continue;
    RWC_EXPECTS(std::isfinite(sample.tx_bytes) && sample.tx_bytes >= 0.0);
    RWC_EXPECTS(sample.lost_packets == 0.0);
    links.push_back(i);
    observed.push_back(gbps_of(sample.tx_bytes, interval_seconds));
  }

  std::vector<std::size_t> cols;
  std::vector<std::ptrdiff_t> col_of(matrix.ods, -1);
  for (std::size_t j = 0; j < matrix.ods; ++j) {
    if (!matrix.observable[j]) continue;
    col_of[j] = static_cast<std::ptrdiff_t>(cols.size());
    cols.push_back(j);
  }
  std::vector<double> volumes(intent.begin(), intent.end());
  const std::size_t n = cols.size();
  if (n == 0 || links.empty()) return volumes;

  // A = R^T R + lambda I and b = R^T y + lambda x0, dense.
  std::vector<double> a(n * n, 0.0);
  std::vector<double> b(n, 0.0);
  for (std::size_t r = 0; r < links.size(); ++r) {
    for (const RoutingMatrix::Entry& e1 : matrix.rows[links[r]]) {
      const auto c1 = static_cast<std::size_t>(col_of[e1.od]);
      b[c1] += e1.fraction * observed[r];
      for (const RoutingMatrix::Entry& e2 : matrix.rows[links[r]])
        a[c1 * n + static_cast<std::size_t>(col_of[e2.od])] +=
            e1.fraction * e2.fraction;
    }
  }
  double max_diag = 0.0;
  for (std::size_t c = 0; c < n; ++c)
    max_diag = std::max(max_diag, a[c * n + c]);
  const double lambda = kRidgeDamping * std::max(max_diag, 1.0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t od = cols[c];
    a[c * n + c] += lambda;
    b[c] += lambda * (od < prior.size() ? prior[od] : intent[od]);
  }

  // Cholesky A = L L^T in place (lower triangle), then L L^T x = b.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < k; ++j) a[k * n + k] -= a[k * n + j] * a[k * n + j];
    if (!(a[k * n + k] > 0.0)) return {};
    a[k * n + k] = std::sqrt(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) a[i * n + k] -= a[i * n + j] * a[k * n + j];
      a[i * n + k] /= a[k * n + k];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) b[i] -= a[i * n + j] * b[j];
    b[i] /= a[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) b[i] -= a[j * n + i] * b[j];
    b[i] /= a[i * n + i];
  }
  for (std::size_t c = 0; c < n; ++c) volumes[cols[c]] = std::max(0.0, b[c]);
  return volumes;
}

}  // namespace rwc::demand
