#include "demand/estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "fault/registry.hpp"
#include "obs/registry.hpp"

namespace rwc::demand {

namespace {

/// Handles into the global registry (docs/OBSERVABILITY.md: demand.*).
struct EstimatorMetrics {
  obs::Counter& solves;
  obs::Counter& exact;
  obs::Counter& damped;
  obs::Counter& sanitized;
  obs::Counter& dropped;
  obs::Counter& lossy;
  obs::Counter& unobservable_ods;
  obs::Counter& budget_exhausted;
  obs::Gauge& residual;

  static EstimatorMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static EstimatorMetrics metrics{
        registry.counter("demand.solves"),
        registry.counter("demand.estimates_exact"),
        registry.counter("demand.estimates_damped"),
        registry.counter("demand.counters_sanitized"),
        registry.counter("demand.counters_dropped"),
        registry.counter("demand.counters_lossy"),
        registry.counter("demand.unobservable_ods"),
        registry.counter("demand.solve.budget_exhausted"),
        registry.gauge("demand.residual"),
    };
    return metrics;
  }
};

struct UsableRow {
  std::size_t link = 0;
  double offered_gbps = 0.0;  ///< delivered rate divided back by (1 - loss)
};

/// One entry of a routing column: `fraction` on usable row `row`.
struct ColumnEntry {
  std::size_t row = 0;
  double fraction = 0.0;
};

bool finite_non_negative(double value) {
  return std::isfinite(value) && value >= 0.0;
}

/// In-place Cholesky LL^T of the dense symmetric `a` (n x n, row-major).
/// Returns false when a pivot falls below `tolerance` (rank deficiency).
bool cholesky(std::vector<double>& a, std::size_t n, double tolerance) {
  for (std::size_t k = 0; k < n; ++k) {
    double diag = a[k * n + k];
    for (std::size_t j = 0; j < k; ++j) diag -= a[k * n + j] * a[k * n + j];
    if (!(diag > tolerance)) return false;
    const double root = std::sqrt(diag);
    a[k * n + k] = root;
    for (std::size_t i = k + 1; i < n; ++i) {
      double value = a[i * n + k];
      for (std::size_t j = 0; j < k; ++j)
        value -= a[i * n + j] * a[k * n + j];
      a[i * n + k] = value / root;
    }
  }
  return true;
}

/// Solves L L^T x = b given the factor from cholesky().
std::vector<double> cholesky_solve(const std::vector<double>& l, std::size_t n,
                                   std::vector<double> b) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) b[i] -= l[i * n + j] * b[j];
    b[i] /= l[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) b[i] -= l[j * n + i] * b[j];
    b[i] /= l[i * n + i];
  }
  return b;
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

double snap_to_grid(double gbps) {
  return std::round(gbps / kVolumeGridGbps) * kVolumeGridGbps;
}

EstimateResult estimate_od_volumes(const RoutingMatrix& matrix,
                                   const CounterSet& counters,
                                   std::span<const double> intent,
                                   std::span<const double> prior,
                                   const DemandConfig& config) {
  auto& metrics = EstimatorMetrics::instance();
  EstimateResult result;
  result.volumes.assign(intent.begin(), intent.end());
  EstimateStats& stats = result.stats;

  // Sanitize + loss composition: one usable row per trustworthy link.
  std::vector<UsableRow> rows;
  bool all_links_clean = counters.samples.size() == matrix.links;
  rows.reserve(counters.samples.size());
  for (std::size_t i = 0;
       i < std::min(counters.samples.size(), matrix.links); ++i) {
    const CounterSample& sample = counters.samples[i];
    if (sample.missing) {
      ++stats.dropped;
      all_links_clean = false;
      continue;
    }
    if (!finite_non_negative(sample.tx_bytes) ||
        !finite_non_negative(sample.tx_packets) ||
        !finite_non_negative(sample.lost_packets)) {
      ++stats.sanitized;
      all_links_clean = false;
      continue;
    }
    const double total_packets = sample.tx_packets + sample.lost_packets;
    const double loss =
        total_packets > 0.0 ? sample.lost_packets / total_packets : 0.0;
    if (loss >= 1.0 - 1e-12) {  // 100% loss: offered load unrecoverable
      ++stats.lossy_unobservable;
      all_links_clean = false;
      continue;
    }
    double offered = gbps_of(sample.tx_bytes, config.interval_seconds);
    if (loss > 0.0) {
      offered /= (1.0 - loss);
      all_links_clean = false;  // lossy rounds never certify exact
    }
    rows.push_back({i, offered});
  }
  metrics.sanitized.add(stats.sanitized);
  metrics.dropped.add(stats.dropped);
  metrics.lossy.add(stats.lossy_unobservable);

  // Observable OD columns (compacted local index space).
  std::vector<std::uint32_t> cols;
  std::vector<std::int32_t> col_of(matrix.ods, -1);
  for (std::size_t j = 0; j < matrix.ods; ++j) {
    if (matrix.observable[j]) {
      col_of[j] = static_cast<std::int32_t>(cols.size());
      cols.push_back(static_cast<std::uint32_t>(j));
    }
  }
  stats.unobservable_ods = matrix.ods - cols.size();
  metrics.unobservable_ods.add(stats.unobservable_ods);

  // Bootstrap / nothing to invert: the offered intent is the estimate.
  if (cols.empty() || rows.empty()) return result;

  const auto prior_of = [&](std::uint32_t od) {
    return od < prior.size() ? prior[od] : intent[od];
  };

  // Fault injection (docs/FAULTS.md, site demand.solve): a solve budget
  // smaller than the unknown count aborts the inversion; every observable
  // OD falls back to its prior — finite and non-negative, never garbage.
  const fault::Action solve_fault = fault::next("demand.solve");
  if (solve_fault.kind == fault::Kind::kBudget &&
      static_cast<double>(cols.size()) > solve_fault.magnitude) {
    for (const std::uint32_t od : cols)
      result.volumes[od] = std::max(0.0, prior_of(od));
    stats.budget_exhausted = true;
    metrics.budget_exhausted.add();
    return result;
  }

  // The sparse columns of R over the usable rows, each in ascending row
  // order, and the largest squared column norm (the largest diagonal entry
  // of R^T R), which scales the damping.
  const std::size_t n = cols.size();
  const std::size_t m = rows.size();
  std::vector<std::size_t> col_start(n + 1, 0);
  for (const UsableRow& row : rows)
    for (const RoutingMatrix::Entry& entry : matrix.rows[row.link])
      ++col_start[static_cast<std::size_t>(col_of[entry.od]) + 1];
  for (std::size_t c = 0; c < n; ++c) col_start[c + 1] += col_start[c];
  std::vector<ColumnEntry> column(col_start[n]);
  std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
  for (std::size_t r = 0; r < m; ++r)
    for (const RoutingMatrix::Entry& entry : matrix.rows[rows[r].link])
      column[fill[static_cast<std::size_t>(col_of[entry.od])]++] = {
          r, entry.fraction};
  double max_diag = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    double norm = 0.0;
    for (std::size_t p = col_start[c]; p < col_start[c + 1]; ++p)
      norm += column[p].fraction * column[p].fraction;
    max_diag = std::max(max_diag, norm);
  }

  // Undamped OD-space normal equations R^T R x = R^T y, attempted only when
  // n <= m: R^T R has rank at most m, so for n > m it is always singular.
  std::vector<double> x;
  if (n <= m) {
    std::vector<double> a(n * n, 0.0);
    std::vector<double> b(n, 0.0);
    for (const UsableRow& row : rows) {
      const auto& entries = matrix.rows[row.link];
      for (const RoutingMatrix::Entry& e1 : entries) {
        const auto c1 = static_cast<std::size_t>(col_of[e1.od]);
        b[c1] += e1.fraction * row.offered_gbps;
        for (const RoutingMatrix::Entry& e2 : entries) {
          const auto c2 = static_cast<std::size_t>(col_of[e2.od]);
          a[c1 * n + c2] += e1.fraction * e2.fraction;
        }
      }
    }
    if (cholesky(a, n, 1e-10 * std::max(max_diag, 1.0)))
      x = cholesky_solve(a, n, std::move(b));
  }

  // Otherwise ridge-damped toward the EWMA/intent prior x0, solved in link
  // space: x = x0 + R^T (R R^T + lambda I)^-1 (y - R x0). Only the lower
  // triangle of the m x m Gram matrix is accumulated; cholesky() reads no
  // other entry.
  if (x.empty()) {
    std::vector<double> x0(matrix.ods);
    for (std::size_t j = 0; j < matrix.ods; ++j)
      x0[j] = prior_of(static_cast<std::uint32_t>(j));
    const double lambda = kRidgeDamping * std::max(max_diag, 1.0);
    std::vector<double> gram(m * m, 0.0);
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t p = col_start[c]; p < col_start[c + 1]; ++p)
        for (std::size_t q = col_start[c]; q <= p; ++q)
          gram[column[p].row * m + column[q].row] +=
              column[p].fraction * column[q].fraction;
    for (std::size_t r = 0; r < m; ++r) gram[r * m + r] += lambda;
    if (!cholesky(gram, m, 0.0)) {
      // Degenerate beyond repair (non-finite routing): fall back to the
      // prior.
      for (const std::uint32_t od : cols)
        result.volumes[od] = std::max(0.0, prior_of(od));
      return result;
    }
    std::vector<double> misfit(m);
    for (std::size_t r = 0; r < m; ++r)
      misfit[r] = rows[r].offered_gbps -
                  offered_load(matrix.rows[rows[r].link], x0);
    const std::vector<double> z = cholesky_solve(gram, m, std::move(misfit));
    x.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      double value = x0[cols[c]];
      for (std::size_t p = col_start[c]; p < col_start[c + 1]; ++p)
        value += column[p].fraction * z[column[p].row];
      x[c] = value;
    }
    stats.damped = true;
    metrics.damped.add();
  }
  stats.estimated = true;
  metrics.solves.add();

  // Non-negativity projection.
  for (double& value : x) value = std::max(0.0, value);

  // Exact-recovery certificate: snap onto the grid and re-synthesize every
  // link's byte counter in the contractual arithmetic order; accept the
  // snapped candidate iff every counter matches bit-for-bit. Only clean
  // loss-free rounds with every link reporting are eligible.
  bool lost_free = true;
  for (const CounterSample& sample : counters.samples)
    if (sample.missing || sample.lost_packets != 0.0) lost_free = false;
  if (all_links_clean && lost_free) {
    std::vector<double> candidate(matrix.ods, 0.0);
    for (std::size_t c = 0; c < n; ++c) candidate[cols[c]] = snap_to_grid(x[c]);
    bool certified = true;
    for (std::size_t i = 0; i < matrix.links && certified; ++i) {
      const double bytes = bytes_of(offered_load(matrix.rows[i], candidate),
                                    config.interval_seconds);
      certified = bitwise_equal(bytes, counters.samples[i].tx_bytes);
    }
    if (certified) {
      for (std::size_t c = 0; c < n; ++c) x[c] = candidate[cols[c]];
      stats.exact = true;
      metrics.exact.add();
    }
  }

  for (std::size_t c = 0; c < n; ++c) result.volumes[cols[c]] = x[c];

  // RMS link-load residual of the returned estimate (observable part only;
  // unobservable ODs route nothing, so they cancel out of every row).
  std::vector<double> final_volumes(matrix.ods, 0.0);
  for (std::size_t c = 0; c < n; ++c) final_volumes[cols[c]] = x[c];
  double squares = 0.0;
  for (const UsableRow& row : rows) {
    const double delta =
        offered_load(matrix.rows[row.link], final_volumes) - row.offered_gbps;
    squares += delta * delta;
  }
  stats.residual = std::sqrt(squares / static_cast<double>(rows.size()));
  metrics.residual.set(stats.residual);
  return result;
}

}  // namespace rwc::demand
