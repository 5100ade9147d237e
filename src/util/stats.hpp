// Summary statistics, empirical CDFs and highest-density-region (HDR)
// estimation — the measurement-analysis primitives behind Figures 2a, 2b,
// 3b, 4c and 6b of the paper.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rwc::util {

/// Basic moments and extrema of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  double min = 0.0;
  double max = 0.0;
};

/// Computes Summary over `samples`; returns a zeroed Summary when empty.
Summary summarize(std::span<const double> samples);

/// p-th percentile (p in [0,1]) with linear interpolation.
/// Requires non-empty `sorted` in ascending order.
double percentile_sorted(std::span<const double> sorted, double p);

/// Closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  double width() const { return hi - lo; }
};

/// Highest density region: the narrowest interval containing at least
/// `coverage` fraction of the samples (the paper uses coverage = 0.95).
/// Requires non-empty samples and coverage in (0, 1].
Interval highest_density_region(std::span<const double> samples,
                                double coverage);

/// Empirical cumulative distribution of a sample set.
class EmpiricalCdf {
 public:
  /// Takes ownership of the samples and sorts them. Requires non-empty.
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Quantile: smallest sample value v with CDF(v) >= fraction.
  /// fraction in [0, 1].
  double value_at(double fraction) const;

  /// Fraction of samples <= value.
  double fraction_at_or_below(double value) const;

  double min() const { return sorted_.front(); }
  double max() const { return sorted_.back(); }
  std::size_t size() const { return sorted_.size(); }
  std::span<const double> sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace rwc::util
