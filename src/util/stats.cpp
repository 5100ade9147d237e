#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rwc::util {

Summary summarize(std::span<const double> samples) {
  Summary s;
  if (samples.empty()) return s;
  s.count = samples.size();
  double sum = 0.0;
  s.min = samples.front();
  s.max = samples.front();
  for (double v : samples) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (double v : samples) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(s.count));
  return s;
}

double percentile_sorted(std::span<const double> sorted, double p) {
  RWC_EXPECTS(!sorted.empty());
  RWC_EXPECTS(p >= 0.0 && p <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double position = p * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  if (lower + 1 >= sorted.size()) return sorted.back();
  const double weight = position - static_cast<double>(lower);
  return sorted[lower] * (1.0 - weight) + sorted[lower + 1] * weight;
}

Interval highest_density_region(std::span<const double> samples,
                                double coverage) {
  RWC_EXPECTS(!samples.empty());
  RWC_EXPECTS(coverage > 0.0 && coverage <= 1.0);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto window = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::ceil(coverage * static_cast<double>(n))));
  RWC_CHECK(window >= 1);
  Interval best{sorted.front(), sorted[window - 1]};
  for (std::size_t i = 1; i + window <= n; ++i) {
    const double width = sorted[i + window - 1] - sorted[i];
    if (width < best.width()) best = {sorted[i], sorted[i + window - 1]};
  }
  return best;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  RWC_EXPECTS(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::value_at(double fraction) const {
  return percentile_sorted(sorted_, std::clamp(fraction, 0.0, 1.0));
}

double EmpiricalCdf::fraction_at_or_below(double value) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), value);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

}  // namespace rwc::util
