// Tests for summary statistics, percentiles, empirical CDFs and the
// highest-density-region estimator (the HDR drives Fig. 2a/2b).
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rwc::util {
namespace {

TEST(Summary, EmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, KnownValues) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.25), 2.5);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v = {7.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 7.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  const std::vector<double> v = {1.0};
  EXPECT_THROW(percentile_sorted({}, 0.5), CheckError);
  EXPECT_THROW(percentile_sorted(v, 1.5), CheckError);
}

TEST(Hdr, FullCoverageIsFullRange) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 9.0};
  const Interval hdr = highest_density_region(v, 1.0);
  EXPECT_DOUBLE_EQ(hdr.lo, 1.0);
  EXPECT_DOUBLE_EQ(hdr.hi, 9.0);
}

TEST(Hdr, FindsTheDenseCluster) {
  // 95 samples near 10, 5 outliers near 0: the 95% HDR must hug the cluster.
  std::vector<double> v;
  for (int i = 0; i < 95; ++i) v.push_back(10.0 + 0.01 * i);
  for (int i = 0; i < 5; ++i) v.push_back(0.1 * i);
  const Interval hdr = highest_density_region(v, 0.95);
  EXPECT_GE(hdr.lo, 9.9);
  EXPECT_LE(hdr.hi, 11.0);
  EXPECT_LT(hdr.width(), 1.0);
}

TEST(Hdr, WindowContainsRequestedMass) {
  Rng rng(8);
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) v.push_back(rng.normal(0.0, 1.0));
  const Interval hdr = highest_density_region(v, 0.95);
  const auto inside = std::count_if(v.begin(), v.end(), [&](double x) {
    return x >= hdr.lo && x <= hdr.hi;
  });
  EXPECT_GE(static_cast<double>(inside) / v.size(), 0.95 - 1e-9);
}

TEST(Hdr, NarrowerThanCentralIntervalForSkewedData) {
  // For a heavily right-skewed sample the HDR should beat the naive
  // (2.5%, 97.5%) percentile interval.
  Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.lognormal(0.0, 1.0));
  const Interval hdr = highest_density_region(v, 0.95);
  std::sort(v.begin(), v.end());
  const double central =
      percentile_sorted(v, 0.975) - percentile_sorted(v, 0.025);
  EXPECT_LT(hdr.width(), central);
}

TEST(Hdr, SingleSample) {
  const std::vector<double> v = {3.0};
  const Interval hdr = highest_density_region(v, 0.95);
  EXPECT_DOUBLE_EQ(hdr.lo, 3.0);
  EXPECT_DOUBLE_EQ(hdr.hi, 3.0);
}

// Property sweep: HDR is never wider than the range and always contains the
// requested mass, across coverages and distributions.
class HdrSweep : public ::testing::TestWithParam<double> {};

TEST_P(HdrSweep, CoverageAndBoundedness) {
  const double coverage = GetParam();
  Rng rng(static_cast<std::uint64_t>(coverage * 1000));
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i)
    v.push_back(rng.bernoulli(0.8) ? rng.normal(5.0, 0.5)
                                   : rng.uniform(0.0, 20.0));
  const Summary s = summarize(v);
  const Interval hdr = highest_density_region(v, coverage);
  EXPECT_GE(hdr.lo, s.min);
  EXPECT_LE(hdr.hi, s.max);
  const auto inside = std::count_if(v.begin(), v.end(), [&](double x) {
    return x >= hdr.lo && x <= hdr.hi;
  });
  EXPECT_GE(static_cast<double>(inside) / v.size(), coverage - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Coverages, HdrSweep,
                         ::testing::Values(0.5, 0.75, 0.9, 0.95, 0.99, 1.0));

TEST(EmpiricalCdf, FractionsAndQuantilesAgree) {
  EmpiricalCdf cdf({4.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 4.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.value_at(1.0), 4.0);
}

TEST(EmpiricalCdf, IsMonotone) {
  Rng rng(123);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.normal(0.0, 2.0));
  EmpiricalCdf cdf(v);
  double previous = -1.0;
  for (double x = -8.0; x <= 8.0; x += 0.25) {
    const double f = cdf.fraction_at_or_below(x);
    EXPECT_GE(f, previous);
    previous = f;
  }
}

}  // namespace
}  // namespace rwc::util
