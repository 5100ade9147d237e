// Tests for the observability primitives: counter/gauge/histogram
// semantics, histogram quantile accuracy against the exact sample quantiles,
// the ScopedTimer, and the JSON exporter round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rwc::obs {
namespace {

TEST(ObsCounter, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsGauge, SetOverwritesAddAccumulates) {
  Gauge gauge;
  gauge.set(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.set(-2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.0);
  gauge.add(3.0);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(ObsHistogram, SummaryStatistics) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);

  h.observe(0.5);    // bucket 0 (le 1)
  h.observe(5.0);    // bucket 1 (le 10)
  h.observe(50.0);   // bucket 2 (le 100)
  h.observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.mean(), 555.5 / 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST(ObsHistogram, BoundaryValuesLandInLowerBucket) {
  Histogram h({1.0, 10.0});
  h.observe(1.0);   // le-semantics: exactly on the bound -> that bucket
  h.observe(10.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), util::CheckError);
  EXPECT_THROW(Histogram({1.0, 1.0}), util::CheckError);
  EXPECT_THROW(Histogram({2.0, 1.0}), util::CheckError);
}

TEST(ObsHistogram, DefaultLatencyBoundsMatchContract) {
  const auto& bounds = Histogram::default_latency_bounds();
  ASSERT_EQ(bounds.size(), 33u);
  EXPECT_NEAR(bounds.front(), 1e-6, 1e-12);
  EXPECT_NEAR(bounds.back(), 100.0, 1e-6);
  // Four buckets per decade.
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::pow(10.0, 0.25), 1e-9);
}

TEST(ObsHistogram, QuantilesTrackExactQuantilesOnLognormalLatencies) {
  // Lognormal "latencies" spanning several buckets; the bucketed quantile
  // should agree with the exact quantile of the same samples to within
  // roughly one bucket width (x10^0.25 ~ 1.78 per bucket).
  Histogram h(Histogram::default_latency_bounds());
  std::vector<double> samples;
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double sample = std::exp(rng.normal(std::log(0.01), 1.0));
    h.observe(sample);
    samples.push_back(sample);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(h.quantile(0.5) / util::percentile_sorted(samples, 0.5), 1.0,
              0.8);
  EXPECT_NEAR(h.quantile(0.9) / util::percentile_sorted(samples, 0.9), 1.0,
              0.8);
  // Quantiles are monotone in q and clamped to the observed range.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_GE(h.quantile(0.01), h.min());
  EXPECT_LE(h.quantile(0.99), h.max());
}

TEST(ObsRegistry, HandlesAreStableAcrossResetValues) {
  Registry registry;
  Counter& counter = registry.counter("test.counter");
  Gauge& gauge = registry.gauge("test.gauge");
  Histogram& histogram = registry.histogram("test.histogram");
  counter.add(5);
  gauge.set(2.5);
  histogram.observe(0.01);

  registry.reset_values();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);

  // Same name -> same instrument; the old references still feed it.
  counter.add(3);
  EXPECT_EQ(registry.counter("test.counter").value(), 3u);
  EXPECT_EQ(&registry.counter("test.counter"), &counter);
  EXPECT_EQ(&registry.gauge("test.gauge"), &gauge);
  EXPECT_EQ(&registry.histogram("test.histogram"), &histogram);
}

TEST(ObsRegistry, CustomBoundsFirstRegistrationWins) {
  Registry registry;
  Histogram& h = registry.histogram("custom", {1.0, 2.0});
  EXPECT_EQ(h.upper_bounds().size(), 2u);
  // Re-request with different bounds returns the existing instrument.
  Histogram& again = registry.histogram("custom", {5.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.upper_bounds().size(), 2u);
}

TEST(ObsRegistry, ConcurrentCountingIsLossless) {
  Registry registry;
  Counter& counter = registry.counter("test.concurrent");
  Histogram& histogram = registry.histogram("test.concurrent_hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        histogram.observe(1e-3);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
}

TEST(ObsScopedTimer, RecordsAndAccumulates) {
  Histogram h(Histogram::default_latency_bounds());
  double accumulated = 0.0;
  { ScopedTimer timer(h, &accumulated); }
  { ScopedTimer timer(h, &accumulated); }
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(accumulated, 0.0);
  EXPECT_NEAR(h.sum(), accumulated, 1e-9);
}

TEST(ObsExport, JsonRoundTrip) {
  Registry registry;
  registry.counter("rt.counter").add(123);
  registry.gauge("rt.gauge").set(-2.75);
  Histogram& h = registry.histogram("rt.histogram", {0.001, 0.1, 10.0});
  h.observe(0.0005);
  h.observe(0.05);
  h.observe(0.05);
  h.observe(1000.0);  // overflow

  const Snapshot before = snapshot(registry);
  const std::string json = dump_json(registry);
  const Snapshot after = parse_json(json);

  ASSERT_EQ(after.counters.size(), 1u);
  EXPECT_EQ(after.counters.at("rt.counter"), 123u);
  ASSERT_EQ(after.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(after.gauges.at("rt.gauge"), -2.75);

  ASSERT_EQ(after.histograms.size(), 1u);
  const HistogramSnapshot& hs = after.histograms.at("rt.histogram");
  EXPECT_EQ(hs.count, 4u);
  EXPECT_DOUBLE_EQ(hs.sum, before.histograms.at("rt.histogram").sum);
  EXPECT_DOUBLE_EQ(hs.min, 0.0005);
  EXPECT_DOUBLE_EQ(hs.max, 1000.0);
  ASSERT_EQ(hs.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_DOUBLE_EQ(hs.buckets[0].first, 0.001);
  EXPECT_EQ(hs.buckets[0].second, 1u);
  EXPECT_EQ(hs.buckets[1].second, 2u);
  EXPECT_EQ(hs.buckets[2].second, 0u);
  EXPECT_TRUE(std::isinf(hs.buckets[3].first));
  EXPECT_EQ(hs.buckets[3].second, 1u);

  // Parsed quantile fields match the emitted ones bit-for-bit (shortest
  // round-trippable number formatting).
  EXPECT_DOUBLE_EQ(hs.p50, before.histograms.at("rt.histogram").p50);
  EXPECT_DOUBLE_EQ(hs.p90, before.histograms.at("rt.histogram").p90);
  EXPECT_DOUBLE_EQ(hs.p99, before.histograms.at("rt.histogram").p99);
}

TEST(ObsExport, EmptyRegistryRoundTrips) {
  Registry registry;
  const Snapshot parsed = parse_json(dump_json(registry));
  EXPECT_TRUE(parsed.counters.empty());
  EXPECT_TRUE(parsed.gauges.empty());
  EXPECT_TRUE(parsed.histograms.empty());
}

TEST(ObsExport, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), util::CheckError);
  EXPECT_THROW(parse_json("{\"bogus\": {\"x\": 1}}"), util::CheckError);
  EXPECT_THROW(parse_json("{\"counters\": {\"x\": }}"), util::CheckError);
  EXPECT_THROW(parse_json("{\"counters\": {}} trailing"),
               util::CheckError);
}

TEST(ObsExport, TableListsEveryInstrument) {
  Registry registry;
  registry.counter("table.counter").add(7);
  registry.gauge("table.gauge").set(1.0);
  registry.histogram("table.histogram").observe(0.5);
  const std::string table = dump_table(registry);
  EXPECT_NE(table.find("table.counter"), std::string::npos);
  EXPECT_NE(table.find("table.gauge"), std::string::npos);
  EXPECT_NE(table.find("table.histogram"), std::string::npos);
}

}  // namespace
}  // namespace rwc::obs
