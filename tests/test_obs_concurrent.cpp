// Cross-thread stress for the observability layer: instruments record from
// many pool workers at once and registry lookups race with recordings.
#include <gtest/gtest.h>

#include <string>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"

namespace rwc::obs {
namespace {

TEST(ObsConcurrent, CountersSumExactlyUnderContention) {
  auto& counter = Registry::global().counter("test.obs.stress.counter");
  const std::uint64_t before = counter.value();
  exec::ThreadPool pool(8);
  constexpr std::size_t kIncrements = 20000;
  exec::parallel_for(pool, kIncrements, [&](std::size_t) { counter.add(); });
  EXPECT_EQ(counter.value(), before + kIncrements);
}

TEST(ObsConcurrent, HistogramCountAndSumStayConsistent) {
  auto& histogram =
      Registry::global().histogram("test.obs.stress.histogram");
  const std::uint64_t count_before = histogram.count();
  const double sum_before = histogram.sum();
  exec::ThreadPool pool(8);
  constexpr std::size_t kObservations = 10000;
  exec::parallel_for(pool, kObservations,
                     [&](std::size_t) { histogram.observe(1.0); });
  EXPECT_EQ(histogram.count(), count_before + kObservations);
  EXPECT_NEAR(histogram.sum(), sum_before + static_cast<double>(kObservations),
              1e-6);
}

TEST(ObsConcurrent, RegistryLookupsRaceSafelyWithRecordings) {
  // Concurrent first-time registrations of distinct names, repeated lookups
  // of one shared name, and recordings — all through the same registry.
  exec::ThreadPool pool(8);
  auto& shared = Registry::global().counter("test.obs.stress.shared");
  const std::uint64_t before = shared.value();
  exec::parallel_for(pool, 512, [&](std::size_t i) {
    auto& unique = Registry::global().counter(
        "test.obs.stress.unique." + std::to_string(i % 64));
    unique.add();
    Registry::global().counter("test.obs.stress.shared").add();
  });
  EXPECT_EQ(shared.value(), before + 512);
  std::uint64_t unique_total = 0;
  for (int i = 0; i < 64; ++i)
    unique_total += Registry::global()
                        .counter("test.obs.stress.unique." +
                                 std::to_string(i))
                        .value();
  EXPECT_EQ(unique_total, 512u);
}

}  // namespace
}  // namespace rwc::obs
