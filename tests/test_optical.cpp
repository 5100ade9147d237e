// Tests for the modulation ladder and the BER/EVM models.
#include <gtest/gtest.h>


#include <cmath>
#include "optical/ber.hpp"
#include "optical/modulation.hpp"
#include "util/check.hpp"

namespace rwc::optical {
namespace {

using util::Db;
using util::Gbps;
using namespace util::literals;

TEST(ModulationTable, PaperAnchorThresholds) {
  const auto table = ModulationTable::standard();
  // The two thresholds the paper states explicitly.
  EXPECT_EQ(table.threshold_for(100_Gbps), 6.5_dB);
  EXPECT_EQ(table.threshold_for(50_Gbps), 3.0_dB);
  EXPECT_EQ(table.min_capacity(), 50_Gbps);
  EXPECT_EQ(table.max_capacity(), 200_Gbps);
  EXPECT_EQ(table.formats().size(), 6u);
}

TEST(ModulationTable, LadderIsMonotone) {
  const auto table = ModulationTable::standard();
  const auto formats = table.formats();
  for (std::size_t i = 1; i < formats.size(); ++i) {
    EXPECT_GT(formats[i].capacity, formats[i - 1].capacity);
    EXPECT_GT(formats[i].min_snr, formats[i - 1].min_snr);
    EXPECT_GT(formats[i].bits_per_symbol, formats[i - 1].bits_per_symbol);
  }
}

TEST(ModulationTable, BestForSnrSelectsHighestFeasible) {
  const auto table = ModulationTable::standard();
  EXPECT_EQ(table.feasible_capacity(20.0_dB), 200_Gbps);
  EXPECT_EQ(table.feasible_capacity(13.0_dB), 200_Gbps);   // exactly at
  EXPECT_EQ(table.feasible_capacity(12.99_dB), 175_Gbps);  // just below
  EXPECT_EQ(table.feasible_capacity(6.5_dB), 100_Gbps);
  EXPECT_EQ(table.feasible_capacity(4.0_dB), 50_Gbps);
  EXPECT_EQ(table.feasible_capacity(2.9_dB), 0_Gbps);  // link unusable
  EXPECT_FALSE(table.best_for_snr(1.0_dB).has_value());
}

TEST(ModulationTable, MarginShiftsTheLookup) {
  const auto table = ModulationTable::standard();
  EXPECT_EQ(table.feasible_capacity(13.4_dB, 0.0_dB), 200_Gbps);
  EXPECT_EQ(table.feasible_capacity(13.4_dB, 0.5_dB), 175_Gbps);
  EXPECT_EQ(table.feasible_capacity(3.4_dB, 0.5_dB), 0_Gbps);
}

TEST(ModulationTable, HasRateAndFormatLookup) {
  const auto table = ModulationTable::standard();
  EXPECT_TRUE(table.has_rate(125_Gbps));
  EXPECT_FALSE(table.has_rate(130_Gbps));
  EXPECT_EQ(table.format_for(150_Gbps).name, "DP-8QAM");
  EXPECT_THROW(table.format_for(130_Gbps), util::CheckError);
  EXPECT_THROW(table.threshold_for(42_Gbps), util::CheckError);
}

TEST(ModulationTable, CustomTableValidation) {
  // Thresholds must increase with capacity.
  EXPECT_THROW(ModulationTable({
                   {"a", 100_Gbps, 6.0_dB, 2.0},
                   {"b", 200_Gbps, 5.0_dB, 4.0},
               }),
               util::CheckError);
  EXPECT_THROW(ModulationTable({}), util::CheckError);
}

TEST(Ber, QFunctionAnchors) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(q_function(3.0), 0.001350, 1e-5);
  EXPECT_LT(q_function(6.0), 1e-8);
}

TEST(Ber, DecreasesWithSnr) {
  const auto table = ModulationTable::standard();
  for (const auto& format : table.formats()) {
    double previous = 1.0;
    for (double snr = 0.0; snr <= 20.0; snr += 1.0) {
      const double ber = approx_ber(format, Db{snr});
      EXPECT_LE(ber, previous + 1e-12);
      previous = ber;
    }
  }
}

TEST(Ber, DenserFormatsNeedMoreSnr) {
  const auto table = ModulationTable::standard();
  const auto formats = table.formats();
  const Db snr{10.0};
  for (std::size_t i = 1; i < formats.size(); ++i)
    EXPECT_GE(approx_ber(formats[i], snr), approx_ber(formats[i - 1], snr));
}

TEST(Ber, ViableAtThresholdInfeasibleFarBelow) {
  const auto table = ModulationTable::standard();
  for (const auto& format : table.formats()) {
    EXPECT_TRUE(format_viable(format, format.min_snr))
        << format.name << " must be viable at its own threshold";
    EXPECT_FALSE(format_viable(format, format.min_snr - Db{3.0}))
        << format.name << " must fail 3 dB below threshold";
  }
}

TEST(Evm, MatchesTheoreticalInverseSqrtSnr) {
  EXPECT_NEAR(expected_evm(Db{10.0}), 1.0 / std::sqrt(10.0), 1e-9);
  EXPECT_NEAR(expected_evm(Db{20.0}), 0.1, 1e-9);
  EXPECT_GT(expected_evm(Db{5.0}), expected_evm(Db{15.0}));
}

// The hybrid formats interpolate between their bracketing formats.
TEST(Ber, HybridBetweenBracketingFormats) {
  const auto table = ModulationTable::standard();
  const auto& qpsk = table.format_for(100_Gbps);
  const auto& hybrid = table.format_for(125_Gbps);
  const auto& qam8 = table.format_for(150_Gbps);
  const Db snr{9.0};
  const double lo = approx_ber(qpsk, snr);
  const double hi = approx_ber(qam8, snr);
  const double mid = approx_ber(hybrid, snr);
  EXPECT_GE(mid, lo);
  EXPECT_LE(mid, hi);
}

}  // namespace
}  // namespace rwc::optical
