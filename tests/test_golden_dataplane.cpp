// Golden-trace regression tests for the dataplane differential oracle
// (docs/DATAPLANE.md §5): a short xcheck run — controller rounds replayed
// through the flowlet dataplane — is pinned bit-for-bit against committed
// fixtures for two seeds. One fixture line per round: the gap scores as
// IEEE-754 bit patterns, the violation/migration counters in decimal and
// the dataplane state signature in hex, with a field-level diff naming
// exactly what moved. Any drift in WCMP placement, the tick schedule, the
// HPCC controller, the timeline builder or the controller plan upstream
// shows up here first.
//
// The two seed fixtures cover fault-free rounds that never drop a byte. A
// third input pins the kernel's edge paths: a longer run with a dark
// unscheduled downshift, a load heavy enough to overflow link buffers and
// an armed dataplane.packet / dataplane.hash plan. Its lines also carry
// the delivered/dropped/peak-queue byte ledgers.
//
// Regenerating after an INTENDED behavior change:
//   RWC_GOLDEN_REGEN=1 ./build/tests/rwc_tests --gtest_filter='GoldenDataplane.*'
// then commit the rewritten tests/golden/dataplane-*.golden files
// alongside the change that explains them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "dataplane/xcheck.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"

#ifndef RWC_GOLDEN_DIR
#error "RWC_GOLDEN_DIR must point at the committed fixture directory"
#endif

namespace rwc {
namespace {

std::string bits_of(double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << bits;
  return out.str();
}

double double_of(const std::string& hex) {
  const std::uint64_t bits = std::stoull(hex, nullptr, 16);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string hex_of(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

/// One fixture line per dataplane round (plus a trailing chain line).
/// `ledger` appends the round's byte ledger (edge-path fixture only, so
/// the seed fixtures keep their format).
std::string serialize(std::size_t index, const dataplane::XcheckRound& round,
                      bool ledger) {
  std::ostringstream out;
  out << "round-" << index << ' ' << bits_of(round.max_shortfall) << ' '
      << bits_of(round.max_overshoot) << ' '
      << bits_of(round.total_alloc_gbps) << ' '
      << bits_of(round.total_goodput_gbps) << ' ' << round.migrations << ' '
      << round.rate_cuts << ' ' << round.capacity_violations << ' '
      << round.window_violations << ' ' << (round.scheduled ? 1 : 0) << ' '
      << hex_of(round.signature);
  if (ledger)
    out << ' ' << bits_of(round.delivered_bytes) << ' '
        << bits_of(round.dropped_bytes) << ' '
        << bits_of(round.max_queued_bytes);
  return out.str();
}

struct GoldenField {
  std::string name;
  std::string expected;
  std::string got;
};

std::vector<GoldenField> diff_line(const std::string& expected,
                                   const std::string& got) {
  static const char* kFields[] = {
      "name",       "max_shortfall",       "max_overshoot",
      "alloc_gbps", "goodput_gbps",        "migrations",
      "rate_cuts",  "capacity_violations", "window_violations",
      "scheduled",  "signature",           "delivered_bytes",
      "dropped_bytes", "max_queued_bytes"};
  std::istringstream expected_in(expected), got_in(got);
  std::vector<GoldenField> diffs;
  for (const char* field : kFields) {
    std::string expected_token, got_token;
    expected_in >> expected_token;
    got_in >> got_token;
    if (expected_token == got_token) continue;
    GoldenField diff{field, expected_token, got_token};
    const bool is_bits = std::string(field).find("_gbps") != std::string::npos ||
                         std::string(field).find("_bytes") != std::string::npos ||
                         std::string(field).find("shortfall") != std::string::npos ||
                         std::string(field).find("overshoot") != std::string::npos;
    if (is_bits && expected_token.size() == 16 && got_token.size() == 16) {
      diff.expected += " (" + std::to_string(double_of(expected_token)) + ")";
      diff.got += " (" + std::to_string(double_of(got_token)) + ")";
    }
    diffs.push_back(diff);
  }
  return diffs;
}

/// Compares `outcome` line by line against tests/golden/dataplane-<stem>.
void check_against_golden(const std::string& stem,
                          const dataplane::XcheckOutcome& outcome,
                          bool ledger) {
  const std::filesystem::path path =
      std::filesystem::path(RWC_GOLDEN_DIR) / ("dataplane-" + stem + ".golden");

  std::vector<std::string> lines;
  for (std::size_t r = 0; r < outcome.rounds.size(); ++r)
    lines.push_back(serialize(r, outcome.rounds[r], ledger));
  lines.push_back("chain " + hex_of(outcome.chain));

  if (std::getenv("RWC_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << '\n';
    GTEST_SKIP() << "regenerated " << path << " — commit it";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing fixture " << path << "; generate it with\n  RWC_GOLDEN_REGEN=1 "
      << "./build/tests/rwc_tests --gtest_filter='GoldenDataplane.*'";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) expected.push_back(line);

  ASSERT_EQ(expected.size(), lines.size())
      << "fixture " << path << " has " << expected.size()
      << " lines, the run produced " << lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (expected[i] == lines[i]) continue;
    std::ostringstream message;
    message << "line " << i << " drifted from " << path << ":\n";
    for (const GoldenField& diff : diff_line(expected[i], lines[i]))
      message << "  " << diff.name << ": expected " << diff.expected
              << ", got " << diff.got << '\n';
    message << "If this change is intended, regenerate with\n"
            << "  RWC_GOLDEN_REGEN=1 ./build/tests/rwc_tests "
            << "--gtest_filter='GoldenDataplane.*'\nand commit the new "
            << "fixture.";
    ADD_FAILURE() << message.str();
  }
}

void check_seed_against_golden(std::uint64_t seed) {
  dataplane::XcheckConfig config;
  config.seed = seed;
  config.rounds = 3;
  const dataplane::XcheckOutcome outcome = dataplane::run_xcheck(config);
  ASSERT_TRUE(outcome.pass) << outcome.failure;
  check_against_golden(std::to_string(seed), outcome, false);
}

TEST(GoldenDataplane, XcheckSeed20170701) {
  check_seed_against_golden(20170701);
}

TEST(GoldenDataplane, XcheckSeed20250808) {
  check_seed_against_golden(20250808);
}

// Edge paths the seed fixtures never reach: drops at an overflowing
// buffer, a link going dark mid-round with no schedule, HPCC cuts, WCMP
// migrations under hash faults, and source drop/duplicate/delay. Source
// drops can push goodput below the oracle's gap, so this input pins the
// per-round fields without asserting outcome.pass.
TEST(GoldenDataplane, XcheckEdgePathsUnderFaults) {
  dataplane::XcheckConfig config;
  config.seed = 20171130;
  config.rounds = 6;
  config.demand_load = 0.9;
  config.downshift_round = 3;
  config.downshift_factor = 0.0;
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "dataplane.packet%53@3:drop;dataplane.packet%59@7:duplicate;"
      "dataplane.packet%61@11:delay;dataplane.hash%13@5:garbage=7;"
      "dataplane.hash%17@2:stale");

  dataplane::XcheckOutcome outcome;
  {
    fault::ScopedPlan armed(plan);
    outcome = dataplane::run_xcheck(config);
    // Vacuity guards: both sites fired ...
    EXPECT_GT(fault::Registry::global().injected("dataplane.packet"), 0u);
    EXPECT_GT(fault::Registry::global().injected("dataplane.hash"), 0u);
  }
  // ... and the run reached every edge path it is meant to pin.
  bool dropped = false, cut = false, migrated = false;
  for (const dataplane::XcheckRound& round : outcome.rounds) {
    dropped = dropped || round.dropped_bytes > 0.0;
    cut = cut || round.rate_cuts > 0;
    migrated = migrated || round.migrations > 0;
  }
  EXPECT_TRUE(dropped) << "no round dropped a byte";
  EXPECT_TRUE(cut) << "no round cut a rate";
  EXPECT_TRUE(migrated) << "no round migrated a flowlet";
  ASSERT_EQ(outcome.rounds.size(), config.rounds);

  check_against_golden("edge-paths", outcome, true);
}

}  // namespace
}  // namespace rwc
