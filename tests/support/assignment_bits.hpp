// Bit-for-bit comparison of two TE assignments, for the suites that prove a
// fast path equal to a cold or reference solve (tests/test_te_prefix_reuse.cpp,
// tests/test_flow_kernel.cpp).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "te/demand.hpp"

namespace rwc::te {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every routing, path, amount, edge load and total equal bit for bit.
inline void expect_bitwise_equal(const FlowAssignment& expected,
                                 const FlowAssignment& got,
                                 const std::string& context) {
  ASSERT_EQ(expected.routings.size(), got.routings.size()) << context;
  for (std::size_t d = 0; d < expected.routings.size(); ++d) {
    const auto& want = expected.routings[d];
    const auto& have = got.routings[d];
    EXPECT_EQ(want.demand, have.demand) << context << ", demand " << d;
    EXPECT_TRUE(same_bits(want.routed.value, have.routed.value))
        << context << ", demand " << d;
    ASSERT_EQ(want.paths.size(), have.paths.size())
        << context << ", demand " << d;
    for (std::size_t p = 0; p < want.paths.size(); ++p) {
      EXPECT_EQ(want.paths[p].first.edges, have.paths[p].first.edges)
          << context << ", demand " << d << ", path " << p;
      EXPECT_TRUE(same_bits(want.paths[p].first.weight,
                            have.paths[p].first.weight))
          << context << ", demand " << d << ", path " << p;
      EXPECT_TRUE(same_bits(want.paths[p].second.value,
                            have.paths[p].second.value))
          << context << ", demand " << d << ", path " << p;
    }
  }
  ASSERT_EQ(expected.edge_load_gbps.size(), got.edge_load_gbps.size())
      << context;
  for (std::size_t e = 0; e < expected.edge_load_gbps.size(); ++e)
    EXPECT_TRUE(same_bits(expected.edge_load_gbps[e], got.edge_load_gbps[e]))
        << context << ", edge " << e;
  EXPECT_TRUE(same_bits(expected.total_routed.value, got.total_routed.value))
      << context;
  EXPECT_TRUE(same_bits(expected.total_cost, got.total_cost)) << context;
}

}  // namespace rwc::te
