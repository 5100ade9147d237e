// Tests for built-in topologies and workload generation.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/connectivity.hpp"
#include "util/rng.hpp"

namespace rwc::sim {
namespace {

using util::Gbps;
using namespace util::literals;

TEST(Topology, Fig7SquareShape) {
  const graph::Graph g = fig7_square();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 8u);  // 4 bidirectional links
  EXPECT_EQ(link_count(g), 4u);
  EXPECT_TRUE(g.find_edge(*g.find_node("A"), *g.find_node("B")).has_value());
  EXPECT_TRUE(g.find_edge(*g.find_node("C"), *g.find_node("D")).has_value());
  EXPECT_FALSE(g.find_edge(*g.find_node("A"), *g.find_node("D")).has_value());
}

TEST(Topology, AbileneShape) {
  const graph::Graph g = abilene();
  EXPECT_EQ(g.node_count(), 11u);
  EXPECT_EQ(link_count(g), 14u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
  for (graph::EdgeId e : g.edge_ids())
    EXPECT_EQ(g.edge(e).capacity, 100_Gbps);
}

TEST(Topology, UsWan24Shape) {
  const graph::Graph g = us_wan24();
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_GE(link_count(g), 38u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(Topology, CustomCapacityPropagates) {
  const graph::Graph g = abilene(150_Gbps);
  for (graph::EdgeId e : g.edge_ids())
    EXPECT_EQ(g.edge(e).capacity, 150_Gbps);
}

class WaxmanSweep : public ::testing::TestWithParam<int> {};

TEST_P(WaxmanSweep, ConnectedAndBidirectional) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const graph::Graph g = waxman(GetParam() * 5 + 5, rng);
  EXPECT_TRUE(graph::is_strongly_connected(g));
  EXPECT_EQ(g.edge_count() % 2, 0u);
  // Every edge has an opposite twin.
  for (graph::EdgeId e : g.edge_ids())
    EXPECT_TRUE(g.find_edge(g.edge(e).dst, g.edge(e).src).has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, WaxmanSweep, ::testing::Range(1, 8));

TEST(Workload, GravitySumsToTotal) {
  util::Rng rng(5);
  const graph::Graph g = abilene();
  GravityParams params;
  params.total = 1234_Gbps;
  const auto demands = gravity_matrix(g, params, rng);
  EXPECT_EQ(demands.size(), 11u * 10u);
  double sum = 0.0;
  for (const auto& d : demands) {
    EXPECT_NE(d.src, d.dst);
    EXPECT_GE(d.volume.value, 0.0);
    sum += d.volume.value;
  }
  EXPECT_NEAR(sum, 1234.0, 1e-6);
}

TEST(Workload, SparsityDropsPairs) {
  util::Rng rng(6);
  const graph::Graph g = abilene();
  GravityParams params;
  params.sparsity = 0.5;
  const auto demands = gravity_matrix(g, params, rng);
  EXPECT_LT(demands.size(), 11u * 10u);
  EXPECT_GT(demands.size(), 10u);
  double sum = 0.0;
  for (const auto& d : demands) sum += d.volume.value;
  EXPECT_NEAR(sum, params.total.value, 1e-6);
}

TEST(Workload, UniformMassesGiveEqualDemands) {
  util::Rng rng(7);
  const graph::Graph g = fig7_square();
  GravityParams params;
  params.total = 120_Gbps;
  params.mass_log_sigma = 0.0;
  const auto demands = gravity_matrix(g, params, rng);
  for (const auto& d : demands)
    EXPECT_NEAR(d.volume.value, 10.0, 1e-9);  // 12 pairs, equal split
}

TEST(Workload, ScaleMatrix) {
  util::Rng rng(8);
  const graph::Graph g = fig7_square();
  GravityParams params;
  const auto base = gravity_matrix(g, params, rng);
  const auto doubled = scale_matrix(base, 2.0);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_NEAR(doubled[i].volume.value, 2.0 * base[i].volume.value, 1e-12);
}

TEST(Workload, DiurnalBoundsAndPeak) {
  for (double t = 0.0; t < 2.0 * util::kDay; t += 600.0) {
    const double f = diurnal_factor(t, 0.4, 20.0);
    EXPECT_GE(f, 0.4 - 1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
  EXPECT_NEAR(diurnal_factor(20.0 * util::kHour, 0.4, 20.0), 1.0, 1e-9);
  EXPECT_NEAR(diurnal_factor(8.0 * util::kHour, 0.4, 20.0), 0.4, 1e-9);
  // 24 h periodicity.
  EXPECT_NEAR(diurnal_factor(5.0 * util::kHour),
              diurnal_factor(29.0 * util::kHour), 1e-9);
}

TEST(Workload, GravityPriorityPropagates) {
  util::Rng rng(9);
  const graph::Graph g = fig7_square();
  GravityParams params;
  params.priority = 3;
  for (const auto& d : gravity_matrix(g, params, rng))
    EXPECT_EQ(d.priority, 3);
}

}  // namespace
}  // namespace rwc::sim
