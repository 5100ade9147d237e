// Tests for the graph container, path helpers, Dijkstra and connectivity.
#include <gtest/gtest.h>

#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "sim/topology.hpp"
#include "support/connectivity.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rwc::graph {
namespace {

using util::Gbps;
using namespace util::literals;

Graph diamond() {
  // a -> b -> d and a -> c -> d, plus a slow direct a -> d.
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  g.add_edge(a, b, 10_Gbps, 0.0, 1.0);
  g.add_edge(b, d, 10_Gbps, 0.0, 1.0);
  g.add_edge(a, c, 10_Gbps, 0.0, 2.0);
  g.add_edge(c, d, 10_Gbps, 0.0, 2.0);
  g.add_edge(a, d, 10_Gbps, 0.0, 5.0);
  return g;
}

TEST(Graph, NodesAndEdgesBasics) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node();
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.node_name(a), "a");
  EXPECT_EQ(g.node_name(b), "n1");
  const EdgeId e = g.add_edge(a, b, 5_Gbps, 2.0, 3.0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  EXPECT_EQ(g.edge(e).capacity, 5_Gbps);
  EXPECT_EQ(g.edge(e).cost, 2.0);
  EXPECT_EQ(g.edge(e).weight, 3.0);
  EXPECT_EQ(g.out_edges(a).size(), 1u);
  EXPECT_EQ(g.in_edges(b).size(), 1u);
  EXPECT_TRUE(g.out_edges(b).empty());
}

TEST(Graph, FindNodeAndEdge) {
  Graph g = diamond();
  ASSERT_TRUE(g.find_node("c").has_value());
  EXPECT_FALSE(g.find_node("zz").has_value());
  const NodeId a = *g.find_node("a");
  const NodeId b = *g.find_node("b");
  ASSERT_TRUE(g.find_edge(a, b).has_value());
  EXPECT_FALSE(g.find_edge(b, a).has_value());
}

TEST(Graph, BidirectionalAddsTwoOpposedEdges) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const auto [ab, ba] = g.add_bidirectional(a, b, 7_Gbps);
  EXPECT_EQ(g.edge(ab).src, a);
  EXPECT_EQ(g.edge(ba).src, b);
  EXPECT_EQ(g.edge(ab).capacity, g.edge(ba).capacity);
  EXPECT_EQ(g.total_capacity(), 14_Gbps);
}

TEST(Graph, InvalidAccessThrows) {
  Graph g;
  const NodeId a = g.add_node("a");
  EXPECT_THROW(g.edge(EdgeId{0}), util::CheckError);
  EXPECT_THROW(g.add_edge(a, NodeId{5}, 1_Gbps), util::CheckError);
  EXPECT_THROW(g.add_edge(a, a, Gbps{-1.0}), util::CheckError);
}

TEST(Path, NodesStringAndBottleneck) {
  Graph g = diamond();
  const Path p = shortest_path(g, *g.find_node("a"), *g.find_node("d"));
  EXPECT_EQ(p.weight, 2.0);
  EXPECT_EQ(p.edges.size(), 2u);
  EXPECT_EQ(path_to_string(g, p), "a -> b -> d");
  const auto nodes = path_nodes(g, p);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_EQ(path_bottleneck(g, p), 10_Gbps);
}

TEST(Dijkstra, PicksMinimumWeightPath) {
  Graph g = diamond();
  const NodeId a = *g.find_node("a");
  const auto tree = dijkstra_by_weight(g, a);
  EXPECT_EQ(tree.distance[static_cast<std::size_t>(g.find_node("d")->value)],
            2.0);
  EXPECT_EQ(tree.distance[static_cast<std::size_t>(g.find_node("c")->value)],
            2.0);
}

TEST(Dijkstra, UnreachableNodesReportInfinity) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_node("island");
  g.add_edge(a, b, 1_Gbps);
  const auto tree = dijkstra_by_weight(g, a);
  EXPECT_FALSE(tree.reached(*g.find_node("island")));
  const Path p = extract_path(g, tree, *g.find_node("island"));
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.weight, ShortestPathTree::kUnreachable);
}

TEST(Dijkstra, FilterExcludesEdges) {
  Graph g = diamond();
  const NodeId a = *g.find_node("a");
  const NodeId d = *g.find_node("d");
  const EdgeId ab = *g.find_edge(a, *g.find_node("b"));
  auto weight = [&](EdgeId id) { return g.edge(id).weight; };
  auto usable = [&](EdgeId id) { return id != ab; };
  const Path p = extract_path(g, dijkstra(g, a, weight, usable), d);
  EXPECT_EQ(path_to_string(g, p), "a -> c -> d");
  EXPECT_EQ(p.weight, 4.0);
}

TEST(Dijkstra, RejectsNegativeWeights) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 1_Gbps, 0.0, -1.0);
  EXPECT_THROW(dijkstra_by_weight(g, a), util::CheckError);
}

// Property: Dijkstra distances match Bellman-Ford-style relaxation on random
// graphs.
class DijkstraRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraRandomSweep, MatchesBruteForceRelaxation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Graph g = sim::waxman(12, rng);
  for (EdgeId e : g.edge_ids()) g.edge(e).weight = rng.uniform(0.1, 5.0);

  const NodeId source{0};
  const auto tree = dijkstra_by_weight(g, source);

  // Bellman-Ford reference.
  std::vector<double> dist(g.node_count(), ShortestPathTree::kUnreachable);
  dist[0] = 0.0;
  for (std::size_t round = 0; round < g.node_count(); ++round)
    for (EdgeId e : g.edge_ids()) {
      const auto s = static_cast<std::size_t>(g.edge(e).src.value);
      const auto d = static_cast<std::size_t>(g.edge(e).dst.value);
      if (dist[s] + g.edge(e).weight < dist[d])
        dist[d] = dist[s] + g.edge(e).weight;
    }
  for (std::size_t n = 0; n < g.node_count(); ++n)
    EXPECT_NEAR(tree.distance[n], dist[n], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomSweep,
                         ::testing::Range(1, 11));

TEST(Connectivity, ReachabilityAndStrongConnectivity) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 1_Gbps);
  EXPECT_FALSE(is_strongly_connected(g));
  g.add_edge(b, a, 1_Gbps);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Connectivity, BuiltInTopologiesAreStronglyConnected) {
  EXPECT_TRUE(is_strongly_connected(sim::fig7_square()));
  EXPECT_TRUE(is_strongly_connected(sim::abilene()));
  EXPECT_TRUE(is_strongly_connected(sim::us_wan24()));
}

TEST(Dot, ExportContainsNodesAndLabels) {
  Graph g = sim::fig7_square();
  const std::string dot = to_dot(g, "square");
  EXPECT_NE(dot.find("digraph square"), std::string::npos);
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
  EXPECT_NE(dot.find("100G"), std::string::npos);
}

}  // namespace
}  // namespace rwc::graph
