// Compile-level test of the umbrella header plus tests for the additional
// built-in topology.
#include <gtest/gtest.h>

#include "rwc.hpp"
#include "support/connectivity.hpp"

namespace rwc {
namespace {

using namespace util::literals;

TEST(Umbrella, HeaderPullsInTheWholeApi) {
  // One symbol from each subsystem proves the umbrella compiles and links.
  util::Rng rng(1);
  graph::Graph g = sim::europe22();
  EXPECT_TRUE(graph::is_strongly_connected(g));
  auto view = flow::make_network(g);
  EXPECT_GT(flow::max_flow_dinic(view.net, 0, 21), 0.0);
  lp::LpProblem lp(lp::Sense::kMaximize);
  (void)lp.add_variable(1.0, 1.0);
  EXPECT_TRUE(lp.solve().optimal());
  EXPECT_EQ(optical::ModulationTable::standard().max_capacity(), 200_Gbps);
  EXPECT_GT(tickets::generate_tickets({}, 1).size(), 0u);
  bvt::BvtDevice device(optical::ModulationTable::standard(), 1);
  EXPECT_EQ(device.mdio_read(bvt::Register::kDeviceId), bvt::kBvtDeviceId);
  te::McfTe engine;
  core::DynamicCapacityController controller(
      sim::fig7_square(), optical::ModulationTable::standard(), engine, {});
  EXPECT_EQ(controller.physical_topology().node_count(), 4u);
}

TEST(Europe22, ShapeAndConnectivity) {
  const graph::Graph g = sim::europe22();
  EXPECT_EQ(g.node_count(), 22u);
  EXPECT_EQ(sim::link_count(g), 36u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
  EXPECT_TRUE(g.find_node("LON").has_value());
  EXPECT_TRUE(g.find_node("ATH").has_value());
  for (graph::EdgeId e : g.edge_ids())
    EXPECT_EQ(g.edge(e).capacity, 100_Gbps);
}

TEST(Europe22, ParallelExpressLinkExists) {
  const graph::Graph g = sim::europe22();
  const auto lon = *g.find_node("LON");
  const auto par = *g.find_node("PAR");
  std::size_t lon_par = 0;
  for (graph::EdgeId e : g.out_edges(lon))
    if (g.edge(e).dst == par) ++lon_par;
  EXPECT_EQ(lon_par, 2u);  // base pair + express pair
}

TEST(Europe22, WorksEndToEndWithTheController) {
  const graph::Graph g = sim::europe22();
  te::McfTe engine;
  core::DynamicCapacityController controller(
      g, optical::ModulationTable::standard(), engine, {});
  const std::vector<util::Db> snr(g.edge_count(), 18.0_dB);
  const te::TrafficMatrix demands = {
      {*g.find_node("LIS"), *g.find_node("HEL"), 150_Gbps, 0}};
  const auto report = controller.run_round(snr, demands);
  EXPECT_NEAR(report.total_routed.value, 150.0, 1e-5);
  te::validate_assignment(controller.current_topology(),
                          report.plan.physical_assignment);
}

}  // namespace
}  // namespace rwc
