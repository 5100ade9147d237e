// The full-rung min-cost kernel (docs/SOLVERS.md §1.4):
// te::McfTe builds one residual network per solve and resets it for each
// demand with ResidualNetwork::set_capacities, and the searches and the
// flow decomposition run on per-thread scratch. None of that may change a
// bit of any result. Every case here compares against a reference that
// builds fresh state: a freshly built network, the per-demand fresh-network
// loop, a solve alone on its own thread, a decomposition that rescans
// every adjacency list from the start.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <latch>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "flow/decompose.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"
#include "graph/graph.hpp"
#include "obs/registry.hpp"
#include "support/assignment_bits.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rwc {
namespace {

using graph::EdgeId;
using graph::NodeId;
using te::same_bits;
using util::Gbps;

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

te::McfTe::Options cold_options() {
  te::McfTe::Options options;
  options.prefix_reuse = false;
  return options;
}

struct Instance {
  graph::Graph graph;
  te::TrafficMatrix demands;
};

/// A random directed TE instance of `nodes` nodes (>= 4). Edge costs are
/// base + h(dst) - h(src) with base >= 0.5 and a random height h per node,
/// so many are negative (the solver's Bellman-Ford branch) while every
/// cycle costs at least the sum of its bases: no negative cycle. The last
/// 1 + nodes / 8 nodes have no incoming edge, so demands into them are
/// unreachable. Parallel edges occur. About one demand in ten has zero
/// volume, one in twenty a volume below the flow tolerance, and
/// priorities range over 0..2.
Instance random_instance(std::uint64_t seed, int nodes) {
  util::Rng rng(seed);
  Instance instance;
  graph::Graph& g = instance.graph;
  for (int i = 0; i < nodes; ++i) g.add_node("n" + std::to_string(i));
  std::vector<double> height(static_cast<std::size_t>(nodes));
  for (double& h : height) h = rng.uniform(0.0, 8.0);
  const int reachable = nodes - (1 + nodes / 8);
  const auto add = [&](int a, int b) {
    const double cost = rng.uniform(0.5, 4.0) +
                        height[static_cast<std::size_t>(b)] -
                        height[static_cast<std::size_t>(a)];
    g.add_edge(NodeId{a}, NodeId{b}, Gbps{rng.uniform(5.0, 60.0)}, cost,
               rng.uniform(1.0, 3.0));
  };
  for (int i = 0; i < reachable; ++i) add(i, (i + 1) % reachable);
  for (int k = 0; k < 2 * nodes; ++k) {
    const auto a = static_cast<int>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<int>(rng.uniform_int(0, reachable - 1));
    if (a != b) add(a, b);
  }
  for (int k = 0; k < nodes + 4; ++k) {
    const auto src = static_cast<int>(rng.uniform_int(0, nodes - 1));
    const auto dst = static_cast<int>(rng.uniform_int(0, nodes - 1));
    if (src == dst) continue;
    const double draw = rng.uniform();
    const double volume = draw < 0.1    ? 0.0
                          : draw < 0.15 ? 1e-12
                                        : rng.uniform(1.0, 40.0);
    instance.demands.push_back(
        {NodeId{src}, NodeId{dst}, Gbps{volume},
         static_cast<int>(rng.uniform_int(0, 2))});
  }
  return instance;
}

/// The graph's edges as arcs of a network with the given capacities, in
/// edge order: arc 2*i is edge i.
flow::ResidualNetwork build_network(const graph::Graph& graph,
                                    const std::vector<double>& capacities) {
  flow::ResidualNetwork net(graph.node_count());
  for (EdgeId edge : graph.edge_ids()) {
    const graph::Edge& e = graph.edge(edge);
    net.add_arc(e.src.value, e.dst.value,
                capacities[static_cast<std::size_t>(edge.value)], e.cost);
  }
  return net;
}

std::vector<double> capacities_of(const graph::Graph& graph) {
  std::vector<double> capacities;
  for (EdgeId edge : graph.edge_ids())
    capacities.push_back(graph.edge(edge).capacity.value);
  return capacities;
}

void expect_same_network(const flow::ResidualNetwork& want,
                         const flow::ResidualNetwork& got,
                         const std::string& context) {
  ASSERT_EQ(want.node_count(), got.node_count()) << context;
  ASSERT_EQ(want.arc_count(), got.arc_count()) << context;
  for (int arc = 0; arc < static_cast<int>(want.arc_count()); ++arc) {
    EXPECT_EQ(want.target(arc), got.target(arc)) << context << ", arc " << arc;
    EXPECT_TRUE(same_bits(want.residual(arc), got.residual(arc)))
        << context << ", arc " << arc;
    EXPECT_TRUE(
        same_bits(want.initial_capacity(arc), got.initial_capacity(arc)))
        << context << ", arc " << arc;
    EXPECT_TRUE(same_bits(want.flow(arc), got.flow(arc)))
        << context << ", arc " << arc;
    EXPECT_TRUE(same_bits(want.cost(arc), got.cost(arc)))
        << context << ", arc " << arc;
  }
  for (int node = 0; node < static_cast<int>(want.node_count()); ++node)
    EXPECT_TRUE(std::ranges::equal(want.arcs_from(node), got.arcs_from(node)))
        << context << ", node " << node;
}

TEST(FlowKernel, SetCapacitiesEqualsFreshBuild) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string context = "seed " + std::to_string(seed);
    const Instance instance = random_instance(seed, 5 + static_cast<int>(seed));
    flow::ResidualNetwork reused =
        build_network(instance.graph, capacities_of(instance.graph));
    // Dirty the residuals of about half the arc pairs, forward and reverse.
    util::Rng rng(seed + 100);
    for (int arc = 0; arc < static_cast<int>(reused.arc_count()); arc += 2)
      if (rng.bernoulli(0.5))
        reused.push(arc, rng.uniform(0.0, reused.residual(arc)));

    std::vector<double> capacities;
    for (std::size_t i = 0; i < instance.graph.edge_count(); ++i) {
      const double draw = rng.uniform();
      capacities.push_back(draw < 0.1    ? 0.0
                           : draw < 0.2  ? -0.0
                                         : rng.uniform(0.0, 80.0));
    }
    reused.set_capacities(capacities);
    expect_same_network(build_network(instance.graph, capacities), reused,
                        context);
  }
}

TEST(FlowKernel, SetCapacitiesRejectsBadInput) {
  const Instance instance = random_instance(7, 9);
  std::vector<double> capacities = capacities_of(instance.graph);
  flow::ResidualNetwork net = build_network(instance.graph, capacities);

  std::vector<double> longer = capacities;
  longer.push_back(1.0);
  EXPECT_THROW(net.set_capacities(longer), util::CheckError);
  EXPECT_THROW(net.set_capacities(std::span<const double>(capacities).first(
                   capacities.size() - 1)),
               util::CheckError);
  EXPECT_THROW(net.set_capacities({}), util::CheckError);

  std::vector<double> negative = capacities;
  negative[negative.size() / 2] = -1.0;
  EXPECT_THROW(net.set_capacities(negative), util::CheckError);
  std::vector<double> not_a_number = capacities;
  not_a_number.back() = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(net.set_capacities(not_a_number), util::CheckError);

  // A rejected call leaves the network usable: a valid one restores it.
  net.set_capacities(capacities);
  expect_same_network(build_network(instance.graph, capacities), net,
                      "after rejections");
}

/// The per-demand loop te::McfTe ran before it reused one network per
/// solve: serve by priority (desc), then input order; per demand a fresh
/// network against the remaining capacities, min_cost_max_flow, then
/// decompose_flow.
te::FlowAssignment fresh_network_solve(const graph::Graph& graph,
                                       const te::TrafficMatrix& demands) {
  te::FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].priority > demands[b].priority;
                   });
  std::vector<double> remaining = capacities_of(graph);
  for (const std::size_t index : order) {
    const te::Demand& demand = demands[index];
    if (demand.volume.value <= flow::kFlowEps) continue;
    flow::ResidualNetwork net = build_network(graph, remaining);
    flow::min_cost_max_flow(net, demand.src.value, demand.dst.value,
                            demand.volume.value);
    const flow::Decomposition decomposition =
        flow::decompose_flow(net, demand.src.value, demand.dst.value);
    for (const flow::PathFlow& pf : decomposition.paths) {
      graph::Path path;
      for (int arc : pf.arcs) {
        const EdgeId edge{arc / 2};
        path.edges.push_back(edge);
        path.weight += graph.edge(edge).weight;
        remaining[static_cast<std::size_t>(edge.value)] -= pf.amount;
      }
      result.routings[index].paths.emplace_back(std::move(path),
                                                Gbps{pf.amount});
    }
  }
  te::finalize_assignment(graph, result);
  return result;
}

TEST(FlowKernel, McfTeMatchesFreshNetworkPerDemand) {
  const te::McfTe engine(cold_options());
  int negative_cost = 0;
  int zero_volume = 0;
  int unreachable = 0;
  int mixed_priority = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance instance =
        random_instance(seed, 4 + static_cast<int>(seed % 13));
    const te::FlowAssignment got =
        engine.solve(instance.graph, instance.demands);
    te::expect_bitwise_equal(
        fresh_network_solve(instance.graph, instance.demands), got,
        "seed " + std::to_string(seed));

    for (EdgeId edge : instance.graph.edge_ids())
      if (instance.graph.edge(edge).cost < 0.0) {
        ++negative_cost;
        break;
      }
    int priorities = 0;
    for (const auto& routing : got.routings) {
      const double volume = routing.demand.volume.value;
      if (volume <= flow::kFlowEps) ++zero_volume;
      if (volume > flow::kFlowEps && routing.routed.value == 0.0) ++unreachable;
      priorities |= 1 << routing.demand.priority;
    }
    if (priorities != 1 && priorities != 2 && priorities != 4)
      ++mixed_priority;
  }
  // Vacuity guards: the sweep reached each case it is meant to cover.
  EXPECT_GT(negative_cost, 30);
  EXPECT_GT(zero_volume, 10);
  EXPECT_GT(unreachable, 10);
  EXPECT_GT(mixed_priority, 30);
}

/// One solve of the interleaving test: a cold engine, or an engine with
/// prefix reuse whose second solve drops the graph's last edge, so it may
/// resume from the trace of its first.
struct Job {
  int nodes = 0;
  bool resume = false;
};

te::FlowAssignment run_job(const Job& job) {
  const Instance instance =
      random_instance(1000 + static_cast<std::uint64_t>(job.nodes), job.nodes);
  if (!job.resume)
    return te::McfTe(cold_options()).solve(instance.graph, instance.demands);
  te::McfTe::Options options;
  options.prefix_reuse = true;
  const te::McfTe engine(options);
  engine.solve(instance.graph, instance.demands);
  graph::Graph reduced;
  for (NodeId node : instance.graph.node_ids())
    reduced.add_node(instance.graph.node_name(node));
  for (EdgeId id : instance.graph.edge_ids()) {
    if (static_cast<std::size_t>(id.value) + 1 == instance.graph.edge_count())
      continue;
    const graph::Edge& e = instance.graph.edge(id);
    reduced.add_edge(e.src, e.dst, e.capacity, e.cost, e.weight);
  }
  return engine.solve(reduced, instance.demands);
}

/// `job` on a thread of its own that has run nothing else.
te::FlowAssignment run_alone(const Job& job) {
  te::FlowAssignment result;
  std::exception_ptr error;
  std::thread([&] {
    try {
      result = run_job(job);
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return result;
}

std::string job_name(const Job& job) {
  return std::to_string(job.nodes) + (job.resume ? " nodes, resume" : " nodes");
}

TEST(FlowKernel, InterleavedSizesMatchSolvesRunAlone) {
  // Large, small and medium networks in an order that grows and shrinks
  // the per-thread scratch between solves of either kind.
  const std::vector<int> sizes = {48, 5, 20, 5, 48, 12, 20, 48, 5};
  std::vector<Job> jobs;
  for (const bool resume : {false, true})
    for (const int nodes : sizes) jobs.push_back({nodes, resume});
  for (std::size_t i = 0; i < sizes.size(); ++i)
    jobs.push_back({sizes[sizes.size() - 1 - i], i % 2 == 0});

  std::vector<te::FlowAssignment> alone;
  for (const Job& job : jobs) alone.push_back(run_alone(job));

  const std::uint64_t resumes = counter_value("solver.trace_resumes");
  for (std::size_t i = 0; i < jobs.size(); ++i)
    te::expect_bitwise_equal(alone[i], run_job(jobs[i]),
                             "one thread, " + job_name(jobs[i]));
  EXPECT_GT(counter_value("solver.trace_resumes"), resumes)
      << "no job exercised prefix reuse";

  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    std::vector<te::FlowAssignment> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::vector<std::uint8_t> on_worker(jobs.size(), 0);
    std::latch done(static_cast<std::ptrdiff_t>(jobs.size()));
    for (std::size_t i = 0; i < jobs.size(); ++i)
      pool.submit([&, i] {
        on_worker[i] = pool.on_worker_thread() ? 1 : 0;
        try {
          results[i] = run_job(jobs[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
        done.count_down();
      });
    done.wait();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string context =
          "pool " + std::to_string(threads) + ", " + job_name(jobs[i]);
      EXPECT_EQ(on_worker[i], 1) << context;
      EXPECT_FALSE(errors[i]) << context << " threw";
      if (!errors[i]) te::expect_bitwise_equal(alone[i], results[i], context);
    }
  }
}

struct FlowFixture {
  flow::ResidualNetwork net;
  int source = 0;
  int sink = 0;
};

/// A network carrying a random conserved flow from node 0 to the last
/// node: simple source-sink walks plus circulations on simple cycles,
/// over randomly ordered arcs with parallel and idle ones. Amounts are
/// multiples of 1/4, so flow conservation holds exactly.
FlowFixture random_flow(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto nodes = static_cast<int>(rng.uniform_int(4, 12));
  FlowFixture fixture{flow::ResidualNetwork(static_cast<std::size_t>(nodes)),
                      0, nodes - 1};
  flow::ResidualNetwork& net = fixture.net;
  const auto arcs = static_cast<int>(rng.uniform_int(3 * nodes, 6 * nodes));
  for (int k = 0; k < arcs; ++k) {
    const auto a = static_cast<int>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<int>(rng.uniform_int(0, nodes - 1));
    if (a != b) net.add_arc(a, b, 1000.0, rng.uniform(0.0, 3.0));
  }
  const auto amount = [&] {
    return 0.25 * static_cast<double>(rng.uniform_int(1, 40));
  };
  // Follows random arcs from `start` through unvisited nodes; returns the
  // arcs up to the first arc into `stop` (a visited node, or the sink), or
  // nothing on a dead end.
  const auto walk = [&](int start, bool to_sink) {
    std::vector<int> path;
    std::vector<int> seen_at(static_cast<std::size_t>(nodes), -1);
    int node = start;
    seen_at[static_cast<std::size_t>(node)] = 0;
    while (true) {
      const std::span<const int> out = net.arcs_from(node);
      std::vector<int> forward;
      for (int arc : out)
        if (flow::ResidualNetwork::is_forward(arc)) forward.push_back(arc);
      if (forward.empty()) return std::vector<int>{};
      const int arc = forward[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(forward.size()) - 1))];
      const int next = net.target(arc);
      path.push_back(arc);
      if (to_sink && next == fixture.sink) return path;
      const int seen = seen_at[static_cast<std::size_t>(next)];
      if (seen >= 0) {
        if (to_sink) return std::vector<int>{};
        return std::vector<int>(path.begin() + seen, path.end());
      }
      seen_at[static_cast<std::size_t>(next)] =
          static_cast<int>(path.size());
      node = next;
    }
  };
  for (int k = 0; k < 6; ++k) {
    const double volume = amount();
    for (int arc : walk(fixture.source, true)) net.push(arc, volume);
  }
  for (int k = 0; k < 5; ++k) {
    const double volume = amount();
    const auto start = static_cast<int>(rng.uniform_int(0, nodes - 1));
    for (int arc : walk(start, false)) net.push(arc, volume);
  }
  return fixture;
}

/// decompose_flow as it was before per-node scan cursors: a fresh position
/// array per path, and every step rescans the node's arcs from the start.
flow::Decomposition scan_from_start(const flow::ResidualNetwork& net,
                                    int source, int sink) {
  std::vector<double> remaining(net.arc_count() / 2, 0.0);
  for (std::size_t arc = 0; arc < net.arc_count(); arc += 2) {
    const double f = net.flow(static_cast<int>(arc));
    if (f > flow::kFlowEps) remaining[arc / 2] = f;
  }
  const auto first_outgoing = [&](int node) -> int {
    for (int arc : net.arcs_from(node))
      if (flow::ResidualNetwork::is_forward(arc) &&
          remaining[static_cast<std::size_t>(arc) / 2] > flow::kFlowEps)
        return arc;
    return -1;
  };
  flow::Decomposition result;
  while (true) {
    std::vector<int> path;
    std::vector<int> position(net.node_count(), -1);
    int node = source;
    position[static_cast<std::size_t>(node)] = 0;
    bool found_sink = false;
    while (true) {
      if (node == sink) {
        found_sink = true;
        break;
      }
      const int arc = first_outgoing(node);
      if (arc < 0) break;
      const int next = net.target(arc);
      const int seen_at = position[static_cast<std::size_t>(next)];
      if (seen_at >= 0) {
        double bottleneck = remaining[static_cast<std::size_t>(arc) / 2];
        for (auto i = static_cast<std::size_t>(seen_at); i < path.size(); ++i)
          bottleneck = std::min(
              bottleneck, remaining[static_cast<std::size_t>(path[i]) / 2]);
        for (auto i = static_cast<std::size_t>(seen_at); i < path.size(); ++i)
          remaining[static_cast<std::size_t>(path[i]) / 2] -= bottleneck;
        remaining[static_cast<std::size_t>(arc) / 2] -= bottleneck;
        result.cancelled_cycle_flow += bottleneck;
        for (auto i = static_cast<std::size_t>(seen_at); i < path.size(); ++i)
          position[static_cast<std::size_t>(net.target(path[i]))] = -1;
        path.resize(static_cast<std::size_t>(seen_at));
        node = next;
        position[static_cast<std::size_t>(node)] =
            static_cast<int>(path.size());
        continue;
      }
      path.push_back(arc);
      node = next;
      position[static_cast<std::size_t>(node)] = static_cast<int>(path.size());
    }
    if (!found_sink) break;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int arc : path)
      bottleneck =
          std::min(bottleneck, remaining[static_cast<std::size_t>(arc) / 2]);
    if (path.empty() || bottleneck <= flow::kFlowEps) break;
    for (int arc : path)
      remaining[static_cast<std::size_t>(arc) / 2] -= bottleneck;
    result.paths.push_back(flow::PathFlow{std::move(path), bottleneck});
  }
  return result;
}

TEST(FlowKernel, DecompositionMatchesScanFromStart) {
  int with_cycles = 0;
  int multi_path = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string context = "seed " + std::to_string(seed);
    const FlowFixture fixture = random_flow(seed);
    const flow::Decomposition want =
        scan_from_start(fixture.net, fixture.source, fixture.sink);
    const flow::Decomposition got =
        flow::decompose_flow(fixture.net, fixture.source, fixture.sink);
    EXPECT_TRUE(same_bits(want.cancelled_cycle_flow, got.cancelled_cycle_flow))
        << context;
    ASSERT_EQ(want.paths.size(), got.paths.size()) << context;
    for (std::size_t p = 0; p < want.paths.size(); ++p) {
      EXPECT_EQ(want.paths[p].arcs, got.paths[p].arcs)
          << context << ", path " << p;
      EXPECT_TRUE(same_bits(want.paths[p].amount, got.paths[p].amount))
          << context << ", path " << p;
    }
    if (want.cancelled_cycle_flow > 0.0) ++with_cycles;
    if (want.paths.size() > 1) ++multi_path;
  }
  EXPECT_GT(with_cycles, 10);
  EXPECT_GT(multi_path, 20);
}

}  // namespace
}  // namespace rwc
