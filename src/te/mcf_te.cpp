#include "te/mcf_te.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>

#include "fault/registry.hpp"
#include "flow/decompose.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::te {

using util::Gbps;

namespace {

/// first_touch of an edge no search improved a label through.
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Equal in every field a solve reads, compared bit for bit.
bool same_edge(const graph::Edge& a, const graph::Edge& b) {
  return a.src == b.src && a.dst == b.dst &&
         same_bits(a.capacity.value, b.capacity.value) &&
         same_bits(a.cost, b.cost) && same_bits(a.weight, b.weight);
}

}  // namespace

/// What prefix reuse needs from one finished solve.
struct McfTe::SolveTrace {
  std::size_t node_count = 0;
  std::vector<graph::Edge> edges;
  TrafficMatrix demands;
  /// The solve's routing, by input demand index.
  std::vector<FlowAssignment::DemandRouting> routings;
  /// Per edge: the first serve-order position whose search improved a
  /// label through it, or kNever.
  std::vector<std::size_t> first_touch;
};

/// How a solve resumes from a trace: it copies the routing of the first
/// `positions` demands in serve order, mapping traced edge t to graph edge
/// edge_map[t] (-1 where the graph lacks it).
struct McfTe::Resume {
  std::size_t positions = 0;
  std::vector<std::int32_t> edge_map;
};

std::shared_ptr<const McfTe::SolveTrace> McfTe::find_resume(
    const graph::Graph& graph, const TrafficMatrix& demands,
    Resume& resume) const {
  std::vector<std::shared_ptr<const SolveTrace>> stored;
  {
    std::lock_guard lock(trace_mutex_);
    stored = traces_;
  }
  // The resume a trace allows; positions == 0 when the solve does not
  // qualify. It qualifies when the demands are equal and the graph is the
  // traced graph with at least one edge removed: same node count, its
  // edges an order-preserving subsequence of the traced ones. The prefix
  // ends at the first position that improved a label through a removed
  // edge, and at 0 when a removed edge has negative cost (its absence
  // could flip the solver's negative-cost potential set-up).
  const auto resume_from = [&](const SolveTrace& trace) {
    if (trace.node_count != graph.node_count() ||
        graph.edge_count() >= trace.edges.size() || trace.demands != demands)
      return Resume{};
    std::size_t positions = demands.size();
    const auto remove = [&](std::size_t t) {
      positions = trace.edges[t].cost < 0.0
                      ? 0
                      : std::min(positions, trace.first_touch[t]);
    };
    std::vector<std::int32_t> edge_map(trace.edges.size(), -1);
    std::size_t t = 0;
    for (std::size_t i = 0; i < graph.edge_count(); ++i) {
      const graph::Edge& edge =
          graph.edge(graph::EdgeId{static_cast<std::int32_t>(i)});
      while (t < trace.edges.size() && !same_edge(trace.edges[t], edge))
        remove(t++);
      if (t == trace.edges.size()) return Resume{};
      edge_map[t++] = static_cast<std::int32_t>(i);
    }
    while (t < trace.edges.size()) remove(t++);
    if (positions == 0) return Resume{};
    return Resume{positions, std::move(edge_map)};
  };

  std::shared_ptr<const SolveTrace> best;
  for (const auto& trace : stored) {
    Resume candidate = resume_from(*trace);
    if (candidate.positions > resume.positions) {
      resume = std::move(candidate);
      best = trace;
    }
  }
  if (best != nullptr) {
    std::lock_guard lock(trace_mutex_);
    const auto it = std::find(traces_.begin(), traces_.end(), best);
    if (it != traces_.end()) std::rotate(traces_.begin(), it, it + 1);
  }
  return best;
}

void McfTe::keep_trace(std::shared_ptr<const SolveTrace> trace) const {
  std::shared_ptr<const SolveTrace> evicted;  // freed outside the lock
  std::lock_guard lock(trace_mutex_);
  traces_.insert(traces_.begin(), std::move(trace));
  if (traces_.size() > kTraceSlots) {
    evicted = std::move(traces_.back());
    traces_.pop_back();
  }
}

FlowAssignment McfTe::solve(const graph::Graph& graph,
                            const TrafficMatrix& demands) const {
  static auto& solves = obs::Registry::global().counter("te.mcf.solves");
  static auto& seconds =
      obs::Registry::global().histogram("te.mcf.solve_seconds");
  static auto& trace_resumes =
      obs::Registry::global().counter("solver.trace_resumes");
  static auto& trace_reused_demands =
      obs::Registry::global().counter("solver.trace_reused_demands");
  solves.add();
  obs::ScopedTimer timer(seconds);

  FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];

  // Serve demands by priority (desc), then input order.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].priority > demands[b].priority;
                   });

  const auto edge_at = [&](std::size_t i) -> const graph::Edge& {
    return graph.edge(graph::EdgeId{static_cast<std::int32_t>(i)});
  };
  std::vector<double> remaining(graph.edge_count());
  for (std::size_t i = 0; i < graph.edge_count(); ++i)
    remaining[i] = edge_at(i).capacity.value;

  // Prefix reuse stays off under an armed fault plan, so every fault test
  // runs the plain solver.
  const bool tracing =
      options_.prefix_reuse && !fault::Registry::global().armed();
  std::shared_ptr<SolveTrace> trace;
  std::size_t reused = 0;
  if (tracing) {
    trace = std::make_shared<SolveTrace>();
    trace->first_touch.assign(graph.edge_count(), kNever);
    Resume resume;
    if (const auto source = find_resume(graph, demands, resume)) {
      // Copy the untouched prefix: paths in decomposition order, their
      // amounts taken off `remaining` in the cold loop's order, weights
      // re-summed from this graph. Every search in it saw the same labels
      // as this graph's would, so its first touches carry over.
      reused = resume.positions;
      for (std::size_t position = 0; position < reused; ++position) {
        const std::size_t index = order[position];
        auto& routing = result.routings[index];
        for (const auto& [traced, amount] : source->routings[index].paths) {
          graph::Path path;
          for (const graph::EdgeId traced_edge : traced.edges) {
            const std::int32_t mapped =
                resume.edge_map[static_cast<std::size_t>(traced_edge.value)];
            RWC_CHECK_MSG(mapped >= 0, "reused path crosses a removed edge");
            const graph::EdgeId edge{mapped};
            path.edges.push_back(edge);
            path.weight += graph.edge(edge).weight;
            remaining[static_cast<std::size_t>(mapped)] -= amount.value;
          }
          routing.paths.emplace_back(std::move(path), amount);
        }
      }
      for (std::size_t t = 0; t < resume.edge_map.size(); ++t)
        if (resume.edge_map[t] >= 0 && source->first_touch[t] < reused)
          trace->first_touch[static_cast<std::size_t>(resume.edge_map[t])] =
              source->first_touch[t];
      trace_resumes.add();
      trace_reused_demands.add(reused);
    }
  }

  std::vector<std::uint8_t> improved(tracing ? graph.edge_count() : 0);
  std::vector<std::uint8_t>* const touched = tracing ? &improved : nullptr;
  // One network per solve, reset to the remaining capacities before each
  // demand. Arc 2*i is edge i.
  flow::ResidualNetwork net(graph.node_count());
  for (std::size_t i = 0; i < graph.edge_count(); ++i) {
    const graph::Edge& e = edge_at(i);
    net.add_arc(e.src.value, e.dst.value, 0.0, e.cost);
  }
  for (std::size_t position = reused; position < order.size(); ++position) {
    const std::size_t index = order[position];
    const Demand& demand = demands[index];
    RWC_EXPECTS(demand.volume.value >= 0.0);
    if (demand.volume.value <= flow::kFlowEps) continue;
    RWC_EXPECTS(demand.src != demand.dst);

    net.set_capacities(remaining);
    min_cost_max_flow(net, demand.src.value, demand.dst.value,
                      demand.volume.value, flow::kDefaultMaxAugmentations,
                      touched);
    if (tracing) {
      for (std::size_t i = 0; i < improved.size(); ++i) {
        if (improved[i] != 0 && trace->first_touch[i] == kNever)
          trace->first_touch[i] = position;
      }
      std::fill(improved.begin(), improved.end(), std::uint8_t{0});
    }

    const auto decomposition =
        flow::decompose_flow(net, demand.src.value, demand.dst.value);
    auto& routing = result.routings[index];
    for (const flow::PathFlow& pf : decomposition.paths) {
      graph::Path path;
      for (int arc : pf.arcs) {
        const graph::EdgeId edge{arc / 2};
        path.edges.push_back(edge);
        path.weight += graph.edge(edge).weight;
        remaining[static_cast<std::size_t>(edge.value)] -= pf.amount;
      }
      routing.paths.emplace_back(std::move(path), Gbps{pf.amount});
    }
  }
  finalize_assignment(graph, result);

  if (tracing) {
    trace->node_count = graph.node_count();
    trace->edges.reserve(graph.edge_count());
    for (std::size_t i = 0; i < graph.edge_count(); ++i)
      trace->edges.push_back(edge_at(i));
    trace->demands = demands;
    trace->routings = result.routings;
    keep_trace(std::move(trace));
  }
  return result;
}

}  // namespace rwc::te
