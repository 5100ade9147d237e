#include "core/augment.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace rwc::core {

using graph::EdgeId;
using graph::NodeId;
using util::Gbps;

AugmentedTopology augment_topology(
    const graph::Graph& base, std::span<const VariableLink> variable_links,
    const PenaltyPolicy& penalty, std::span<const double> current_traffic_gbps,
    const AugmentOptions& options) {
  RWC_EXPECTS(current_traffic_gbps.empty() ||
              current_traffic_gbps.size() == base.edge_count());
  {
    std::set<std::int32_t> seen;
    for (const VariableLink& link : variable_links) {
      RWC_EXPECTS(link.edge.valid() &&
                  static_cast<std::size_t>(link.edge.value) <
                      base.edge_count());
      RWC_EXPECTS(link.feasible_capacity > base.edge(link.edge).capacity);
      RWC_EXPECTS(seen.insert(link.edge.value).second);
    }
  }

  auto traffic_on = [&](EdgeId edge) {
    return current_traffic_gbps.empty()
               ? 0.0
               : current_traffic_gbps[static_cast<std::size_t>(edge.value)];
  };
  auto edge_weight = [&](const graph::Edge& e) {
    return options.unit_weights ? 1.0 : e.weight;
  };

  AugmentedTopology result;
  result.base_node_count = base.node_count();
  result.base_edge_count = base.edge_count();
  result.fake_edge_of.assign(base.edge_count(), EdgeId{});

  // Variable-link lookup by base edge.
  std::vector<const VariableLink*> variable_of(base.edge_count(), nullptr);
  for (const VariableLink& link : variable_links)
    variable_of[static_cast<std::size_t>(link.edge.value)] = &link;

  // Copy base nodes (ids preserved).
  for (NodeId node : base.node_ids()) result.graph.add_node(base.node_name(node));

  auto push_info = [&](AugmentedEdgeKind kind, EdgeId base_edge) {
    result.edge_info.push_back(AugmentedEdgeInfo{kind, base_edge});
  };

  // Pass 1: base edges, id-for-id. Variable links handled per mode.
  for (EdgeId edge : base.edge_ids()) {
    const graph::Edge& e = base.edge(edge);
    const VariableLink* variable =
        variable_of[static_cast<std::size_t>(edge.value)];
    if (variable != nullptr && options.unsplittable_gadget) {
      // Gadget: the original edge slot becomes the zero-cost entry at the
      // configured rate (A -> A'); the rest of the gadget is appended later
      // so base edge ids keep their positions.
      // Placeholder: record as entry-real; endpoints fixed in pass 2 when
      // the gadget nodes exist. To keep ids aligned we must add the edge
      // now, so gadget nodes are created on demand here.
      const NodeId entry = result.graph.add_node(
          base.node_name(e.src) + "'" + std::to_string(edge.value));
      // Entry edge at configured rate, penalty-free.
      result.graph.add_edge(e.src, entry, e.capacity,
                            penalty.real_penalty(base, edge), 0.0);
      push_info(AugmentedEdgeKind::kGadgetEntryReal, edge);
      continue;
    }
    result.graph.add_edge(e.src, e.dst, e.capacity,
                          penalty.real_penalty(base, edge), edge_weight(e));
    push_info(AugmentedEdgeKind::kReal, edge);
  }

  // Pass 2: fake edges / gadget completions appended after all base slots.
  for (EdgeId edge : base.edge_ids()) {
    const VariableLink* variable =
        variable_of[static_cast<std::size_t>(edge.value)];
    if (variable == nullptr) continue;
    const graph::Edge& e = base.edge(edge);
    const Gbps headroom = variable->feasible_capacity - e.capacity;
    const double cost =
        penalty.upgrade_penalty(base, edge, headroom, traffic_on(edge));

    if (!options.unsplittable_gadget) {
      const EdgeId fake = result.graph.add_edge(e.src, e.dst, headroom, cost,
                                                edge_weight(e));
      push_info(AugmentedEdgeKind::kFake, edge);
      result.fake_edge_of[static_cast<std::size_t>(edge.value)] = fake;
      continue;
    }

    // Gadget (Fig. 8): A -> A' (two parallel entries), A' -> B' (body at the
    // full upgraded rate), B' -> B (exit). The entry-real edge was created in
    // pass 1; find its A' endpoint.
    const EdgeId entry_real{edge.value};  // same slot as the base edge
    const NodeId entry_node = result.graph.edge(entry_real).dst;
    const NodeId exit_node = result.graph.add_node(
        base.node_name(e.dst) + "'" + std::to_string(edge.value));

    const EdgeId entry_fake = result.graph.add_edge(
        e.src, entry_node, variable->feasible_capacity, cost, 0.0);
    push_info(AugmentedEdgeKind::kGadgetEntryFake, edge);
    result.fake_edge_of[static_cast<std::size_t>(edge.value)] = entry_fake;

    result.graph.add_edge(entry_node, exit_node, variable->feasible_capacity,
                          0.0, edge_weight(e));
    push_info(AugmentedEdgeKind::kGadgetBody, edge);

    result.graph.add_edge(exit_node, e.dst, variable->feasible_capacity, 0.0,
                          0.0);
    push_info(AugmentedEdgeKind::kGadgetExit, edge);
  }

  RWC_ENSURES(result.edge_info.size() == result.graph.edge_count());
  return result;
}

graph::Graph carve_out_protected(
    const graph::Graph& base, std::span<const ProtectedFlow> protected_flows,
    std::vector<VariableLink>& variable_links) {
  graph::Graph reduced;
  for (NodeId node : base.node_ids()) reduced.add_node(base.node_name(node));

  std::vector<double> reserved(base.edge_count(), 0.0);
  std::vector<bool> frozen(base.edge_count(), false);
  for (const ProtectedFlow& flow : protected_flows) {
    RWC_EXPECTS(flow.volume.value >= 0.0);
    for (EdgeId edge : flow.path.edges) {
      reserved[static_cast<std::size_t>(edge.value)] += flow.volume.value;
      frozen[static_cast<std::size_t>(edge.value)] = true;
    }
  }

  for (EdgeId edge : base.edge_ids()) {
    const graph::Edge& e = base.edge(edge);
    const double capacity =
        e.capacity.value - reserved[static_cast<std::size_t>(edge.value)];
    RWC_CHECK_MSG(capacity >= -1e-9,
                  "protected flows exceed a link's capacity");
    reduced.add_edge(e.src, e.dst, Gbps{std::max(0.0, capacity)}, e.cost,
                     e.weight);
  }

  std::erase_if(variable_links, [&](const VariableLink& link) {
    return frozen[static_cast<std::size_t>(link.edge.value)];
  });
  return reduced;
}

}  // namespace rwc::core
