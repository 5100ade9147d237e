// Algorithm 1: the graph augmentation that lets unmodified TE algorithms
// drive dynamic link capacities.
//
// For every physical link whose SNR supports more than its configured
// capacity, a parallel "fake" link is added carrying the headroom at a
// penalty cost. A min-cost TE run on the augmented topology then implicitly
// chooses which links to upgrade (fake links carrying flow) and how to route
// (Theorem 1).
//
// Two construction modes:
//   plain   — one fake edge per upgradable link (Fig. 7b);
//   gadget  — the Fig. 8 node-splitting construction, which additionally
//             permits an unsplittable flow of the full upgraded rate to
//             traverse the link on a single parallel edge.
#pragma once

#include <span>
#include <vector>

#include "core/penalty.hpp"
#include "graph/graph.hpp"

namespace rwc::core {

/// A physical link whose SNR currently supports a higher ladder rate than
/// its configured capacity.
struct VariableLink {
  graph::EdgeId edge;                 // edge id in the base topology
  util::Gbps feasible_capacity{0.0};  // rate the SNR supports (> configured)

  friend bool operator==(const VariableLink&, const VariableLink&) = default;
};

/// Role of an edge in the augmented topology.
enum class AugmentedEdgeKind {
  kReal,             // unchanged physical edge
  kFake,             // headroom edge (plain mode)
  kGadgetEntryReal,  // gadget: entry at the configured rate, zero cost
  kGadgetEntryFake,  // gadget: entry at the full upgraded rate, penalized
  kGadgetBody,       // gadget: the link body (carries the merged flow)
  kGadgetExit,       // gadget: exit edge, zero cost
};

struct AugmentedEdgeInfo {
  AugmentedEdgeKind kind = AugmentedEdgeKind::kReal;
  graph::EdgeId base_edge;  // the physical link this edge belongs to
};

struct AugmentOptions {
  /// Fig. 7c: give every augmented edge unit weight so shortest-path TE
  /// favors few hops regardless of upgrades.
  bool unit_weights = false;
  /// Fig. 8: use the node-splitting gadget for variable links.
  bool unsplittable_gadget = false;

  friend bool operator==(const AugmentOptions&, const AugmentOptions&) =
      default;
};

/// The augmented view G' plus the bookkeeping needed to translate TE output
/// back onto the physical topology.
struct AugmentedTopology {
  graph::Graph graph;
  std::vector<AugmentedEdgeInfo> edge_info;  // per augmented edge id
  std::size_t base_node_count = 0;
  std::size_t base_edge_count = 0;
  /// Plain mode: the fake edge of each base edge (invalid when none).
  std::vector<graph::EdgeId> fake_edge_of;

  const AugmentedEdgeInfo& info(graph::EdgeId augmented_edge) const {
    return edge_info[static_cast<std::size_t>(augmented_edge.value)];
  }
};

/// Algorithm 1 (with the gadget extension). `current_traffic_gbps` is the
/// per-base-edge traffic used by penalty policies (empty = all zero).
/// Variable links must reference distinct base edges with feasible capacity
/// strictly above the configured one.
AugmentedTopology augment_topology(
    const graph::Graph& base, std::span<const VariableLink> variable_links,
    const PenaltyPolicy& penalty,
    std::span<const double> current_traffic_gbps = {},
    const AugmentOptions& options = {});

/// Section 4.2 (i): a flow that must not be disturbed at all. Its links may
/// not change capacity and the flow (with the capacity it uses) is hidden
/// from the TE optimization.
struct ProtectedFlow {
  graph::Path path;          // over base edges
  util::Gbps volume{0.0};
};

/// Removes protected flows from the picture: subtracts their volume from the
/// capacities of `base` (returning the reduced copy) and drops their links
/// from `variable_links`.
graph::Graph carve_out_protected(
    const graph::Graph& base, std::span<const ProtectedFlow> protected_flows,
    std::vector<VariableLink>& variable_links);

}  // namespace rwc::core
