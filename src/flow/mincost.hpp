// Min-cost flow: successive shortest paths with Johnson potentials.
// This is the solver Theorem 1's reduction targets — min-cost max-flow on
// the augmented topology G'.
//
// Warm starts: a solve can record its augmenting-path sequence into a
// MinCostWarmStart; a later solve on a bit-identical initial network (same
// arcs, capacities, costs, terminals — verified by fingerprint) replays the
// recording instead of re-running Bellman-Ford and one Dijkstra per path.
// Replay is EXACT, not approximate: the augmenting-path sequence of the SSP
// algorithm depends only on the initial network, never on `flow_limit`
// (the limit only truncates the final augmentation and stops the loop), so
// the replayed result is bit-identical to the cold solve — including for a
// different flow_limit, where replay truncates or resumes live SSP from the
// recorded potentials. On any fingerprint mismatch the solver falls back to
// a cold solve and re-records. See docs/CONCURRENCY.md ("Warm starts").
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "flow/network.hpp"

namespace rwc::flow {

/// Why a min-cost solve stopped.
enum class SolveStatus {
  /// Sink unreachable (or path saturated): the flow is a true min-cost
  /// max flow below the requested limit.
  kOptimal,
  /// The requested flow_limit was routed in full.
  kFlowLimitReached,
  /// The augmenting-path budget ran out first: the result is a valid
  /// partial flow (every routed unit is min-cost), but more flow may have
  /// been routable. Callers degrade gracefully by using the partial flow.
  kBudgetExhausted,
};

/// Default augmenting-path budget: far beyond any real workload (the WAN
/// rounds of bench/ run thousands of paths), but bounded, so adversarial
/// inputs with pathological bottleneck patterns cannot spin the SSP loop
/// unboundedly.
inline constexpr std::uint64_t kDefaultMaxAugmentations = 1ull << 22;

struct MinCostFlowResult {
  double flow = 0.0;
  double cost = 0.0;
  SolveStatus status = SolveStatus::kOptimal;
  /// Augmenting paths pushed (replayed + live) by this solve.
  std::uint64_t augmenting_paths = 0;
};

/// Fingerprint of a solve's inputs: node/arc structure, initial residuals,
/// costs and terminals, hashed over exact bit patterns. Two equal
/// fingerprints mean the solver inputs are bit-identical for all practical
/// purposes (64-bit collisions are vanishingly unlikely; a collision could
/// only replay a recording whose first infeasible push trips the
/// ResidualNetwork push contract rather than silently corrupting results).
std::uint64_t network_fingerprint(const ResidualNetwork& net, int source,
                                  int sink);

/// Exact + structural fingerprints, computed in one pass over the arcs.
/// The structural fingerprint hashes everything the exact one does EXCEPT
/// residual magnitudes: node/arc structure, per-arc targets, costs and
/// terminals. Two networks with equal structural fingerprints differ (if at
/// all) only in how much residual capacity each arc carries — exactly the
/// perturbation a dirty-link round produces — which is what makes the
/// partial-repair path below sound (docs/SOLVERS.md).
struct NetworkFingerprints {
  std::uint64_t exact = 0;
  std::uint64_t structural = 0;
};
NetworkFingerprints network_fingerprints(const ResidualNetwork& net,
                                         int source, int sink);

/// Repair is only attempted while the dirty fraction (arcs whose initial
/// residual differs from the recording's) stays at or below this bound;
/// beyond it the verification overhead approaches a cold solve's cost and
/// the solver escalates to a full solve instead (docs/SOLVERS.md).
inline constexpr double kMaxRepairDirtyFraction = 0.25;

/// Recording of one solve's augmenting-path sequence, replayable on a
/// network with the same fingerprint. Value-semantic and cheap to copy
/// relative to the solve it replaces.
struct MinCostWarmStart {
  std::uint64_t fingerprint = 0;

  struct Augmentation {
    /// Arcs of the path in the solver's traversal order (sink -> source).
    std::vector<int> arcs;
    /// Min residual along the path at this point, ignoring the flow limit.
    double bottleneck = 0.0;
    /// Sum of arc costs (accumulated in traversal order).
    double path_cost = 0.0;
  };
  std::vector<Augmentation> augmentations;
  /// True when the recorded solve ended because the sink became
  /// unreachable (or the path saturated): the sequence is complete for any
  /// flow limit. False when it ended on its own limit; a replay asking for
  /// more flow resumes live SSP from `final_potential`.
  bool exhausted = false;
  /// Johnson potentials after the recorded solve's last Dijkstra.
  std::vector<double> final_potential;

  /// Structural fingerprint (structure + costs + terminals, residual
  /// magnitudes excluded) and the initial residuals the recording was made
  /// against: one per arc, or one per forward arc (arc_count() / 2
  /// entries) when every reverse arc started at +0.0, as in any freshly
  /// built network. Together they enable the partial-repair path: a solve
  /// whose exact fingerprint misses but whose structural fingerprint
  /// matches can diff its residuals against `initial_residuals` and replay
  /// the recorded paths under support verification (see
  /// min_cost_max_flow). Zero /
  /// empty on recordings restored from checkpoints — the fields are
  /// deliberately never serialized (docs/REPLAY.md: warm bases are
  /// observational; restored recordings are repair-ineligible, so the first
  /// perturbed round after a restore solves cold).
  std::uint64_t struct_fingerprint = 0;
  std::vector<double> initial_residuals;

  bool empty() const { return fingerprint == 0; }
  bool repairable() const {
    return struct_fingerprint != 0 && !initial_residuals.empty();
  }
};

/// Computes a minimum-cost maximum flow from source to sink (mutating
/// residuals). When `flow_limit` is finite, stops once that much flow is
/// routed (min-cost flow of a given value). Costs may be negative as long as
/// the initial network has no negative-cost cycle of positive capacity.
///
/// When `warm` is non-null: if it holds a recording matching this network,
/// the solve replays it (bit-identical result, counted under
/// solver.warm_starts); if the recording matches structurally but not
/// exactly and is repairable(), the solve attempts a PARTIAL REPAIR —
/// replay the recorded augmenting paths on the perturbed residuals while
/// verifying, before every path, that the support pattern (residual >
/// kFlowEps per arc) any recorded Dijkstra could have observed is
/// unchanged on the arcs whose residual trajectories may differ. Dijkstra
/// over Johnson-reduced costs reads residual SUPPORT, costs, structure and
/// potentials — never residual magnitudes — so verified support equality
/// proves the cold path sequence on the perturbed network equals the
/// recorded one, and the repaired result (flow, cost, status, final
/// residuals) is bit-identical to a cold solve. On any verification
/// failure the solver rolls the residuals back to the pre-repair snapshot
/// and runs cold (counted under solver.partial_rollbacks; successful
/// repairs under solver.partial_repairs). Otherwise the solve runs cold
/// and overwrites *warm with a fresh recording for next time.
///
/// `max_augmentations` bounds the augmenting-path count (replayed paths
/// included); when it binds, the result carries
/// SolveStatus::kBudgetExhausted and the flow routed so far. The budget
/// binds identically on cold, replayed and resumed solves of the same
/// network, so warm results stay bit-identical to cold ones. The
/// `flow.mincost` fault site (docs/FAULTS.md) can clamp the budget further,
/// keyed by the network fingerprint.
///
/// `prints`, when non-null, must equal network_fingerprints(net, source,
/// sink); a caller that already hashed the network passes them in so the
/// solve does not hash it again.
///
/// `improved`, when non-null, holds one flag per arc pair (arc_count() / 2
/// entries; pair i is arcs 2i and 2i+1). The solve sets pair i's flag when
/// a Bellman-Ford or Dijkstra relaxation on either arc improved a label.
/// A pair whose flag stays clear was a no-op in every search: the same
/// network without that pair runs the same searches (docs/SOLVERS.md,
/// "Removed-edge prefix reuse"). A solve served from a recording (replay,
/// repair or resume) ran no full search, so it sets every flag.
MinCostFlowResult min_cost_max_flow(
    ResidualNetwork& net, int source, int sink,
    double flow_limit = std::numeric_limits<double>::infinity(),
    MinCostWarmStart* warm = nullptr,
    std::uint64_t max_augmentations = kDefaultMaxAugmentations,
    const NetworkFingerprints* prints = nullptr,
    std::vector<std::uint8_t>* improved = nullptr);

/// Thread-safe fingerprint-keyed store of warm-start recordings with FIFO
/// eviction. Shared by repeated solves (e.g. one per TE demand per round);
/// safe under concurrent solvers because replay output is bit-identical to
/// a cold solve — a lost or duplicated store changes timing, never results.
class WarmStartCache {
 public:
  explicit WarmStartCache(std::size_t max_entries = 512);

  /// The recording for `fingerprint`, or nullptr.
  std::shared_ptr<const MinCostWarmStart> find(
      std::uint64_t fingerprint) const;

  /// The latest repairable recording whose structural fingerprint matches,
  /// or nullptr. Feeds the partial-repair path on an exact-fingerprint
  /// miss; recordings without repair data (struct_fingerprint == 0, e.g.
  /// restored from a checkpoint) are never returned.
  std::shared_ptr<const MinCostWarmStart> find_structural(
      std::uint64_t struct_fingerprint) const;

  /// Stores (or refreshes) the recording under its own fingerprint.
  void store(std::shared_ptr<const MinCostWarmStart> recording);

  std::size_t size() const;

  /// Every recording in FIFO-insertion order, for checkpointing
  /// (rwc::replay). The shared_ptrs alias the live entries — cheap, and
  /// safe because recordings are immutable once stored.
  std::vector<std::shared_ptr<const MinCostWarmStart>> snapshot() const;

  /// Replaces the cache contents with `recordings` (oldest first),
  /// re-establishing the same FIFO eviction order. Empty recordings are
  /// skipped; an empty vector restores the explicit cold-cache state.
  void restore(
      std::vector<std::shared_ptr<const MinCostWarmStart>> recordings);

 private:
  void insert_locked(std::shared_ptr<const MinCostWarmStart> recording);

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const MinCostWarmStart>>
      entries_;
  std::deque<std::uint64_t> insertion_order_;  // FIFO eviction queue
  /// struct fingerprint -> exact fingerprint of the latest repairable
  /// recording with that structure; entries leave with their recordings.
  std::unordered_map<std::uint64_t, std::uint64_t> structural_;
};

}  // namespace rwc::flow
