// DynamicCapacityController: the end-to-end pipeline of the paper.
//
// Each TE round:
//   1. Map every link's SNR to the highest feasible ladder rate (with a
//      safety margin).
//   2. Links whose SNR no longer supports the configured rate FLAP DOWN to
//      the feasible rate (possibly 0) — the paper's "link flap instead of
//      link failure" (Section 2.2).
//   3. Links with headroom become variable links; Algorithm 1 builds the
//      augmented topology with the configured penalty policy.
//   4. An UNMODIFIED TE engine routes the demands on the augmented view.
//   5. The output is translated into capacity upgrades + physical routing;
//      an optional consolidation pass minimizes the number of activated
//      upgrades among cost-equal solutions (recovers the Fig. 7 example's
//      "only one link is increased").
//   6. The transition from the previous round's routing is checked against
//      the post-upgrade capacities (Section 4.2 (ii)); with options.update
//      an ordered update schedule is planned and validated for it too, and
//      a valid one is executed (update::ScheduleExecutor).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "core/augment.hpp"
#include "core/hysteresis.hpp"
#include "core/translate.hpp"
#include "demand/pipeline.hpp"
#include "obs/registry.hpp"
#include "optical/modulation.hpp"
#include "te/algorithm.hpp"
#include "update/executor.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::core {

/// An SNR-forced capacity reduction (from > to; to == 0 means link down).
struct LinkFlap {
  graph::EdgeId edge;
  util::Gbps from{0.0};
  util::Gbps to{0.0};
};

struct ControllerOptions {
  /// Safety margin subtracted from the SNR before the ladder lookup.
  util::Db snr_margin{0.5};
  AugmentOptions augment;
  /// Greedy post-pass dropping upgrades that do not improve throughput.
  bool consolidate = true;
  /// Optional dampening of capacity INCREASES (reductions always pass):
  /// suppresses flapping when SNR hovers around a ladder threshold.
  std::optional<HysteresisParams> hysteresis;
  /// Flows that must not be disturbed at all (Section 4.2 (i)): their
  /// capacity is carved out of the topology and their links are barred from
  /// changing capacity. The flows themselves are invisible to the TE run
  /// and do not appear in the round's physical assignment.
  std::vector<ProtectedFlow> protected_flows;
  /// Incremental re-solve hot path (docs/FLEET.md): when a round's solve
  /// inputs — configured capacities, variable-link set, demands, and the
  /// penalty-relevant traffic on variable links — are identical to the
  /// previous round's, the controller reuses the previous round's
  /// (post-consolidation) plan instead of re-running augment/solve/
  /// translate. Results are bit-identical to a full re-solve by
  /// construction (a full re-solve on identical inputs is deterministic,
  /// and engine caches are timing-only by contract); only RoundStats work
  /// counters and timings differ. The memo is never checkpointed — a cold
  /// memo after restore costs one full re-solve, nothing else.
  bool incremental = false;
  /// Optional consistent-update transition stage (docs/UPDATE.md): when
  /// set, every round also plans an update::UpdateSchedule ordering the
  /// round's BVT reconfigs and route moves into congestion-free /
  /// loop-free update rounds (from the previous round's capacities +
  /// routing to the new ones), validates it, and executes a valid one.
  /// Purely observational: the schedule rides in RoundReport::update, its
  /// outcome in RoundReport::execution and its shape in RoundStats, but
  /// controller results and signatures are bit-identical with the stage on
  /// or off.
  std::optional<update::SchedulerConfig> update;
  /// Closed-loop demand estimation (docs/DEMAND.md). With the default
  /// kOracle source the controller consumes the handed-in matrix directly,
  /// bit-for-bit as before. With kEstimated the handed-in matrix is the
  /// OFFERED INTENT: a demand::DemandPipeline synthesizes link counters
  /// from it over the previous round's installed routing, degrades them
  /// per the config (and any armed demand.counter plan), infers an OD
  /// matrix back, and the TE stages solve THAT. Unlike every stats knob,
  /// this changes RESULTS — embedders fingerprint it (serve, replay).
  demand::DemandConfig demand;
  /// Penalty policy; defaults to TrafficProportionalPenalty.
  std::shared_ptr<const PenaltyPolicy> penalty;
  /// Thread pool for the consolidation pass's candidate evaluations;
  /// nullptr selects exec::ThreadPool::global(). The chosen plan is
  /// identical at every pool size (speculative waves replicate the serial
  /// acceptance sequence — docs/CONCURRENCY.md). Waves are wider than one
  /// trial only when the pool has >= 2 threads and the round does not run
  /// on one of them; only then may RoundStats work counters include
  /// discarded speculative evaluations. Requires the TE engine's solve()
  /// to be safe to call concurrently.
  exec::ThreadPool* pool = nullptr;
};

class DynamicCapacityController {
 public:
  /// `physical` carries the nominal configured capacities (e.g. 100 Gbps
  /// everywhere). The engine reference must outlive the controller.
  DynamicCapacityController(graph::Graph physical,
                            optical::ModulationTable table,
                            const te::TeAlgorithm& engine,
                            ControllerOptions options = ControllerOptions{});

  /// Per-round performance statistics, filled by every run_round call.
  ///
  /// Stage timings are wall-clock seconds and exclusive: no interval is
  /// counted in two buckets, so augment + solve + translate + consolidate
  /// + update <= total. The augment/solve/translate buckets
  /// cover the round's primary evaluation only; `consolidate_seconds`
  /// covers the whole consolidation pass, its trial evaluations included.
  /// The same values are recorded into the global `obs::Registry` under the
  /// `controller.round.*` histograms; names and units are contractual —
  /// see docs/OBSERVABILITY.md.
  struct RoundStats {
    /// Algorithm-1 topology augmentation time (primary evaluation).
    double augment_seconds = 0.0;
    /// TE engine solve time on the augmented graph (primary evaluation).
    double solve_seconds = 0.0;
    /// Assignment-to-plan translation time (primary evaluation).
    double translate_seconds = 0.0;
    /// Consolidation post-pass, trial evaluations included.
    double consolidate_seconds = 0.0;
    /// End-to-end run_round wall time.
    double total_seconds = 0.0;
    /// Augment->solve->translate passes (1 + accepted/tried consolidations).
    std::uint64_t evaluations = 0;
    /// Solver work observed during this round (deltas of the global
    /// registry counters; which ones move depends on the TE engine).
    std::uint64_t mincost_runs = 0;       ///< flow.mincost.runs delta
    std::uint64_t mincost_paths = 0;      ///< flow.mincost.paths delta
    std::uint64_t simplex_solves = 0;     ///< lp.simplex.solves delta
    std::uint64_t simplex_iterations = 0; ///< lp.simplex.iterations delta
    /// Incremental hot path (options.incremental): whether this round's
    /// plan was served from the previous round's memo without a solve.
    /// Work accounting only — never part of a round's result signature.
    bool incremental_hit = false;
    /// Base links whose configured rate, variable feasible rate or (for
    /// a variable link) traffic changed since the last solved round
    /// (edge_count on a cold or post-restore round; 0 on a memo hit).
    std::uint64_t dirty_links = 0;
    /// Whether any solver-rung reuse served work this round: an McfTe
    /// removed-edge prefix resume (solver.trace_resumes) or an LP memo hit
    /// (lp.memo_hits) moved during the round. The middle rung of the
    /// ladder (docs/SOLVERS.md: memo -> prefix -> full). Work accounting
    /// only — never part of a round's result signature.
    bool partial_resolve = false;
    /// dirty_links / edge_count: 0.0 on a memo hit, 1.0 on a cold or
    /// fully-perturbed round. Only meaningful with options.incremental.
    double dirty_fraction = 0.0;
    /// Consistent-update stage (options.update): shape of the planned
    /// schedule. Work accounting only — never part of a round's result
    /// signature (like every other stats field).
    std::uint64_t update_rounds = 0;
    std::uint64_t update_route_moves = 0;
    std::uint64_t update_reconfigs = 0;
    double update_makespan_seconds = 0.0;
    /// Schedule planning + validation wall time (execution excluded).
    double update_seconds = 0.0;
  };

  /// Everything one TE round decided and how it went (the paper's §4
  /// pipeline output plus the observability stats contract).
  struct RoundReport {
    /// SNR-forced capacity reductions applied this round (walk / crawl).
    std::vector<LinkFlap> reductions;
    /// SNR-recovery restorations toward the nominal rate (from < to).
    std::vector<LinkFlap> restorations;
    /// Capacity upgrades + physical routing chosen by the TE engine.
    ReconfigurationPlan plan;
    /// Total demand volume routed on the physical topology.
    util::Gbps total_routed{0.0};
    /// Total penalty paid on fake links (upgrade disruption proxy).
    double total_penalty = 0.0;
    /// Whether the two-phase consistent update (drain shrinking routes,
    /// then add growing ones) from the previous round's routing keeps
    /// every link within its post-upgrade capacity. Loads only fall in the
    /// first phase and only rise in the second, so this holds iff the
    /// previous and the new load of every link fit it (within 1e-6 Gbps).
    /// An SNR-forced reduction under load makes it false by construction.
    bool transition_valid = false;
    /// Demand-estimation outcome of this round (only when options.demand
    /// selects kEstimated). Diagnostics — never part of a round's result
    /// signature; the estimated volumes the round solved are (read them
    /// via demand_pipeline()->last_estimated()).
    std::optional<demand::EstimateStats> demand;
    /// Ordered update schedule for this round's transition (only when
    /// options.update is set).
    std::optional<update::UpdateSchedule> update;
    /// Whether the schedule is feasible AND passed validate_schedule.
    /// Meaningless when options.update is unset.
    bool update_valid = false;
    /// The outcome of executing the schedule (update::ScheduleExecutor, with
    /// its update.commit/update.rollback fault sites live); engaged iff
    /// update_valid. Observational — never part of a round's signature.
    std::optional<update::ExecutionResult> execution;
    /// Per-stage timings and solver counters for this round.
    RoundStats stats;
  };

  /// Runs one TE round. `link_snr` is indexed by physical edge id.
  RoundReport run_round(std::span<const util::Db> link_snr,
                        const te::TrafficMatrix& demands);

  /// Everything that evolves across rounds, captured for checkpointing
  /// (rwc::replay). A controller built with the same topology/table/options
  /// and restored from this state produces bit-identical RoundReports for
  /// the remaining rounds — docs/REPLAY.md states the contract.
  struct PersistentState {
    std::vector<util::Gbps> configured;
    std::optional<HysteresisFilter::State> hysteresis;
    te::FlowAssignment last_assignment;
    std::vector<double> last_traffic;
    std::vector<util::Db> last_snr;
  };
  PersistentState save_state() const;
  /// Whether restore_state() accepts `state`: every per-link vector
  /// (hysteresis ones included) matches this controller's physical
  /// topology, every path of the last assignment names edges of it, and
  /// hysteresis presence matches the options the controller was built
  /// with.
  bool can_restore(const PersistentState& state) const;
  /// Restores a captured state. Precondition: can_restore(state), checked
  /// before anything is written.
  void restore_state(PersistentState state);

  const graph::Graph& physical_topology() const { return physical_; }
  /// Physical topology with the currently configured capacities.
  graph::Graph current_topology() const;
  util::Gbps configured_capacity(graph::EdgeId edge) const;
  /// All configured capacities, indexed by edge id — the epoch-publication
  /// hook (rwc::serve): building a PlanEpoch copies this span once instead
  /// of issuing edge_count bounds-checked per-edge lookups.
  std::span<const util::Gbps> configured_capacities() const {
    return configured_;
  }
  const te::FlowAssignment& last_assignment() const {
    return last_assignment_;
  }
  const optical::ModulationTable& table() const { return table_; }
  const ControllerOptions& options() const { return options_; }

  /// The estimation pipeline (nullptr unless options.demand is estimated).
  /// Its evolving state rides the optional kDemand checkpoint section —
  /// PersistentState stays wire-compatible (docs/REPLAY.md).
  demand::DemandPipeline* demand_pipeline() { return demand_pipeline_.get(); }
  const demand::DemandPipeline* demand_pipeline() const {
    return demand_pipeline_.get();
  }

 private:
  /// One augment -> solve -> translate evaluation against `current`.
  /// Stage wall-times and the evaluation count accumulate into `stats`.
  ReconfigurationPlan evaluate(const graph::Graph& current,
                               std::span<const VariableLink> variable_links,
                               const te::TrafficMatrix& demands,
                               RoundStats& stats) const;

  /// Consolidation post-pass on report.plan: drops upgrades whose removal
  /// does not hurt throughput or penalty. The remaining candidates are
  /// evaluated in waves whose in-order acceptance scan reproduces the
  /// serial decision sequence bit-for-bit; a wave holds one trial unless
  /// the trials can really run at once.
  void consolidate(exec::ThreadPool& pool, const graph::Graph& current,
                   std::span<const VariableLink> variable_links,
                   const te::TrafficMatrix& demands,
                   RoundReport& report) const;

  /// Inputs and outcome of the last full solve (options_.incremental): a
  /// round whose solve inputs compare equal reuses `plan` wholesale.
  /// Deliberately not part of PersistentState — restoring with a cold memo
  /// changes timing only, never results.
  struct SolveMemo {
    bool valid = false;
    std::vector<util::Gbps> configured;
    std::vector<VariableLink> variable_links;
    te::TrafficMatrix demands;
    /// last_traffic_ sampled on the variable links (aligned with
    /// variable_links) — the only traffic the penalty policies read.
    std::vector<double> variable_traffic;
    ReconfigurationPlan plan;
  };

  graph::Graph physical_;
  optical::ModulationTable table_;
  const te::TeAlgorithm& engine_;
  ControllerOptions options_;
  std::unique_ptr<demand::DemandPipeline> demand_pipeline_;
  std::vector<util::Gbps> configured_;
  SolveMemo memo_;
  std::optional<HysteresisFilter> hysteresis_;
  te::FlowAssignment last_assignment_;
  std::vector<double> last_traffic_;
  /// Previous round's sanitized per-link SNR; what a stale telemetry fault
  /// (site core.snr) replays. 0 dB before the first round.
  std::vector<util::Db> last_snr_;
};

}  // namespace rwc::core
