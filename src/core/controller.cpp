#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/registry.hpp"
#include "flow/network.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::core {

using graph::EdgeId;
using util::Db;
using util::Gbps;

namespace {

/// Handles into the global registry for the controller's stats contract
/// (docs/OBSERVABILITY.md: controller.*). Looked up once per process.
struct ControllerMetrics {
  obs::Counter& rounds;
  obs::Counter& reductions;
  obs::Counter& restorations;
  obs::Counter& upgrades;
  obs::Counter& evaluations;
  obs::Gauge& variable_links;
  obs::Histogram& round_seconds;
  obs::Histogram& augment_seconds;
  obs::Histogram& solve_seconds;
  obs::Histogram& translate_seconds;
  obs::Histogram& consolidate_seconds;
  obs::Histogram& update_seconds;
  obs::Counter& incremental_hits;
  obs::Counter& incremental_misses;
  obs::Histogram& incremental_dirty_links;
  obs::Counter& partial_rounds;

  static ControllerMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static ControllerMetrics metrics{
        registry.counter("controller.rounds"),
        registry.counter("controller.reductions"),
        registry.counter("controller.restorations"),
        registry.counter("controller.upgrades"),
        registry.counter("controller.evaluations"),
        registry.gauge("controller.variable_links"),
        registry.histogram("controller.round.seconds"),
        registry.histogram("controller.round.augment.seconds"),
        registry.histogram("controller.round.solve.seconds"),
        registry.histogram("controller.round.translate.seconds"),
        registry.histogram("controller.round.consolidate.seconds"),
        registry.histogram("controller.round.update.seconds"),
        registry.counter("solver.incremental_hits"),
        registry.counter("solver.incremental_misses"),
        registry.histogram("solver.incremental_dirty_links"),
        registry.counter("solver.partial_rounds"),
    };
    return metrics;
  }
};

/// Counters whose per-round deltas surface in RoundStats.
struct SolverCounters {
  std::uint64_t mincost_runs;
  std::uint64_t mincost_paths;
  std::uint64_t simplex_solves;
  std::uint64_t simplex_iterations;
  /// Solver-rung reuse (docs/SOLVERS.md): McfTe prefix resumes and LP
  /// memo hits. Their per-round delta drives RoundStats.partial_resolve.
  std::uint64_t partial_reuses;

  static SolverCounters read() {
    static auto& registry = obs::Registry::global();
    static auto& mincost_runs = registry.counter("flow.mincost.runs");
    static auto& mincost_paths = registry.counter("flow.mincost.paths");
    static auto& simplex_solves = registry.counter("lp.simplex.solves");
    static auto& simplex_iterations =
        registry.counter("lp.simplex.iterations");
    static auto& trace_resumes = registry.counter("solver.trace_resumes");
    static auto& memo_hits = registry.counter("lp.memo_hits");
    return SolverCounters{mincost_runs.value(), mincost_paths.value(),
                          simplex_solves.value(),
                          simplex_iterations.value(),
                          trace_resumes.value() + memo_hits.value()};
  }
};

/// RoundReport::transition_valid: the two-phase rule's old and new loads
/// both fit the post-upgrade capacity of every link.
bool transition_fits(std::span<const double> before,
                     std::span<const double> after,
                     std::span<const Gbps> capacity) {
  constexpr double kTolerance = 1e-6;
  for (std::size_t i = 0; i < capacity.size(); ++i) {
    const double limit = capacity[i].value + kTolerance;
    if ((i < before.size() && before[i] > limit) ||
        (i < after.size() && after[i] > limit))
      return false;
  }
  return true;
}

/// Per base edge: the feasible rate of a variable link (-1 when the link
/// is not variable) and the traffic its penalty policy reads (0 when not
/// variable). `traffic` is aligned with `links`.
std::vector<std::pair<double, double>> variable_overlay(
    std::size_t edge_count, std::span<const VariableLink> links,
    std::span<const double> traffic) {
  std::vector<std::pair<double, double>> overlay(edge_count, {-1.0, 0.0});
  for (std::size_t k = 0; k < links.size(); ++k)
    overlay[static_cast<std::size_t>(links[k].edge.value)] = {
        links[k].feasible_capacity.value, traffic[k]};
  return overlay;
}

}  // namespace

DynamicCapacityController::DynamicCapacityController(
    graph::Graph physical, optical::ModulationTable table,
    const te::TeAlgorithm& engine, ControllerOptions options)
    : physical_(std::move(physical)),
      table_(std::move(table)),
      engine_(engine),
      options_(std::move(options)) {
  if (options_.penalty == nullptr)
    options_.penalty = std::make_shared<TrafficProportionalPenalty>();
  if (options_.demand.estimated())
    demand_pipeline_ = std::make_unique<demand::DemandPipeline>(
        physical_.edge_count(), options_.demand);
  configured_.reserve(physical_.edge_count());
  for (EdgeId edge : physical_.edge_ids())
    configured_.push_back(physical_.edge(edge).capacity);
  if (options_.hysteresis.has_value())
    hysteresis_.emplace(physical_.edge_count(), *options_.hysteresis);
  last_traffic_.assign(physical_.edge_count(), 0.0);
  last_snr_.assign(physical_.edge_count(), Db{0.0});
}

DynamicCapacityController::PersistentState
DynamicCapacityController::save_state() const {
  PersistentState state;
  state.configured = configured_;
  if (hysteresis_.has_value()) state.hysteresis = hysteresis_->state();
  state.last_assignment = last_assignment_;
  state.last_traffic = last_traffic_;
  state.last_snr = last_snr_;
  return state;
}

bool DynamicCapacityController::can_restore(
    const PersistentState& state) const {
  const std::size_t edges = physical_.edge_count();
  // Later rounds index per-link vectors with these ids (the update
  // schedule's loads, the demand pipeline's routing matrix).
  for (const auto& routing : state.last_assignment.routings)
    for (const auto& [path, volume] : routing.paths)
      for (const EdgeId edge : path.edges)
        if (!edge.valid() || static_cast<std::size_t>(edge.value) >= edges)
          return false;
  return state.configured.size() == edges &&
         state.last_traffic.size() == edges &&
         state.last_snr.size() == edges &&
         state.hysteresis.has_value() == hysteresis_.has_value() &&
         (!state.hysteresis.has_value() ||
          (state.hysteresis->candidate.size() == edges &&
           state.hysteresis->streak.size() == edges));
}

void DynamicCapacityController::restore_state(PersistentState state) {
  RWC_EXPECTS(can_restore(state));
  configured_ = std::move(state.configured);
  if (hysteresis_.has_value())
    hysteresis_->restore_state(std::move(*state.hysteresis));
  last_assignment_ = std::move(state.last_assignment);
  last_traffic_ = std::move(state.last_traffic);
  last_snr_ = std::move(state.last_snr);
  // The memo is deliberately outside PersistentState; drop it so the first
  // post-restore round performs a clean full re-solve.
  memo_ = SolveMemo{};
}

graph::Graph DynamicCapacityController::current_topology() const {
  graph::Graph current;
  for (graph::NodeId node : physical_.node_ids())
    current.add_node(physical_.node_name(node));
  for (EdgeId edge : physical_.edge_ids()) {
    const graph::Edge& e = physical_.edge(edge);
    current.add_edge(e.src, e.dst,
                     configured_[static_cast<std::size_t>(edge.value)],
                     e.cost, e.weight);
  }
  return current;
}

Gbps DynamicCapacityController::configured_capacity(EdgeId edge) const {
  RWC_EXPECTS(edge.valid() &&
              static_cast<std::size_t>(edge.value) < configured_.size());
  return configured_[static_cast<std::size_t>(edge.value)];
}

ReconfigurationPlan DynamicCapacityController::evaluate(
    const graph::Graph& current,
    std::span<const VariableLink> variable_links,
    const te::TrafficMatrix& demands, RoundStats& stats) const {
  ++stats.evaluations;
  obs::StopWatch watch;
  const AugmentedTopology augmented =
      augment_topology(current, variable_links, *options_.penalty,
                       last_traffic_, options_.augment);
  stats.augment_seconds += watch.seconds();

  watch.restart();
  const te::FlowAssignment assignment =
      engine_.solve(augmented.graph, demands);
  stats.solve_seconds += watch.seconds();

  watch.restart();
  ReconfigurationPlan plan =
      translate_assignment(current, augmented, variable_links, assignment);
  stats.translate_seconds += watch.seconds();
  return plan;
}

void DynamicCapacityController::consolidate(
    exec::ThreadPool& pool, const graph::Graph& current,
    std::span<const VariableLink> variable_links,
    const te::TrafficMatrix& demands, RoundReport& report) const {
  // Try cheapest-traffic upgrades first: they are the likeliest to be
  // gratuitous tie-break artifacts.
  auto by_traffic = report.plan.upgrades;
  std::sort(by_traffic.begin(), by_traffic.end(),
            [](const CapacityChange& a, const CapacityChange& b) {
              return a.upgrade_traffic < b.upgrade_traffic;
            });

  // Variable-link set for testing the removal of `candidate` against the
  // current plan: links still upgraded by the plan, minus the candidate.
  const auto reduced_links = [&](const CapacityChange& candidate) {
    std::vector<VariableLink> reduced(variable_links.begin(),
                                      variable_links.end());
    std::erase_if(reduced, [&](const VariableLink& link) {
      const bool still_upgraded = std::any_of(
          report.plan.upgrades.begin(), report.plan.upgrades.end(),
          [&](const CapacityChange& u) { return u.edge == link.edge; });
      return !still_upgraded || link.edge == candidate.edge;
    });
    return reduced;
  };
  const auto accept = [&](const ReconfigurationPlan& trial) {
    const double before_routed =
        report.plan.physical_assignment.total_routed.value;
    return trial.physical_assignment.total_routed.value >=
               before_routed - 1e-6 &&
           trial.total_penalty <= report.plan.total_penalty + 1e-6 &&
           trial.upgrades.size() < report.plan.upgrades.size();
  };

  // Waves. A window of upcoming candidates is evaluated against the
  // frozen current plan, then scanned IN CANDIDATE ORDER for the first
  // acceptance. In the serial loop, every rejection before the first
  // acceptance was evaluated against that same plan, so the scan
  // reproduces the serial decision sequence exactly; trials past the
  // acceptance point were computed against a stale plan and are discarded
  // (a later wave re-evaluates them against the updated plan). The window
  // bounds that speculative waste to window-1 evaluations per acceptance,
  // and it is wider than one trial only when the trials really run at
  // once: on a pool of >= 2 threads, from outside its workers
  // (parallel_for runs a worker's re-entry inline). There, two trials per
  // worker keep every thread busy without over-speculating past likely
  // acceptances; everywhere else a window of 1 is the serial loop, with
  // its evaluation count. Trials time into consolidate_seconds alone: each
  // gets scratch stats and only its evaluation count reaches the round's.
  const std::size_t window =
      pool.thread_count() >= 2 && !pool.on_worker_thread()
          ? 2 * pool.thread_count()
          : 1;
  std::size_t next = 0;
  while (next < by_traffic.size() && report.plan.upgrades.size() > 1) {
    const std::size_t wave = std::min(window, by_traffic.size() - next);
    std::vector<ReconfigurationPlan> trials(wave);
    std::vector<RoundStats> trial_stats(wave);
    exec::parallel_for(pool, wave, [&](std::size_t i) {
      trials[i] = evaluate(current, reduced_links(by_traffic[next + i]),
                           demands, trial_stats[i]);
    });
    std::size_t accepted = wave;
    for (std::size_t i = 0; i < wave; ++i) {
      if (accept(trials[i])) {
        accepted = i;
        break;
      }
    }
    for (const RoundStats& s : trial_stats)
      report.stats.evaluations += s.evaluations;
    if (accepted == wave) {
      next += wave;  // whole window rejected; move on to the next one
      continue;
    }
    report.plan = std::move(trials[accepted]);
    next += accepted + 1;
  }
}

DynamicCapacityController::RoundReport
DynamicCapacityController::run_round(std::span<const Db> link_snr,
                                     const te::TrafficMatrix& demands) {
  RWC_EXPECTS(link_snr.size() == physical_.edge_count());
  auto& metrics = ControllerMetrics::instance();
  RoundReport report;
  const SolverCounters counters_before = SolverCounters::read();
  std::size_t variable_link_count = 0;
  {
    // The timer closes into controller.round.seconds when the pipeline
    // scope ends, before the stats flush below reads total_seconds.
    obs::ScopedTimer round_timer(metrics.round_seconds,
                                 &report.stats.total_seconds);

    // Step 0 (options_.demand, docs/DEMAND.md): closed-loop demand
    // estimation. The handed-in matrix becomes the offered intent; the
    // pipeline synthesizes link counters from it over the previous round's
    // installed routing and infers the matrix the TE stages actually solve.
    // With the default oracle source this block is skipped and `demands`
    // flows through untouched.
    const te::TrafficMatrix* round_demands = &demands;
    te::TrafficMatrix estimated_demands;
    if (demand_pipeline_ != nullptr) {
      demand::DemandPipeline::Result estimate =
          demand_pipeline_->round(demands, last_assignment_);
      estimated_demands = std::move(estimate.demands);
      report.demand = estimate.stats;
      round_demands = &estimated_demands;
    }

    // Step 1-2: feasible rates; flap down links whose SNR degraded.
    static auto& snr_clamped =
        obs::Registry::global().counter("controller.snr_clamped");
    std::vector<Gbps> feasible(physical_.edge_count());
    for (EdgeId edge : physical_.edge_ids()) {
      const auto i = static_cast<std::size_t>(edge.value);
      double snr_db = link_snr[i].value;
      // Fault injection (docs/FAULTS.md, site core.snr): this link's
      // telemetry arrives stale (previous round's reading), corrupted
      // (nan/garbage), or not at all (drop -> loss of light). Keyed by
      // edge id, so injections are pool-size independent.
      switch (fault::at("core.snr", static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(edge.value)))
                  .kind) {
        case fault::Kind::kStale:
          snr_db = last_snr_[i].value;
          break;
        case fault::Kind::kNan:
          snr_db = std::numeric_limits<double>::quiet_NaN();
          break;
        case fault::Kind::kGarbage:
          snr_db = -1e9;
          break;
        case fault::Kind::kDrop:
          snr_db = 0.0;
          break;
        default:
          break;
      }
      // Telemetry guard: a non-finite or negative reading is a dead or
      // lying receiver — treat it as 0 dB (no feasible rate) instead of
      // letting NaN flow into the ladder lookup and capacity tables.
      if (!(std::isfinite(snr_db) && snr_db >= 0.0)) {
        snr_db = 0.0;
        snr_clamped.add();
      }
      last_snr_[i] = Db{snr_db};
      feasible[i] =
          table_.feasible_capacity(Db{snr_db}, options_.snr_margin);
      if (hysteresis_.has_value()) {
        const Gbps with_extra = table_.feasible_capacity(
            Db{snr_db},
            options_.snr_margin + options_.hysteresis->extra_up_margin);
        feasible[i] =
            hysteresis_->filter(i, feasible[i], with_extra, configured_[i]);
      }
      if (feasible[i] < configured_[i]) {
        report.reductions.push_back(
            LinkFlap{edge, configured_[i], feasible[i]});
        configured_[i] = feasible[i];
      }
    }

    // CapEst-style cross-check (docs/DEMAND.md §7): each link's decayed
    // peak of counted traffic against what its sanitized SNR supports. A
    // diagnostic only: it counts demand.capacity.mismatch and changes
    // nothing the round decides.
    if (demand_pipeline_ != nullptr)
      demand_pipeline_->capacity().estimates(table_, last_snr_,
                                             options_.snr_margin);

    // Restoration: degraded links come back toward their nominal rate as
    // soon as the SNR allows (an operational repair, not a TE decision).
    // Upgrades beyond nominal remain TE-driven.
    for (EdgeId edge : physical_.edge_ids()) {
      const auto i = static_cast<std::size_t>(edge.value);
      const Gbps target = std::min(physical_.edge(edge).capacity, feasible[i]);
      if (target > configured_[i]) {
        report.restorations.push_back(LinkFlap{edge, configured_[i], target});
        configured_[i] = target;
      }
    }

    // Step 3: variable links (headroom above the configured rate).
    std::vector<VariableLink> variable_links;
    for (EdgeId edge : physical_.edge_ids()) {
      const auto i = static_cast<std::size_t>(edge.value);
      if (feasible[i] > configured_[i])
        variable_links.push_back(VariableLink{edge, feasible[i]});
    }
    variable_link_count = variable_links.size();

    // Steps 4-5: augment, solve with the unmodified engine, translate.
    // Protected flows (Section 4.2 (i)) are carved out first: their
    // capacity disappears from the topology and their links leave the
    // variable set.
    graph::Graph current = current_topology();
    if (!options_.protected_flows.empty())
      current = carve_out_protected(current, options_.protected_flows,
                                    variable_links);

    // Incremental hot path (options_.incremental, docs/FLEET.md): the solve
    // pipeline is a deterministic function of (configured capacities,
    // variable links, demands, traffic on variable links) — penalty
    // policies read traffic only for variable links, and engine caches are
    // timing-only by contract. When all four match the previous round's,
    // the memoized post-consolidation plan IS what a full re-solve would
    // produce, bit for bit, so reuse it and skip augment/solve/translate/
    // consolidate. The transition check below still runs normally (it
    // depends on last_assignment_, which does evolve).
    std::vector<double> variable_traffic;
    if (options_.incremental) {
      variable_traffic.reserve(variable_links.size());
      for (const VariableLink& link : variable_links)
        variable_traffic.push_back(
            last_traffic_[static_cast<std::size_t>(link.edge.value)]);
    }
    const bool memo_hit =
        options_.incremental && memo_.valid &&
        memo_.configured == configured_ &&
        memo_.variable_links == variable_links &&
        memo_.variable_traffic == variable_traffic &&
        memo_.demands == *round_demands;
    if (memo_hit) {
      report.plan = memo_.plan;
      report.stats.incremental_hit = true;
    } else {
      // RoundStats::dirty_links: the base links whose inputs moved since
      // the memoized solve; every link when there is none to diff against.
      if (options_.incremental) {
        const std::size_t edges = physical_.edge_count();
        if (!memo_.valid) {
          report.stats.dirty_links = edges;
        } else {
          const auto before = variable_overlay(edges, memo_.variable_links,
                                               memo_.variable_traffic);
          const auto after =
              variable_overlay(edges, variable_links, variable_traffic);
          for (std::size_t i = 0; i < edges; ++i)
            if (memo_.configured[i] != configured_[i] || before[i] != after[i])
              ++report.stats.dirty_links;
        }
      }
      report.plan =
          evaluate(current, variable_links, *round_demands, report.stats);

      // Consolidation: drop upgrades whose removal does not hurt throughput
      // or penalty (fewest activations among cost-equal optima).
      if (options_.consolidate && !report.plan.upgrades.empty()) {
        obs::StopWatch consolidate_watch;
        exec::ThreadPool& pool = options_.pool != nullptr
                                     ? *options_.pool
                                     : exec::ThreadPool::global();
        consolidate(pool, current, variable_links, *round_demands, report);
        report.stats.consolidate_seconds = consolidate_watch.seconds();
      }

      if (options_.incremental) {
        memo_.valid = true;
        memo_.configured = configured_;
        memo_.variable_links.assign(variable_links.begin(),
                                    variable_links.end());
        memo_.variable_traffic = std::move(variable_traffic);
        memo_.demands = *round_demands;
        memo_.plan = report.plan;
      }
    }

    // Step 6: apply upgrades and check the transition. The pre-upgrade
    // snapshot is the physical "now" the update scheduler transitions
    // from: flaps/restorations already landed at t=0 (SNR forced them),
    // only the TE-chosen upgrades are scheduled reconfigs.
    std::vector<Gbps> pre_upgrade_capacity;
    if (options_.update.has_value()) pre_upgrade_capacity = configured_;
    for (const CapacityChange& change : report.plan.upgrades)
      configured_[static_cast<std::size_t>(change.edge.value)] = change.to;
    report.transition_valid =
        transition_fits(last_assignment_.edge_load_gbps,
                        report.plan.physical_assignment.edge_load_gbps,
                        configured_);

    // Optional consistent-update stage (docs/UPDATE.md): order this
    // round's reconfigs + route moves into invariant-checked update
    // rounds, then execute a valid schedule. Observational by contract —
    // planning and execution read controller state, never write it, so
    // results are identical with the stage on or off.
    if (options_.update.has_value()) {
      obs::StopWatch update_watch;
      report.update = update::plan_schedule(
          physical_, pre_upgrade_capacity, configured_, last_assignment_,
          report.plan.physical_assignment, *options_.update);
      report.update_valid =
          report.update->feasible &&
          update::validate_schedule(physical_, *report.update, configured_,
                                    report.plan.physical_assignment);
      report.stats.update_rounds = report.update->rounds.size();
      report.stats.update_route_moves = report.update->route_moves;
      report.stats.update_reconfigs = report.update->reconfigs;
      report.stats.update_makespan_seconds =
          report.update->makespan_seconds;
      report.stats.update_seconds = update_watch.seconds();
      if (report.update_valid)
        report.execution =
            update::ScheduleExecutor(physical_, *report.update).run();
    }

    report.total_routed = report.plan.physical_assignment.total_routed;
    report.total_penalty = report.plan.total_penalty;

    last_assignment_ = report.plan.physical_assignment;
    last_traffic_ = last_assignment_.edge_load_gbps;
    last_traffic_.resize(physical_.edge_count(), 0.0);
  }

  // Stats flush: solver-counter deltas into the report, stage timings and
  // round counters into the global registry (docs/OBSERVABILITY.md).
  const SolverCounters counters_after = SolverCounters::read();
  report.stats.mincost_runs =
      counters_after.mincost_runs - counters_before.mincost_runs;
  report.stats.mincost_paths =
      counters_after.mincost_paths - counters_before.mincost_paths;
  report.stats.simplex_solves =
      counters_after.simplex_solves - counters_before.simplex_solves;
  report.stats.simplex_iterations = counters_after.simplex_iterations -
                                    counters_before.simplex_iterations;
  report.stats.partial_resolve =
      counters_after.partial_reuses > counters_before.partial_reuses;
  if (physical_.edge_count() > 0)
    report.stats.dirty_fraction =
        static_cast<double>(report.stats.dirty_links) /
        static_cast<double>(physical_.edge_count());

  metrics.rounds.add();
  metrics.reductions.add(report.reductions.size());
  metrics.restorations.add(report.restorations.size());
  metrics.upgrades.add(report.plan.upgrades.size());
  metrics.evaluations.add(report.stats.evaluations);
  metrics.variable_links.set(static_cast<double>(variable_link_count));
  metrics.augment_seconds.observe(report.stats.augment_seconds);
  metrics.solve_seconds.observe(report.stats.solve_seconds);
  metrics.translate_seconds.observe(report.stats.translate_seconds);
  metrics.consolidate_seconds.observe(report.stats.consolidate_seconds);
  if (options_.update.has_value())
    metrics.update_seconds.observe(report.stats.update_seconds);
  if (options_.incremental) {
    if (report.stats.incremental_hit) {
      metrics.incremental_hits.add();
    } else {
      metrics.incremental_misses.add();
      metrics.incremental_dirty_links.observe(
          static_cast<double>(report.stats.dirty_links));
    }
  }
  if (report.stats.partial_resolve) metrics.partial_rounds.add();
  return report;
}

}  // namespace rwc::core
