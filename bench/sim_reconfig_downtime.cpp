// Section 3.1 simulation: what the 68 s vs 35 ms reconfiguration latency
// costs at the network level. Sweeps the TE churn rate (via demand
// volatility) and reports lost traffic under both procedures.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "bvt/latency.hpp"
#include "core/controller.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "update/executor.hpp"
#include "update/schedule.hpp"

int main(int argc, char** argv) {
  using namespace rwc;
  bench::JsonExportGuard json_guard(argc, argv);
  (void)argc;
  (void)argv;
  bench::print_header(
      "Reconfiguration downtime: laser-cycling (68 s) vs hitless (35 ms)");

  // Per-change downtime distribution, directly.
  const bvt::LatencyModel latency;
  util::Rng rng = util::Rng::stream(3, 0);  // == Rng(3)
  util::TextTable per_change({"procedure", "mean", "p99"});
  for (bvt::Procedure procedure :
       {bvt::Procedure::kStandard, bvt::Procedure::kEfficient}) {
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i)
      samples.push_back(latency.sample_downtime(procedure, rng));
    const util::EmpiricalCdf cdf(samples);
    auto fmt = [](double v) {
      return v >= 1.0 ? util::format_double(v, 1) + " s"
                      : util::format_double(v * 1000.0, 1) + " ms";
    };
    per_change.add_row({bvt::to_string(procedure),
                        fmt(util::summarize(samples).mean),
                        fmt(cdf.value_at(0.99))});
  }
  per_change.print(std::cout);

  // Network-level cost under increasing churn (diurnal demands force
  // capacity changes every few rounds).
  std::cout << "\nNetwork-level cost on Abilene (1 day, diurnal load):\n";
  const graph::Graph topology = sim::abilene();
  te::McfTe engine;
  util::TextTable rows({"load (x fabric)", "procedure", "changes",
                        "downtime h", "delivered", "lost vs hitless"});
  const double fabric = topology.total_capacity().value / 2.0;
  for (double scale : {1.0, 1.5, 2.0}) {
    util::Rng demand_rng = util::Rng::stream(11, 0);  // == Rng(11)
    sim::GravityParams gravity;
    gravity.total = util::Gbps{fabric * scale};
    const auto demands = sim::gravity_matrix(topology, gravity, demand_rng);
    double hitless_delivered = 0.0;
    for (sim::CapacityPolicy policy :
         {sim::CapacityPolicy::kDynamicHitless,
          sim::CapacityPolicy::kDynamic}) {
      sim::SimulationConfig config;
      config.horizon = 1.0 * util::kDay;
      config.te_interval = 30.0 * util::kMinute;
      config.policy = policy;
      config.diurnal = true;
      config.seed = 2024;
      sim::WanSimulator simulator(topology, engine, config);
      const auto metrics = simulator.run(demands);
      if (policy == sim::CapacityPolicy::kDynamicHitless)
        hitless_delivered = metrics.delivered_gbps_hours;
      const double lost =
          hitless_delivered > 0.0
              ? 1.0 - metrics.delivered_gbps_hours / hitless_delivered
              : 0.0;
      rows.add_row(
          {util::format_double(scale, 1) + "x", sim::to_string(policy),
           std::to_string(metrics.upgrades + metrics.link_flaps +
                          metrics.restorations),
           util::format_double(metrics.reconfig_downtime_hours, 2),
           util::format_percent(metrics.delivered_fraction()),
           util::format_percent(lost)});
    }
  }
  rows.print(std::cout);

  // Consistent-update timeline of one real upgrade: the controller plans,
  // validates and executes the transition schedule (docs/UPDATE.md) and
  // the numbers below come from that execution — not a hand-rolled
  // single-upgrade makespan. Parked traffic is the volume the scheduler
  // had to force-churn (remove, wait out the reconfig, re-add), weighted
  // by how long it sat off the network.
  std::cout << "\nScheduled execution of one upgrade (A-B 100G -> 200G"
               " while carrying 90G):\n";
  for (bvt::Procedure procedure :
       {bvt::Procedure::kStandard, bvt::Procedure::kEfficient}) {
    graph::Graph base;
    const auto a = base.add_node("A");
    const auto b = base.add_node("B");
    base.add_edge(a, b, util::Gbps{100.0});
    core::ControllerOptions controller_options;
    controller_options.snr_margin = util::Db{0.0};
    update::SchedulerConfig stage;
    stage.procedure = procedure;
    stage.sampled_durations = false;  // expected downtimes: stable output
    controller_options.update = stage;
    core::DynamicCapacityController controller(
        base, optical::ModulationTable::standard(), engine,
        controller_options);
    const std::vector<util::Db> snr = {util::Db{16.0}};
    controller.run_round(snr, {{a, b, util::Gbps{90.0}, 0}});
    const auto round =
        controller.run_round(snr, {{a, b, util::Gbps{150.0}, 0}});
    if (!round.execution.has_value()) {
      std::cout << "  [" << bvt::to_string(procedure)
                << "] no valid transition schedule\n";
      continue;
    }
    const update::UpdateSchedule& schedule = *round.update;

    // Parked Gbps-s: per demand, volume removed in an early round times
    // the time until a later round re-adds it (churned kept paths).
    double parked_gbps_seconds = 0.0;
    std::map<std::size_t, std::pair<double, double>> pending;  // vol, t
    double clock = 0.0;
    for (const auto& update_round : schedule.rounds) {
      const double round_end = clock + update_round.duration_seconds;
      for (const auto& move : update_round.moves) {
        if (move.kind == update::Move::Kind::kRouteRemove) {
          auto& slot = pending[move.demand_index];
          slot.first += move.volume.value;
          slot.second = round_end;
        } else if (move.kind == update::Move::Kind::kRouteAdd) {
          auto it = pending.find(move.demand_index);
          if (it == pending.end()) continue;
          const double matched =
              std::min(it->second.first, move.volume.value);
          parked_gbps_seconds += matched * (round_end - it->second.second);
          it->second.first -= matched;
          if (it->second.first <= 0.0) pending.erase(it);
        }
      }
      clock = round_end;
    }

    std::cout << "  [" << bvt::to_string(procedure) << "] "
              << schedule.rounds.size() << " rounds, makespan "
              << util::format_double(round.execution->makespan_seconds, 3)
              << " s, forced churn " << schedule.forced_churn
              << ", parked traffic "
              << util::format_double(parked_gbps_seconds, 1)
              << " Gbps-s, timeline:\n";
    clock = 0.0;
    for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
      const auto& update_round = schedule.rounds[r];
      std::cout << "    round " << r << "  t="
                << util::format_double(clock, 3) << "s -> "
                << util::format_double(
                       clock + update_round.duration_seconds, 3)
                << "s:";
      for (const auto& move : update_round.moves) {
        if (move.kind == update::Move::Kind::kReconfig)
          std::cout << "  reconfig edge " << move.edge.value << " "
                    << util::format_double(move.from.value, 0) << "G -> "
                    << util::format_double(move.to.value, 0) << "G";
        else
          std::cout << "  "
                    << (move.kind == update::Move::Kind::kRouteRemove
                            ? "remove "
                            : "add ")
                    << util::format_double(move.volume.value, 0)
                    << "G of demand " << move.demand_index;
      }
      std::cout << '\n';
      clock += update_round.duration_seconds;
    }
  }

  std::cout << "\nShape to match the paper: with 68 s changes, every"
               " reconfiguration bites;\nat 35 ms the downtime cost is"
               " negligible, making frequent adaptation viable.\n";
  return 0;
}
