#include "fleet/fleet.hpp"

#include <algorithm>
#include <filesystem>
#include <span>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "optical/modulation.hpp"
#include "replay/driver.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rwc::fleet {

using util::mix64;

namespace {

/// Handles into the global registry (docs/OBSERVABILITY.md: fleet.*).
struct FleetMetrics {
  obs::Counter& runs;
  obs::Counter& instances;
  obs::Counter& rounds;
  obs::Counter& incremental_hits;
  obs::Counter& partial_rounds;
  obs::Counter& failure_events;
  obs::Counter& crawl_retained;
  obs::Gauge& hit_rate;
  obs::Histogram& run_seconds;

  static FleetMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static FleetMetrics metrics{
        registry.counter("fleet.runs"),
        registry.counter("fleet.instances"),
        registry.counter("fleet.rounds"),
        registry.counter("fleet.incremental_hits"),
        registry.counter("fleet.partial_rounds"),
        registry.counter("fleet.failure_events"),
        registry.counter("fleet.crawl_retained"),
        registry.gauge("fleet.incremental_hit_rate"),
        registry.histogram("fleet.run.seconds"),
    };
    return metrics;
  }
};

/// Crawl rate: the ladder's lowest format (50 G), the §2.2 availability
/// floor.
double crawl_gbps() {
  static const double rate =
      optical::ModulationTable::standard().min_capacity().value;
  return rate;
}

}  // namespace

InstanceResult run_instance(const FleetConfig& config, std::size_t instance) {
  RWC_EXPECTS(instance < config.instances);
  RWC_EXPECTS(config.min_nodes >= 4 && config.max_nodes >= config.min_nodes);
  RWC_EXPECTS(config.rounds > 0);

  // Everything below is a pure function of (config.seed, instance): two
  // disjoint Rng streams per instance (structure, trace seed), so neither
  // shard assignment nor pool size can perturb an instance's inputs.
  // Stream ids start at 1: stream 0 is the root stream reserved for
  // callers that still use Rng(seed) directly.
  util::Rng structure_rng =
      util::Rng::stream(config.seed, 2 * instance + 1);
  const int nodes = config.min_nodes +
                    static_cast<int>(structure_rng.uniform_int(
                        0, config.max_nodes - config.min_nodes));
  graph::Graph topology = sim::waxman(nodes, structure_rng);
  sim::GravityParams gravity;
  gravity.total =
      util::Gbps{topology.total_capacity().value * config.demand_load};
  const te::TrafficMatrix demands =
      sim::gravity_matrix(topology, gravity, structure_rng);
  const std::uint64_t trace_seed =
      util::Rng::stream(config.seed, 2 * instance + 2).next_u64();

  replay::ReplayConfig replay_config;
  replay_config.rounds = config.rounds;
  replay_config.snr_margin = config.snr_margin;
  replay_config.diurnal = config.diurnal;
  replay_config.snr_model = config.snr_model;
  replay_config.seed = trace_seed;
  replay_config.chunk_rounds = config.chunk_rounds;
  replay_config.hysteresis = config.hysteresis;
  replay_config.incremental = config.incremental;
  replay_config.checkpoint_every = config.checkpoint_every;
  // The driver's nested parallelism runs inline on a worker thread of the
  // same pool (exec::parallel_for re-entry rule), so sharing the fleet
  // pool is deadlock-free and deterministic.
  replay_config.pool = config.pool;
  replay_config.demand = config.demand;
  // Per-instance counter stream: derive the pipeline seed from the
  // instance's trace seed so counter noise is independent across
  // instances yet pure in (config, instance id).
  if (config.demand.estimated())
    replay_config.demand.seed = config.demand.seed ^ trace_seed;

  // Engines are per-instance: their prefix traces and LP memo never alias
  // across instances (and both are timing-only anyway).
  te::McfTe::Options mcf_options;
  mcf_options.prefix_reuse = config.partial;
  te::SwanTe::Options swan_options;
  swan_options.lp_memo = config.partial;
  te::McfTe mcf(mcf_options);
  te::SwanTe swan(swan_options);
  const te::TeAlgorithm& engine =
      config.engine == EngineKind::kMcf
          ? static_cast<const te::TeAlgorithm&>(mcf)
          : static_cast<const te::TeAlgorithm&>(swan);

  replay::ReplayDriver driver(topology, engine, demands, replay_config);

  std::optional<replay::CheckpointStore> store;
  if (!config.checkpoint_dir.empty() && config.checkpoint_every > 0) {
    store.emplace(std::filesystem::path(config.checkpoint_dir) /
                  ("instance-" + std::to_string(instance)));
    driver.attach_store(&*store);
  }

  InstanceResult result;
  const std::size_t edges = topology.edge_count();
  result.link_capability_gbps.assign(edges, 0.0);
  result.link_nominal_gbps.resize(edges);
  for (graph::EdgeId edge : topology.edge_ids())
    result.link_nominal_gbps[static_cast<std::size_t>(edge.value)] =
        topology.edge(edge).capacity.value;

  // Deployment-study aggregation over the round stream: per-link
  // capability (best ladder rate the raw SNR supported) and failure
  // episodes (maximal runs of rounds with feasible < nominal), classified
  // by whether the link ever lost crawl capacity during the episode.
  const optical::ModulationTable table = optical::ModulationTable::standard();
  std::vector<char> in_episode(edges, 0);
  std::vector<double> episode_min(edges, 0.0);
  const auto close_episode = [&](std::size_t e) {
    in_episode[e] = 0;
    ++result.failure_events;
    if (episode_min[e] >= crawl_gbps()) ++result.crawl_retained_events;
  };
  driver.set_round_observer(
      [&](std::uint64_t, std::span<const util::Db> snr,
          const core::DynamicCapacityController::RoundReport& report) {
        if (report.stats.incremental_hit) ++result.incremental_hits;
        if (report.stats.partial_resolve) ++result.partial_rounds;
        for (std::size_t e = 0; e < edges; ++e) {
          const double feasible =
              table.feasible_capacity(snr[e], config.snr_margin).value;
          result.link_capability_gbps[e] =
              std::max(result.link_capability_gbps[e], feasible);
          if (feasible < result.link_nominal_gbps[e]) {
            if (!in_episode[e]) {
              in_episode[e] = 1;
              episode_min[e] = feasible;
            } else {
              episode_min[e] = std::min(episode_min[e], feasible);
            }
          } else if (in_episode[e]) {
            close_episode(e);
          }
        }
      });

  result.metrics = driver.run();
  for (std::size_t e = 0; e < edges; ++e)
    if (in_episode[e]) close_episode(e);
  result.signature_chain = driver.signature_chain();
  result.rounds = config.rounds;
  return result;
}

FleetResult run_fleet(const FleetConfig& config) {
  RWC_EXPECTS(config.instances > 0);
  const obs::StopWatch watch;
  exec::ThreadPool& pool =
      config.pool != nullptr ? *config.pool : exec::ThreadPool::global();
  const std::size_t shards =
      std::clamp<std::size_t>(config.shards, 1, config.instances);

  FleetResult result;
  result.instances.resize(config.instances);

  // Shard s owns the contiguous instance block [begin, end): a shard runs
  // its instances sequentially (one live driver per shard bounds memory);
  // results land in id-indexed slots, so the partition is irrelevant to
  // the outcome — only to the schedule.
  const std::size_t base = config.instances / shards;
  const std::size_t extra = config.instances % shards;
  exec::parallel_for(pool, shards, [&](std::size_t shard) {
    const std::size_t begin = shard * base + std::min(shard, extra);
    const std::size_t end = begin + base + (shard < extra ? 1 : 0);
    for (std::size_t i = begin; i < end; ++i)
      result.instances[i] = run_instance(config, i);
  });

  // Serial fold in instance-id order: the fleet chain is a deterministic
  // reduction of the per-instance chains.
  std::uint64_t chain = 0xcbf29ce484222325ULL;
  for (const InstanceResult& instance : result.instances) {
    chain = mix64(chain, instance.signature_chain);
    result.total_rounds += instance.rounds;
    result.incremental_hits += instance.incremental_hits;
    result.partial_rounds += instance.partial_rounds;
    result.failure_events += instance.failure_events;
    result.crawl_retained_events += instance.crawl_retained_events;
  }
  result.fleet_chain = chain;

  auto& metrics = FleetMetrics::instance();
  metrics.runs.add();
  metrics.instances.add(config.instances);
  metrics.rounds.add(result.total_rounds);
  metrics.incremental_hits.add(result.incremental_hits);
  metrics.partial_rounds.add(result.partial_rounds);
  metrics.failure_events.add(result.failure_events);
  metrics.crawl_retained.add(result.crawl_retained_events);
  metrics.hit_rate.set(result.incremental_hit_rate());
  metrics.run_seconds.observe(watch.seconds());
  return result;
}

}  // namespace rwc::fleet
