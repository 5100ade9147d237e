#include "fleet/dataplane_sweep.hpp"

#include <algorithm>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rwc::fleet {

namespace {

struct Metrics {
  obs::Counter& instances;
  obs::Counter& failures;
  obs::Counter& capacity_violations;

  static Metrics& get() {
    static Metrics metrics{
        obs::Registry::global().counter("fleet.dataplane.instances"),
        obs::Registry::global().counter("fleet.dataplane.failures"),
        obs::Registry::global().counter(
            "fleet.dataplane.capacity_violations"),
    };
    return metrics;
  }
};

}  // namespace

DataplaneInstanceResult run_dataplane_instance(
    const DataplaneSweepConfig& config, std::size_t instance) {
  // The instance's oracle seed derives purely from (config.seed, id) —
  // neither shard assignment nor pool size can perturb its inputs.
  util::Rng rng = util::Rng::stream(config.seed, 900 + instance);
  dataplane::XcheckConfig xcheck = config.base;
  xcheck.seed = rng.next_u64();
  xcheck.engine = (instance % 2 == 0) ? dataplane::XcheckEngine::kMcf
                                      : dataplane::XcheckEngine::kSwan;
  xcheck.demand_aware = (instance / 2) % 2 == 1;
  xcheck.pool = config.pool;

  const dataplane::XcheckOutcome outcome = dataplane::run_xcheck(xcheck);
  DataplaneInstanceResult result;
  result.pass = outcome.pass;
  result.failure = outcome.failure;
  result.chain = outcome.chain;
  result.max_shortfall = outcome.max_shortfall;
  result.max_overshoot = outcome.max_overshoot;
  result.capacity_violations = outcome.capacity_violations;
  result.migrations = outcome.migrations;
  return result;
}

DataplaneSweepResult run_dataplane_sweep(const DataplaneSweepConfig& config) {
  RWC_CHECK_MSG(config.instances > 0,
                "run_dataplane_sweep: at least one instance");
  exec::ThreadPool& pool =
      config.pool != nullptr ? *config.pool : exec::ThreadPool::global();
  const std::size_t shards =
      std::clamp<std::size_t>(config.shards, 1, config.instances);

  DataplaneSweepResult result;
  result.instances.resize(config.instances);

  // Shard s owns the contiguous instance block [begin, end): shards run
  // concurrently, each runs its instances sequentially into id-indexed
  // slots. The nested xcheck shares the sweep pool (exec::parallel_for
  // re-entry runs inline on worker threads).
  const std::size_t base = config.instances / shards;
  const std::size_t extra = config.instances % shards;
  exec::parallel_for(pool, shards, [&](std::size_t shard) {
    const std::size_t begin = shard * base + std::min(shard, extra);
    const std::size_t end = begin + base + (shard < extra ? 1 : 0);
    for (std::size_t id = begin; id < end; ++id)
      result.instances[id] = run_dataplane_instance(config, id);
  });

  // Serial fold in instance-id order.
  std::uint64_t chain = 0x64617461706c616eull;  // "dataplan"
  for (const DataplaneInstanceResult& instance : result.instances) {
    chain = util::combine64(chain, instance.chain);
    if (!instance.pass) {
      if (result.first_failure.empty()) result.first_failure =
          instance.failure;
      ++result.failed_instances;
    }
    result.max_shortfall =
        std::max(result.max_shortfall, instance.max_shortfall);
    result.max_overshoot =
        std::max(result.max_overshoot, instance.max_overshoot);
    result.capacity_violations += instance.capacity_violations;
  }
  result.sweep_chain = chain;

  Metrics& metrics = Metrics::get();
  metrics.instances.add(config.instances);
  metrics.failures.add(result.failed_instances);
  metrics.capacity_violations.add(result.capacity_violations);
  return result;
}

}  // namespace rwc::fleet
