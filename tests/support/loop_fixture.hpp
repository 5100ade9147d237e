// The closed-loop fixture of the benchmark's loop_dataplane workload
// (perfbench/loop_dataplane.cpp): a 12-node Waxman WAN with gravity intent
// at 0.4 load snapped to the estimator's grid, the benchmark's SNR walk
// with recovery fronts, and its round fold. loop_chain steps a
// dataplane::ClosedLoop over it in estimated-demand mode for kRounds
// rounds, so the golden loop rows (tests/golden/round-chains.golden)
// compare bit for bit with the `loop chain` the benchmark prints for the
// same seed. bench/perf_solvers' BM_ClosedLoopRound times the same loop.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "dataplane/loop.hpp"
#include "demand/estimator.hpp"
#include "graph/graph.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/demand.hpp"
#include "te/mcf_te.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rwc::loop_fixture {

/// Rounds of one benchmark pass: the cold first round and 32 more.
inline constexpr std::size_t kRounds = 33;
/// Rounds between recovery fronts of the SNR walk.
inline constexpr std::size_t kFrontPeriod = 4;
/// Start of the round fold ("loop").
inline constexpr std::uint64_t kChainSeed = 0x6c6f6f70ull;

struct Fixture {
  graph::Graph topology;
  te::TrafficMatrix intent;
};

/// The benchmark's fixture at `nodes` nodes (12 is the benchmark's own).
inline Fixture make_fixture(int nodes = 12) {
  util::Rng rng = util::Rng::stream(20171130, 0x4c4f4f50);
  Fixture fixture{sim::waxman(nodes, rng), {}};
  sim::GravityParams gravity;
  gravity.total = util::Gbps{fixture.topology.total_capacity().value * 0.4};
  fixture.intent = sim::gravity_matrix(fixture.topology, gravity, rng);
  // Snapped to the estimator's grid, as the benchmark does.
  for (te::Demand& demand : fixture.intent)
    demand.volume = util::Gbps{demand::snap_to_grid(demand.volume.value)};
  return fixture;
}

/// The benchmark's SNR walk, pure in (seed, round): every link steps
/// uniformly within +-3 dB, clamped to [8, 24] dB, and every
/// kFrontPeriod-th round a recovery front lifts a random quarter of the
/// links to 24 dB.
class SnrWalk {
 public:
  SnrWalk(std::size_t edges, std::uint64_t seed)
      : snr_(edges, util::Db{20.0}), seed_(seed) {}

  /// The next round's per-link SNR.
  std::span<const util::Db> next() {
    util::Rng rng = util::Rng::stream(seed_, 0x10000 + round_);
    for (util::Db& snr : snr_)
      snr = util::Db{
          std::clamp(snr.value + rng.uniform(-3.0, 3.0), 8.0, 24.0)};
    if (round_ % kFrontPeriod == kFrontPeriod - 1)
      for (std::size_t lifted = 0; lifted < snr_.size() / 4; ++lifted)
        snr_[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(snr_.size()) - 1))] = util::Db{24.0};
    ++round_;
    return snr_;
  }

 private:
  std::vector<util::Db> snr_;
  std::uint64_t seed_;
  std::size_t round_ = 0;
};

/// One round's contribution to the benchmark's loop chain.
inline std::uint64_t fold_round(std::uint64_t chain,
                                std::uint64_t dataplane_signature,
                                util::Gbps total_routed,
                                std::size_t upgrades) {
  chain = util::mix64(chain, dataplane_signature);
  chain = util::mix64(chain, std::bit_cast<std::uint64_t>(total_routed.value));
  return util::mix64(chain, upgrades);
}

/// The benchmark loop's controller options at `seed`: estimated demand
/// and the update stage at 10% headroom, on `pool` (nullptr: the global
/// pool).
inline core::ControllerOptions loop_options(std::uint64_t seed,
                                            exec::ThreadPool* pool) {
  core::ControllerOptions options;
  options.pool = pool;
  options.demand.source = demand::DemandSource::kEstimated;
  update::SchedulerConfig update;
  update.headroom = 0.1;
  update.seed = seed;
  options.update = update;
  return options;
}

/// The chain of kRounds loop rounds at `seed`. With `restore`, the loop is
/// saved before every round and restored into a fresh loop that runs it.
inline std::uint64_t loop_chain(std::uint64_t seed,
                                exec::ThreadPool* pool = nullptr,
                                bool restore = false) {
  const Fixture fixture = make_fixture();
  const te::McfTe engine;
  const core::ControllerOptions options = loop_options(seed, pool);
  std::optional<dataplane::ClosedLoop> loop;
  loop.emplace(fixture.topology, fixture.intent, engine, options);
  SnrWalk walk(fixture.topology.edge_count(), seed);
  std::uint64_t chain = kChainSeed;
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (restore) {
      dataplane::ClosedLoop::State state = loop->save_state();
      loop.emplace(fixture.topology, fixture.intent, engine, options);
      loop->restore_state(std::move(state));
    }
    const dataplane::ClosedLoop::Round round = loop->step(walk.next());
    chain = fold_round(chain, round.result.signature,
                       round.report.total_routed,
                       round.report.plan.upgrades.size());
  }
  return chain;
}

}  // namespace rwc::loop_fixture
