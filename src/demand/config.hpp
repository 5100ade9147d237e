// Configuration of the closed-loop demand estimation pipeline (rwc::demand).
//
// Every TE consumer (core controller, sim, replay, fleet, serve) carries a
// DemandConfig. With source == kOracle (the default) nothing changes: the
// controller consumes the demands it is handed, bit-for-bit, exactly as
// before the pipeline existed. With kEstimated the handed-in matrix becomes
// the OFFERED INTENT: the pipeline synthesizes per-link counters from it
// over the previously installed routing, corrupts them per the noise/loss/
// staleness knobs (and any armed `demand.counter` fault plan), infers an OD
// traffic matrix back from the counters, and the controller solves THAT.
// docs/DEMAND.md states the full contract.
#pragma once

#include <cstdint>

namespace rwc::demand {

enum class DemandSource {
  kOracle,     ///< consume handed-in demands directly (legacy behavior)
  kEstimated,  ///< infer demands from synthesized link counters
};

const char* to_string(DemandSource source);

struct DemandConfig {
  DemandSource source = DemandSource::kOracle;

  /// Relative stddev of the multiplicative counter noise (0 = byte-exact
  /// counters; 0.05 = 5% jitter). Applied per link per round from
  /// util::Rng::stream(seed, round), so synthesis is a pure function of
  /// (config, round) — independent of thread-pool size and call order.
  double noise = 0.0;
  /// Mean per-link packet loss probability; each link's per-round loss is
  /// drawn uniformly in [0, 2*loss_rate]. Losses surface as lost-packet
  /// counters, and the estimator divides them back out (loss-rate
  /// composition; a 100%-loss link becomes unobservable instead).
  double loss_rate = 0.0;
  /// Probability a link re-exports the previous interval's counters
  /// (collection staleness).
  double staleness = 0.0;
  /// Counter collection interval: the bytes<->Gbps conversion scale.
  double interval_seconds = 900.0;
  /// Stream family for the noise/loss/staleness draws.
  std::uint64_t seed = 1;
  /// Counter-log ring capacity in rounds (0 = no recording). The log is
  /// the replay contract's substrate: a faulted live run replays
  /// bit-identically from it (docs/DEMAND.md §5, tests/prop/prop_demand).
  std::size_t record_rounds = 0;

  bool estimated() const { return source == DemandSource::kEstimated; }

  friend bool operator==(const DemandConfig&, const DemandConfig&) = default;
};

}  // namespace rwc::demand
