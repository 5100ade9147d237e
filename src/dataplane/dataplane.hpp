// Deterministic discrete-event flowlet dataplane (rwc::dataplane) —
// docs/DATAPLANE.md is the contract.
//
// The flow-level solvers *promise* rates; this module checks the promise
// against a dataplane that actually moves bytes. Each controller round the
// simulator installs the round's FlowAssignment as WCMP flowlet tables
// (dataplane/wcmp.hpp), drives per-link fluid FIFO queues from the round's
// CapacityTimeline (dataplane/timeline.hpp — mid-round BVT downshifts and
// reconfig dark windows included), and runs an HPCC-style end-host rate
// controller per flowlet: sources shape to their allocated share, cut
// multiplicatively when a path link's utilization exceeds the target, and
// recover additively.
//
// The flowlets of one OD whose WCMP pick is one path form that (OD, path)
// class, simulated once: its members share one rate and one injection
// carry, and its hop queues, arrivals and deferred quanta are totals over
// them, as is each OD's byte ledger. A class never splits; install only
// moves members between classes, and a class that loses every member
// hands its in-flight quanta to its OD's draining pipelines. Each tick
// walks every hop once, and once more when some link's arrivals overflow
// its free buffer:
//
//   sweep 1   rate control + injection per class (`dataplane.packet`
//             faults fire here, one draw per member); each link's
//             arrivals are kept up to date as sources inject and hops
//             forward;
//   links     a link whose free buffer holds all of its arrivals takes
//             them into its queue total; a link short of room lands its
//             hops one by one in a pre-pass, each admitted in
//             proportion; then the service ratio min(1, cap / queued)
//             and the next tick's utilization signal;
//   service   every hop, each path from its last hop to its first: its
//             arrivals land, proportional service, store-and-forward to
//             the next hop, delivery credited to the OD, per-OD
//             accounting; drained-pipeline retirement;
//   audit     per-link serviced and queued totals, capacity safety.
//
// Walking a path backwards means a hop forwards into a hop that has
// already landed and served this tick, so the grant lands next tick.
//
// Every byte quantity is a whole number of quanta (kQuantaPerByte per
// byte): injection rounds down and carries its sub-quantum remainder per
// member, and service and buffer admission grant each hop floor(its
// quanta * the link's ratio). Byte sums are therefore exact, and no step
// depends on the order in which the passes visit classes or hops. The
// test-only reference kernel in tests/support/path_reference.hpp runs
// the same model with the plain three-pass tick, and the two agree bit
// for bit. No RNG runs in the tick loop: randomness is hashing
// (wcmp.hpp), so determinism needs no stream bookkeeping.
// save_state()/restore_state() capture everything that carries across
// rounds as a typed State (part of ClosedLoop::State, docs/DATAPLANE.md
// §8): restore-then-continue is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/timeline.hpp"
#include "graph/graph.hpp"
#include "te/demand.hpp"

namespace rwc::exec {
class ThreadPool;
}

namespace rwc::dataplane {

/// The dataplane's byte unit is the quantum, 1/kQuantaPerByte byte. A
/// saturated link grants each hop floor(queued * cap / total) quanta and
/// keeps the remainders queued; at whole bytes those remainders put a
/// clean round's per-link counters about 1e-6 off their analytic rates,
/// the counter source's reconciliation tolerance (docs/DATAPLANE.md §6).
inline constexpr std::uint64_t kQuantaPerByte = 256;

struct DataplaneConfig {
  /// Tick length. 5 ms resolves the 35 ms hitless reconfig windows.
  double tick_seconds = 0.005;
  /// Ticks per controller round. Power of two; >= 8.
  std::size_t ticks_per_round = 256;
  /// Flowlets (hash units) per OD pair. Power of two so the per-flowlet
  /// share volume/F and its re-aggregation are exact in binary floating
  /// point — what lets the demand counter source certify exact recovery
  /// (docs/DATAPLANE.md §6).
  std::size_t flowlets_per_od = 32;
  /// Per-link buffer: capacity * buffer_ms of bytes; arrivals beyond the
  /// free buffer are dropped in proportion (docs/DATAPLANE.md §2).
  double buffer_ms = 25.0;
  /// Dark links still buffer this much Gbps-worth so in-flight bytes can
  /// survive a reconfig window instead of being dropped wholesale.
  double min_buffer_gbps = 1.0;
  /// HPCC-style utilization target eta: a flowlet cuts its rate
  /// multiplicatively while some path link's standing queue exceeds
  /// 1/eta ticks' worth of service (util == 1 is the steady state of a
  /// fully-allocated link, not congestion), and recovers additively
  /// toward its allocated share below that margin.
  double target_utilization = 0.95;
  /// Additive recovery per tick as a fraction of the flowlet's allocated
  /// rate.
  double additive_increase = 0.05;
  /// Flowlet hash family (per-run WCMP salt).
  std::uint64_t hash_salt = 0x52574321ull;
  /// Ignored: the tick loop runs inline on the calling thread, because
  /// per-tick pool dispatch cost more than the work it split
  /// (docs/DATAPLANE.md §2). Kept so existing callers that set it still
  /// compile.
  exec::ThreadPool* pool = nullptr;

  friend bool operator==(const DataplaneConfig&,
                         const DataplaneConfig&) = default;
};

/// Per directed link, per round, in quanta (kQuantaPerByte per byte).
struct LinkRoundStats {
  std::uint64_t serviced_bytes = 0;    ///< what the link transmitted
  std::uint64_t dropped_bytes = 0;     ///< dropped at this link's buffer
  std::uint64_t max_queued_bytes = 0;  ///< peak buffer occupancy
  /// Serviced bytes and drops restricted to the measurement ticks
  /// (outside every update window), for the counter source.
  std::uint64_t measured_bytes = 0;
  std::uint64_t measured_dropped_bytes = 0;
};

/// What one dataplane round produced. Everything is a pure function of
/// (installed assignment, timeline, carried-over state, armed fault plan).
/// Every `*_bytes` figure counts quanta (kQuantaPerByte per byte).
struct RoundResult {
  /// Per OD: goodput over the measurement ticks (after the last update
  /// window; at least the trailing half of the round), Gbps.
  std::vector<double> od_goodput_gbps;
  /// Per OD: bytes delivered across the whole round.
  std::vector<std::uint64_t> od_delivered_bytes;
  std::vector<LinkRoundStats> links;
  /// Per (link, od) delivered bytes over the measurement ticks, dense
  /// row-major [link * ods + od] — the counter source's raw material.
  std::vector<std::uint64_t> link_od_measured_bytes;
  /// Measurement region [measure_begin, ticks) and its length in seconds.
  std::uint32_t measure_begin = 0;
  double measure_seconds = 0.0;

  std::uint64_t migrations = 0;  ///< flowlets whose WCMP pick moved
  std::uint64_t rate_cuts = 0;   ///< multiplicative-decrease events
  /// Ticks on which some link transmitted beyond its timeline capacity,
  /// split by scheduled-window membership. The proportional-service
  /// discipline makes both 0 by construction; the oracle *measures* them
  /// rather than assuming.
  std::uint64_t capacity_violations = 0;
  std::uint64_t window_violations = 0;

  /// Cumulative ledger since construction (carried through checkpoints).
  /// Conservation holds exactly: injected == delivered + dropped +
  /// inflight.
  std::uint64_t injected_bytes = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dropped_bytes = 0;
  /// Bytes still queued, arriving, deferred or parked at round end.
  std::uint64_t inflight_bytes = 0;

  /// Fold of the full post-round state (state_signature()): two runs
  /// agree on a round iff the signatures and the per-OD goodputs agree.
  std::uint64_t signature = 0;
};

class DataplaneSim {
 public:
  /// One OD's cumulative ledger, in quanta.
  struct Ledger {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;

    friend bool operator==(const Ledger&, const Ledger&) = default;
  };

  /// Everything that carries across rounds. The defaulted == compares
  /// doubles by value, not bitwise; state_signature() is the bitwise
  /// comparison.
  struct State {
    struct Hop {
      std::int32_t edge = -1;
      std::uint64_t queued = 0;    ///< quanta awaiting service
      std::uint64_t arriving = 0;  ///< quanta landing next tick

      friend bool operator==(const Hop&, const Hop&) = default;
    };
    struct Pipeline {
      std::uint64_t path_id = 0;  ///< wcmp::path_identity (0 = none)
      std::vector<Hop> hops;

      friend bool operator==(const Pipeline&, const Pipeline&) = default;
    };
    /// The flowlets of one OD whose pick is `active.path_id`. Rates and
    /// carry are each member's; deferred and the hops are totals.
    struct Class {
      std::uint32_t od = 0;
      double offered_gbps = 0.0;
      double rate_gbps = 0.0;
      double carry = 0.0;
      std::uint64_t deferred = 0;
      Pipeline active;

      friend bool operator==(const Class&, const Class&) = default;
    };
    struct Od {
      /// Pre-migration paths still flushing, one per path.
      std::vector<Pipeline> draining;
      /// Deferred quanta of classes that lost every member while the OD
      /// had no class to take them.
      std::uint64_t parked = 0;
      Ledger ledger;

      friend bool operator==(const Od&, const Od&) = default;
    };

    std::uint64_t round = 0;
    /// ods * flowlets_per_od, in flowlet order: the path identity of the
    /// flowlet's class (0 = none).
    std::vector<std::uint64_t> picks;
    /// Grouped by OD, ascending; at most one per (OD, path).
    std::vector<Class> classes;
    /// Per OD.
    std::vector<Od> ods;
    /// Per link: the utilization signal the next tick's rate control
    /// reads.
    std::vector<double> link_util;

    friend bool operator==(const State&, const State&) = default;
  };

  /// `ods` fixes the OD-slot count for the simulator's lifetime: round
  /// assignments must carry exactly this many routings (the controller's
  /// TrafficMatrix order). Flowlet state persists across rounds.
  DataplaneSim(const graph::Graph& topology, std::size_t ods,
               DataplaneConfig config);

  /// Installs `assignment` (WCMP re-split; pre-migration paths keep
  /// draining) and runs one round against `timeline`. The timeline must
  /// cover this topology's edges and use the config's tick geometry.
  RoundResult run_round(const te::FlowAssignment& assignment,
                        const CapacityTimeline& timeline);

  /// The evolving state (carried by ClosedLoop::State).
  State save_state() const;
  /// Restores a save_state() of a sim of the same shape. Throws
  /// util::CheckError, with the sim untouched, on anything run_round
  /// would misuse: a flowlet, OD or link count that does not fit, a
  /// class out of OD order or outside the ODs, two classes on one path,
  /// a class without a path or without a member, a pick that names no
  /// class of its OD, a hop edge outside the topology, a rate that is
  /// negative or not finite, a carry outside [0, 1), or a quanta count
  /// or per-link queued total of 2^53 or more.
  void restore_state(const State& state);

  /// Fold of the live state — equal iff the saved states are
  /// bitwise-equal.
  std::uint64_t state_signature() const;

  std::uint64_t rounds() const { return round_; }
  const DataplaneConfig& config() const { return config_; }
  std::size_t ods() const { return ods_; }
  std::size_t edge_count() const { return edge_count_; }

 private:
  struct Hop {
    std::int32_t edge = -1;
    /// Owning OD, and whether this hop ends its path (it delivers
    /// instead of forwarding), so a sweep over hops needs no per-path
    /// loop. Derived from the layout; not part of the saved state.
    std::uint32_t od : 31 = 0;
    std::uint32_t last : 1 = 0;
    /// Totals over the pipeline's flowlets, in quanta.
    std::uint64_t queued = 0;    ///< awaiting service
    std::uint64_t arriving = 0;  ///< store-and-forward: lands next tick
  };

  /// A pre-migration path still flushing its in-flight quanta.
  struct Pipeline {
    std::vector<Hop> hops;
    std::uint64_t path_id = 0;  ///< wcmp::path_identity of the edge seq
  };

  /// The flowlets of one OD whose WCMP pick is one path.
  struct PathClass {
    std::uint32_t od = 0;
    /// Active path: hops_[hops_begin, hops_end).
    std::uint32_t hops_begin = 0;
    std::uint32_t hops_end = 0;
    std::uint64_t path_id = 0;  ///< active path identity
    double offered_gbps = 0.0;  ///< each member's allocated share
    double rate_gbps = 0.0;     ///< each member's HPCC-controlled rate
    /// Each member's sub-quantum injection remainder in [0, 1): what
    /// rate * tick generated beyond the whole quanta injected so far.
    double carry = 0.0;
    std::uint64_t deferred = 0;  ///< total parked by kDelay faults
    /// Flowlet indices, ascending; their count is the multiplicity.
    std::vector<std::uint32_t> members;
  };

  static std::uint64_t inflight(std::span<const Hop> hops) {
    std::uint64_t total = 0;
    for (const Hop& hop : hops) total += hop.queued + hop.arriving;
    return total;
  }

  std::span<const Hop> active_hops(const PathClass& cls) const {
    return {hops_.data() + cls.hops_begin, hops_.data() + cls.hops_end};
  }

  void install(const te::FlowAssignment& assignment, RoundResult& result);
  /// Hands a pipeline's in-flight quanta to OD `od`'s draining pipeline
  /// on the same path, or to a new one.
  void retire(std::uint32_t od, std::uint64_t path_id,
              std::span<const Hop> hops);

  DataplaneConfig config_;
  std::size_t edge_count_ = 0;
  std::size_t ods_ = 0;
  std::uint64_t round_ = 0;
  /// Per flowlet (ods * flowlets_per_od, fixed order): the path identity
  /// of its class, 0 when it has none.
  std::vector<std::uint64_t> picks_;
  /// Grouped by OD, ascending.
  std::vector<PathClass> classes_;
  /// Every class's active-path hops, contiguous in class order.
  std::vector<Hop> hops_;
  /// Per OD: cumulative ledger, draining pipelines and parked quanta.
  std::vector<Ledger> ledgers_;
  std::vector<std::vector<Pipeline>> draining_;
  std::vector<std::uint64_t> parked_;
  /// Per link: live queued total over every hop (maintained by the tick
  /// loop, rebuilt by restore_state).
  std::vector<std::uint64_t> link_queued_;
  /// Per link: previous tick's utilization signal for rate control.
  std::vector<double> link_util_;
};

}  // namespace rwc::dataplane
