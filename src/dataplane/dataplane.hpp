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
// recover additively. Each tick walks every hop once, and once more when
// some link's arrivals overflow its free buffer:
//
//   sweep 1   rate control + injection per flowlet (`dataplane.packet`
//             faults fire here); each link's arrivals are kept up to
//             date as sources inject and hops forward;
//   links     a link whose free buffer holds all of its arrivals takes
//             them into its queue total; a link short of room lands its
//             hops one by one in a pre-pass, each admitted in
//             proportion; then the service ratio min(1, cap / queued)
//             and the next tick's utilization signal;
//   service   every hop, each path from its last hop to its first: its
//             arrivals land, proportional service, store-and-forward to
//             the next hop, delivery credited, per-OD accounting, the
//             next tick's per-path utilization; drained-pipeline
//             retirement;
//   audit     per-link serviced and queued totals, capacity safety.
//
// Walking a path backwards means a hop forwards into a hop that has
// already landed and served this tick, so the grant lands next tick.
//
// Every byte quantity is a whole number of quanta (kQuantaPerByte per
// byte): injection rounds down and carries its sub-quantum remainder per
// flowlet, and service and buffer admission grant each hop floor(its
// quanta * the link's ratio). Byte sums are therefore exact, and no step
// depends on the order in which the passes visit flowlets or hops.
//
// That is what lets the simulator run each distinct flowlet state once:
// flowlets of one OD whose state is bit-equal form a class, simulated as
// one flowlet, and every per-link and per-OD amount is the class's
// multiplicity times its member's. A class splits when an event treats
// its members differently (a `dataplane.packet` fault, a WCMP move) and
// bit-equal members merge at install and restore. Results, signatures
// and the saved state stay per flowlet, bit-identical to the per-flowlet
// reference kernel in tests/support/flowlet_reference.hpp. No RNG runs in
// the tick loop: randomness is hashing (wcmp.hpp), so determinism needs
// no stream bookkeeping. save_state()/restore_state() capture everything
// that carries across rounds as a typed State (part of ClosedLoop::State,
// docs/DATAPLANE.md §8): restore-then-continue is bit-identical.
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
  /// Bytes still queued/arriving/deferred at round end.
  std::uint64_t inflight_bytes = 0;

  /// Fold of the full post-round flowlet/queue state (bitwise): two runs
  /// agree on a round iff the signatures and the per-OD goodputs agree.
  std::uint64_t signature = 0;
};

class DataplaneSim {
 public:
  /// One flowlet's cumulative ledger, in quanta.
  struct Ledger {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;

    friend bool operator==(const Ledger&, const Ledger&) = default;
  };

  /// Everything that carries across rounds, one record per flowlet
  /// whatever class it runs in. The defaulted == compares doubles by
  /// value, not bitwise; state_signature() is the bitwise comparison.
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
    struct Flowlet {
      std::uint32_t od = 0;
      double offered_gbps = 0.0;
      double rate_gbps = 0.0;
      double carry = 0.0;
      std::uint64_t deferred = 0;
      Ledger ledger;
      Pipeline active;
      std::vector<Pipeline> draining;

      friend bool operator==(const Flowlet&, const Flowlet&) = default;
    };

    std::uint64_t round = 0;
    /// ods * flowlets_per_od, in flowlet order.
    std::vector<Flowlet> flowlets;
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
  /// would misuse: a flowlet or link count that does not fit, a flowlet
  /// under the wrong OD, a hop edge outside the topology, a rate that is
  /// negative or not finite, a carry outside [0, 1), or a quanta count
  /// or per-link queued total of 2^53 or more.
  void restore_state(const State& state);

  /// Fold of the live flowlet/queue state — equal iff bitwise-equal.
  std::uint64_t state_signature() const;

  std::uint64_t rounds() const { return round_; }
  const DataplaneConfig& config() const { return config_; }
  std::size_t ods() const { return ods_; }
  std::size_t edge_count() const { return edge_count_; }

 private:
  struct Hop {
    std::int32_t edge = -1;
    /// Owning class, and whether this hop ends its path (it delivers
    /// instead of forwarding), so a sweep over hops needs no per-path
    /// loop. Derived from the layout; not part of the saved state.
    std::uint32_t cls : 31 = 0;
    std::uint32_t last : 1 = 0;
    /// Per member of the class, in quanta.
    std::uint64_t queued = 0;    ///< awaiting service
    std::uint64_t arriving = 0;  ///< store-and-forward: lands next tick
  };

  /// A pre-migration path still flushing its in-flight quanta.
  struct Pipeline {
    std::vector<Hop> hops;
    std::uint64_t path_id = 0;  ///< wcmp::path_identity of the edge seq
  };

  /// Flowlets of one OD with bit-equal state, simulated once. The state
  /// fields are each member's; the members' ledgers stay in ledgers_.
  struct FlowletClass {
    std::uint32_t od = 0;
    /// Active path: hops_[hops_begin, hops_end), rebuilt by layout().
    std::uint32_t hops_begin = 0;
    std::uint32_t hops_end = 0;
    std::uint64_t path_id = 0;  ///< active path identity (0 = none)
    double offered_gbps = 0.0;  ///< allocated share (rate ceiling)
    double rate_gbps = 0.0;     ///< HPCC-controlled current rate
    /// Sub-quantum injection remainder in [0, 1): what rate * tick
    /// generated beyond the whole quanta injected so far.
    double carry = 0.0;
    std::uint64_t deferred = 0;  ///< kDelay faults park quanta here
    std::vector<Pipeline> draining;  ///< pre-migration paths, flushing
    /// Flowlet indices, ascending; their count is the multiplicity.
    std::vector<std::uint32_t> members;
    /// Each member's ledger growth this round, folded into ledgers_ when
    /// the round ends, and its deliveries this round: in the measurement
    /// region and in total.
    Ledger pending;
    std::uint64_t measured = 0;
    std::uint64_t round_delivered = 0;
  };

  /// A class being rebuilt by install() or restore_state(), with its
  /// active hops held apart until layout() packs them into hops_.
  struct Draft;

  static std::uint64_t inflight(std::span<const Hop> hops) {
    std::uint64_t total = 0;
    for (const Hop& hop : hops) total += hop.queued + hop.arriving;
    return total;
  }

  std::span<const Hop> active_hops(const FlowletClass& cls) const {
    return {hops_.data() + cls.hops_begin, hops_.data() + cls.hops_end};
  }

  void install(const te::FlowAssignment& assignment, RoundResult& result);
  /// Merges each OD's bit-equal drafts and lays the survivors out as
  /// classes_, hops_ and class_of_.
  void layout(std::vector<Draft>& drafts);

  DataplaneConfig config_;
  std::size_t edge_count_ = 0;
  std::size_t ods_ = 0;
  std::uint64_t round_ = 0;
  std::vector<FlowletClass> classes_;
  /// Per flowlet (ods * flowlets_per_od, fixed order): its class and its
  /// cumulative ledger.
  std::vector<std::uint32_t> class_of_;
  std::vector<Ledger> ledgers_;
  /// Every class's active-path hops, contiguous in class order.
  std::vector<Hop> hops_;
  /// Per link: live queued total over every flowlet's hops (maintained
  /// by the tick loop, rebuilt by restore_state).
  std::vector<std::uint64_t> link_queued_;
  /// Per link: previous tick's utilization signal for rate control.
  std::vector<double> link_util_;
};

}  // namespace rwc::dataplane
