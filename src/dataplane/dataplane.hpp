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
// recover additively. Each tick is two ordered sweeps around one pass
// over the links:
//
//   sweep 1   rate control + injection per flowlet (`dataplane.packet`
//             faults fire here), then every hop's arrivals land in
//             flowlet order, tail-drop against per-link buffers;
//   links     service fraction min(1, cap*dt / queued) + the next tick's
//             utilization signal;
//   sweep 2   every hop in flowlet order: proportional service,
//             store-and-forward to the next hop, per-link and per-OD
//             accounting, the next tick's per-path utilization;
//             drained-pipeline retirement;
//   audit     per-link capacity safety.
//
// All active hops sit in one flat array in flowlet order, so both sweeps
// walk hops rather than flowlets, stopping only at flowlets that still
// drain pre-migration pipelines. Flowlets couple only through per-link
// state, and both sweeps update it in flowlet order, then hop order
// (active pipeline before draining ones), so every floating-point
// accumulation has one fixed order (docs/DATAPLANE.md §2). No RNG runs in
// the tick loop: randomness is hashing (wcmp.hpp), so determinism needs no
// stream bookkeeping. save_state()/restore_state() capture everything that
// carries across rounds (the kDataplane checkpoint section,
// docs/REPLAY.md): restore-then-continue is bit-identical.
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
  /// Per-link buffer: capacity * buffer_ms of bytes (tail-drop beyond).
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

/// Per directed link, per round.
struct LinkRoundStats {
  double serviced_bytes = 0.0;   ///< bytes the link transmitted
  double dropped_bytes = 0.0;    ///< tail-dropped at this link's buffer
  double max_queued_bytes = 0.0; ///< peak buffer occupancy
  /// Serviced bytes and drops restricted to the measurement ticks
  /// (outside every update window), for the counter source.
  double measured_bytes = 0.0;
  double measured_dropped_bytes = 0.0;
};

/// What one dataplane round produced. Everything is a pure function of
/// (installed assignment, timeline, carried-over state, armed fault plan).
struct RoundResult {
  /// Per OD: goodput over the measurement ticks (after the last update
  /// window; at least the trailing half of the round), Gbps.
  std::vector<double> od_goodput_gbps;
  /// Per OD: bytes delivered across the whole round.
  std::vector<double> od_delivered_bytes;
  std::vector<LinkRoundStats> links;
  /// Per (link, od) delivered bytes over the measurement ticks, dense
  /// row-major [link * ods + od] — the counter source's raw material.
  std::vector<double> link_od_measured_bytes;
  /// Measurement region [measure_begin, ticks) and its length in seconds.
  std::uint32_t measure_begin = 0;
  double measure_seconds = 0.0;

  std::uint64_t migrations = 0;  ///< flowlets whose WCMP pick moved
  std::uint64_t rate_cuts = 0;   ///< multiplicative-decrease events
  /// Ticks on which some link transmitted beyond its timeline capacity
  /// (beyond FP tolerance), split by scheduled-window membership. The
  /// proportional-service discipline makes both 0 by construction; the
  /// oracle *measures* them rather than assuming.
  std::uint64_t capacity_violations = 0;
  std::uint64_t window_violations = 0;

  double injected_bytes = 0.0;
  double delivered_bytes = 0.0;
  double dropped_bytes = 0.0;
  /// Bytes still queued/arriving/deferred at round end (conservation:
  /// cumulative injected == delivered + dropped + inflight).
  double inflight_bytes = 0.0;

  /// Fold of the full post-round flowlet/queue state (bitwise): two runs
  /// agree on a round iff the signatures and the per-OD goodputs agree.
  std::uint64_t signature = 0;
};

class DataplaneSim {
 public:
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

  /// Wire-encoded evolving state (the kDataplane checkpoint payload).
  std::vector<std::byte> save_state() const;
  /// Restores a save_state() payload; throws util::CheckError on corrupt
  /// or mismatched (topology/OD/config) payloads, including counts that
  /// overrun the payload, hop edges outside the topology and flowlets
  /// filed under the wrong OD. The sim is untouched on throw.
  void restore_state(std::span<const std::byte> payload);

  /// Fold of the live flowlet/queue state — equal iff bitwise-equal.
  std::uint64_t state_signature() const;

  std::uint64_t rounds() const { return round_; }
  const DataplaneConfig& config() const { return config_; }
  std::size_t ods() const { return ods_; }
  std::size_t edge_count() const { return edge_count_; }

 private:
  struct Hop {
    std::int32_t edge = -1;
    /// Owning flowlet, and whether this hop ends its path (it delivers
    /// instead of forwarding), so a sweep over hops needs no per-path
    /// loop. Derived from the layout; not part of the wire format.
    std::uint32_t flowlet : 31 = 0;
    std::uint32_t last : 1 = 0;
    double queued = 0.0;    ///< bytes awaiting service
    double arriving = 0.0;  ///< store-and-forward: lands next tick
  };

  /// A pre-migration path still flushing its in-flight bytes.
  struct Pipeline {
    std::vector<Hop> hops;
    std::uint64_t path_id = 0;  ///< wcmp::path_identity of the edge seq
  };

  struct Flowlet {
    std::uint32_t od = 0;
    /// Active path: hops_[hops_begin, hops_end), rebuilt by install().
    std::uint32_t hops_begin = 0;
    std::uint32_t hops_end = 0;
    std::uint64_t path_id = 0;  ///< active path identity (0 = none)
    double offered_gbps = 0.0;  ///< allocated share (rate ceiling)
    double rate_gbps = 0.0;     ///< HPCC-controlled current rate
    double deferred_bytes = 0.0;  ///< kDelay faults park bytes here
    std::vector<Pipeline> draining;  ///< pre-migration paths, flushing
    double injected_bytes = 0.0;
    double delivered_bytes = 0.0;
    double dropped_bytes = 0.0;
    /// Delivered bytes within the current round's measurement region.
    double measured_bytes = 0.0;
    /// Delivered bytes within the current round (whole-round scratch).
    double round_delivered = 0.0;
  };

  static double inflight(std::span<const Hop> hops) {
    double total = 0.0;
    for (const Hop& hop : hops) total += hop.queued + hop.arriving;
    return total;
  }

  std::span<const Hop> active_hops(const Flowlet& fl) const {
    return {hops_.data() + fl.hops_begin, hops_.data() + fl.hops_end};
  }

  void install(const te::FlowAssignment& assignment, RoundResult& result);

  DataplaneConfig config_;
  std::size_t edge_count_ = 0;
  std::size_t ods_ = 0;
  std::uint64_t round_ = 0;
  std::vector<Flowlet> flowlets_;  ///< ods * flowlets_per_od, fixed order
  /// Every flowlet's active-path hops, contiguous in flowlet order.
  std::vector<Hop> hops_;
  /// Per link: live queued-byte total (maintained by the sweeps).
  std::vector<double> link_queued_;
  /// Per link: previous tick's utilization signal for rate control.
  std::vector<double> link_util_;
};

}  // namespace rwc::dataplane
