// The per-flowlet dataplane kernel, kept as the test-only reference that
// dataplane::DataplaneSim's flowlet-class kernel must match bit for bit
// (tests/test_dataplane_reference.cpp, tests/prop/prop_dataplane.cpp;
// docs/DATAPLANE.md §2). It simulates every flowlet on its own, in
// flowlet order, with the same whole-quantum arithmetic, the same fault
// sites and the same saved state (DataplaneSim::State), so
// state_signature(), every RoundResult field and the save_state() of the
// two kernels agree exactly, and each can restore the other's state. It
// registers no metrics.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "dataplane/timeline.hpp"
#include "dataplane/wcmp.hpp"
#include "fault/registry.hpp"
#include "graph/graph.hpp"
#include "te/demand.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::dataplane {

namespace reference {

using util::combine64;
using util::combine_double;

/// Utilization stand-in for a dark link with queued bytes: large enough
/// that one multiplicative cut collapses the rate, small enough to keep
/// the arithmetic finite.
inline constexpr double kDarkUtilization = 1e6;
/// Rate floor as a fraction of the flowlet's allocated rate.
inline constexpr double kMinRateFraction = 0x1.0p-20;
/// Quanta counts stay below 2^53, so a double holds each one exactly and
/// the products in share() round at most once.
inline constexpr double kMaxQuanta = 0x1.0p53;
inline constexpr double kQuanta = static_cast<double>(kQuantaPerByte);

inline bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Whole quanta in `quanta` (rounded down; 0 for anything not positive).
inline std::uint64_t whole_quanta(double quanta) {
  RWC_CHECK_MSG(!(quanta >= kMaxQuanta), "dataplane: byte count overflow");
  return quanta > 0.0 ? static_cast<std::uint64_t>(quanta) : 0;
}

/// The ratio that scales `demand` quanta into `supply`: 1 when it fits.
inline double fit_ratio(std::uint64_t supply, std::uint64_t demand) {
  return demand > supply
             ? static_cast<double>(supply) / static_cast<double>(demand)
             : 1.0;
}

/// floor(quanta * ratio): the whole quanta a proportional discipline
/// grants one part of a total that `ratio` (from fit_ratio) scales into a
/// supply. The ratio and the product each round once, so every grant is
/// at most (1 + 2^-52)^2 times its exact share, and the grants of parts
/// summing to the total add up to less than supply + 1: never above the
/// supply, a whole number below 2^51. With ratio 1 the grant is `quanta`
/// itself.
inline std::uint64_t share(std::uint64_t quanta, double ratio) {
  return static_cast<std::uint64_t>(static_cast<double>(quanta) * ratio);
}

class FlowletReference {
 public:
  /// `ods` fixes the OD-slot count for the simulator's lifetime: round
  /// assignments must carry exactly this many routings (the controller's
  /// TrafficMatrix order). Flowlet state persists across rounds.
  FlowletReference(const graph::Graph& topology, std::size_t ods,
                   DataplaneConfig config);

  /// Installs `assignment` (WCMP re-split; pre-migration paths keep
  /// draining) and runs one round against `timeline`. The timeline must
  /// cover this topology's edges and use the config's tick geometry.
  RoundResult run_round(const te::FlowAssignment& assignment,
                        const CapacityTimeline& timeline);

  /// The evolving state, in the class kernel's type.
  DataplaneSim::State save_state() const;
  /// Restores a save_state() of either kernel; throws util::CheckError,
  /// with the kernel untouched, on what DataplaneSim::restore_state
  /// refuses.
  void restore_state(const DataplaneSim::State& state);

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
    /// loop. Derived from the layout; not part of the saved state.
    std::uint32_t flowlet : 31 = 0;
    std::uint32_t last : 1 = 0;
    std::uint64_t queued = 0;    ///< quanta awaiting service
    std::uint64_t arriving = 0;  ///< store-and-forward: lands next tick
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
    /// Sub-quantum injection remainder in [0, 1): what rate * tick
    /// generated beyond the whole quanta injected so far.
    double carry = 0.0;
    std::uint64_t deferred = 0;  ///< kDelay faults park quanta here
    std::vector<Pipeline> draining;  ///< pre-migration paths, flushing
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    /// Delivered within the current round's measurement region.
    std::uint64_t measured = 0;
    /// Delivered within the current round (whole-round scratch).
    std::uint64_t round_delivered = 0;
  };

  static std::uint64_t inflight(std::span<const Hop> hops) {
    std::uint64_t total = 0;
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
  /// Per link: live queued total, the sum of its hops' queues
  /// (maintained by the sweeps, rebuilt by restore_state).
  std::vector<std::uint64_t> link_queued_;
  /// Per link: previous tick's utilization signal for rate control.
  std::vector<double> link_util_;
};

inline FlowletReference::FlowletReference(const graph::Graph& topology,
                                          std::size_t ods,
                                          DataplaneConfig config)
    : config_(config),
      edge_count_(topology.edge_count()),
      ods_(ods) {
  RWC_CHECK_MSG(config_.tick_seconds > 0.0, "dataplane: tick_seconds <= 0");
  RWC_CHECK_MSG(config_.ticks_per_round >= 8 &&
                    is_pow2(config_.ticks_per_round),
                "dataplane: ticks_per_round must be a power of two >= 8");
  RWC_CHECK_MSG(is_pow2(config_.flowlets_per_od),
                "dataplane: flowlets_per_od must be a power of two");
  flowlets_.resize(ods_ * config_.flowlets_per_od);
  RWC_CHECK_MSG(flowlets_.size() < (std::size_t{1} << 31),
                "dataplane: too many flowlets");
  for (std::size_t i = 0; i < ods_; ++i)
    for (std::size_t j = 0; j < config_.flowlets_per_od; ++j)
      flowlets_[i * config_.flowlets_per_od + j].od =
          static_cast<std::uint32_t>(i);
  link_queued_.assign(edge_count_, 0);
  link_util_.assign(edge_count_, 0.0);
}

inline void FlowletReference::install(const te::FlowAssignment& assignment,
                                      RoundResult& result) {
  RWC_CHECK_MSG(assignment.routings.size() == ods_,
                "dataplane: assignment OD count mismatch");
  const std::size_t kF = config_.flowlets_per_od;
  std::vector<double> weights;
  std::vector<std::uint64_t> identities;
  std::vector<const graph::Path*> paths;
  std::vector<std::uint32_t> counts;
  std::vector<std::size_t> picks(kF);

  // The round's active hops, rebuilt in flowlet order: a flowlet that keeps
  // its path carries its hops over, a migrated one starts its new path
  // empty.
  std::vector<Hop> hops;
  hops.reserve(hops_.size());
  // A replaced active path keeps draining while it still holds bytes.
  auto retire = [this](Flowlet& fl) {
    const std::span<const Hop> active = active_hops(fl);
    if (inflight(active) > 0)
      fl.draining.push_back(
          Pipeline{{active.begin(), active.end()}, fl.path_id});
  };
  auto place = [&hops](Flowlet& fl, std::span<const Hop> active) {
    fl.hops_begin = static_cast<std::uint32_t>(hops.size());
    hops.insert(hops.end(), active.begin(), active.end());
    fl.hops_end = static_cast<std::uint32_t>(hops.size());
  };

  for (std::size_t i = 0; i < ods_; ++i) {
    const te::FlowAssignment::DemandRouting& routing = assignment.routings[i];
    weights.clear();
    identities.clear();
    paths.clear();
    for (const auto& [path, volume] : routing.paths) {
      if (!(volume.value > 0.0) || path.empty()) continue;
      weights.push_back(volume.value);
      identities.push_back(path_identity(path.edges));
      paths.push_back(&path);
    }

    Flowlet* base = &flowlets_[i * kF];
    if (paths.empty()) {
      // Unrouted OD: sources stop injecting; in-flight bytes keep
      // draining on their old paths.
      for (std::size_t j = 0; j < kF; ++j) {
        Flowlet& fl = base[j];
        fl.offered_gbps = 0.0;
        fl.rate_gbps = 0.0;
        if (fl.hops_end != fl.hops_begin) {
          retire(fl);
          fl.path_id = 0;
        }
        place(fl, {});
      }
      continue;
    }

    // WCMP placement (dataplane.hash faults perturb per flowlet).
    counts.assign(paths.size(), 0);
    for (std::size_t j = 0; j < kF; ++j) {
      Flowlet& fl = base[j];
      std::uint64_t salt = config_.hash_salt;
      bool stale = false;
      if (const fault::Action action = fault::at(
              "dataplane.hash", static_cast<std::uint64_t>(i * kF + j))) {
        if (action.kind == fault::Kind::kGarbage)
          salt = combine_double(salt,
                                action.magnitude + static_cast<double>(j));
        else if (action.kind == fault::Kind::kStale)
          stale = true;
      }
      std::size_t pick = wcmp_pick(
          flowlet_key(static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j), salt),
          weights, identities);
      if (stale && fl.path_id != 0) {
        for (std::size_t p = 0; p < identities.size(); ++p)
          if (identities[p] == fl.path_id) {
            pick = p;
            break;
          }
      }
      picks[j] = pick;
      ++counts[pick];
    }
    // Coverage fixup: a path the solver loaded must carry at least one
    // flowlet, or its volume would be silently unroutable. Steal from the
    // most-loaded path (lowest index on ties) deterministically.
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (counts[p] != 0) continue;
      std::size_t donor = 0;
      for (std::size_t q = 1; q < counts.size(); ++q)
        if (counts[q] > counts[donor]) donor = q;
      if (counts[donor] < 2) continue;  // nothing to steal
      for (std::size_t j = kF; j-- > 0;)
        if (picks[j] == donor) {
          picks[j] = p;
          break;
        }
      --counts[donor];
      ++counts[p];
    }

    // Install: shape each path's flowlets to an equal share of the
    // installed path volume, so per-path offered load equals the solver's
    // split exactly (goodput can never exceed the allocation except by
    // transient queue drain — docs/DATAPLANE.md §5).
    for (std::size_t j = 0; j < kF; ++j) {
      Flowlet& fl = base[j];
      const std::size_t pick = picks[j];
      const double offered =
          weights[pick] / static_cast<double>(counts[pick]);
      const std::uint64_t path_id = identities[pick];
      if (fl.path_id != path_id) {
        if (fl.path_id != 0) ++result.migrations;
        retire(fl);
        fl.path_id = path_id;
        fl.hops_begin = static_cast<std::uint32_t>(hops.size());
        for (const graph::EdgeId edge : paths[pick]->edges) {
          Hop hop;
          hop.edge = edge.value;
          hop.flowlet = static_cast<std::uint32_t>(i * kF + j);
          hops.push_back(hop);
        }
        hops.back().last = 1;
        fl.hops_end = static_cast<std::uint32_t>(hops.size());
        fl.rate_gbps = offered;
      } else {
        place(fl, active_hops(fl));
        // Same path, new allocation: the controller re-shapes the source.
        if (fl.offered_gbps != offered) fl.rate_gbps = offered;
      }
      fl.offered_gbps = offered;
    }
  }
  hops_ = std::move(hops);
}

inline RoundResult FlowletReference::run_round(
    const te::FlowAssignment& assignment, const CapacityTimeline& timeline) {
  RWC_CHECK_MSG(timeline.edges.size() == edge_count_,
                "dataplane: timeline edge count mismatch");
  RWC_CHECK_MSG(timeline.ticks == config_.ticks_per_round &&
                    timeline.tick_seconds == config_.tick_seconds,
                "dataplane: timeline tick geometry mismatch");

  const std::size_t ticks = config_.ticks_per_round;
  const double dt = config_.tick_seconds;
  const double quanta_per_gbps_tick = dt * 1e9 / 8.0 * kQuanta;
  const double quanta_per_gbps_buffer =
      config_.buffer_ms * 1e6 / 8.0 * kQuanta;
  const double eta = config_.target_utilization;

  RoundResult result;
  result.od_goodput_gbps.assign(ods_, 0.0);
  result.od_delivered_bytes.assign(ods_, 0);
  result.links.assign(edge_count_, LinkRoundStats{});
  result.link_od_measured_bytes.assign(edge_count_ * ods_, 0);


  install(assignment, result);

  // Measurement region: after the last scheduled window plus a settling
  // margin, and never before mid-round — transition backlog must drain
  // before goodput is scored against the allocation.
  const std::uint32_t settle = static_cast<std::uint32_t>(ticks / 8);
  result.measure_begin = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(ticks - 1),
      std::max<std::uint32_t>(timeline.last_window_end() + settle,
                              static_cast<std::uint32_t>(ticks / 2)));
  result.measure_seconds =
      static_cast<double>(ticks - result.measure_begin) * dt;

  for (Flowlet& fl : flowlets_) {
    fl.measured = 0;
    fl.round_delivered = 0;
  }

  const std::size_t nf = flowlets_.size();
  std::vector<std::uint64_t> cap(edge_count_, 0);
  std::vector<std::uint64_t> buffer(edge_count_, 0);
  // Per link: this tick's arrivals, the share of them the buffer admits,
  // the share of the queue served, and the bytes served.
  std::vector<std::uint64_t> incoming(edge_count_, 0);
  std::vector<double> admit(edge_count_, 1.0);
  std::vector<double> frac(edge_count_, 1.0);
  std::vector<std::uint64_t> tick_serviced(edge_count_, 0);
  std::vector<std::size_t> event_cursor(edge_count_, 0);
  // Per flowlet: the rate-control signal (max utilization over the active
  // path; sweep 2 refreshes it for the next tick) and what its pipelines
  // delivered but have not yet credited.
  std::vector<double> path_util(nf, 0.0);
  std::vector<std::uint64_t> delivered(nf, 0);
  for (const Hop& hop : hops_)
    path_util[hop.flowlet] = std::max(
        path_util[hop.flowlet], link_util_[static_cast<std::size_t>(hop.edge)]);
  // Flowlets with draining pipelines, ascending.
  std::vector<std::uint32_t> drainers;
  for (std::size_t f = 0; f < nf; ++f)
    if (!flowlets_[f].draining.empty())
      drainers.push_back(static_cast<std::uint32_t>(f));
  // Visits every hop: the flat active array, then each draining pipeline.
  auto for_each_pipeline = [&](auto&& visit) {
    visit(std::span<Hop>(hops_), true);
    for (const std::uint32_t f : drainers)
      for (Pipeline& pipeline : flowlets_[f].draining)
        visit(std::span<Hop>(pipeline.hops), false);
  };

  const bool faults_armed = fault::Registry::global().armed();
  bool measuring = false;

  // Arrivals land; a link whose buffer cannot hold all of them admits
  // each hop's share (fit_ratio/share) and drops the rest.
  auto land = [&](std::span<Hop> hops, bool) {
    for (Hop& hop : hops) {
      const std::uint64_t arrived = hop.arriving;
      hop.arriving = 0;
      if (arrived == 0) continue;
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint64_t accepted = share(arrived, admit[e]);
      const std::uint64_t dropped = arrived - accepted;
      if (dropped > 0) {
        flowlets_[hop.flowlet].dropped += dropped;
        result.links[e].dropped_bytes += dropped;
        if (measuring) result.links[e].measured_dropped_bytes += dropped;
      }
      hop.queued += accepted;
      link_queued_[e] += accepted;
    }
  };
  // Proportional service, store-and-forward to the next hop (the bytes
  // land next tick), and the per-link / per-OD accounting of what left.
  auto serve = [&](std::span<Hop> hops, bool active) {
    for (std::size_t k = 0; k < hops.size(); ++k) {
      Hop& hop = hops[k];
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint32_t f = hop.flowlet;
      if (active) path_util[f] = std::max(path_util[f], link_util_[e]);
      if (hop.queued == 0) continue;
      const std::uint64_t s = share(hop.queued, frac[e]);
      if (s == 0) continue;
      hop.queued -= s;
      if (hop.last)
        delivered[f] += s;
      else
        hops[k + 1].arriving += s;
      link_queued_[e] -= s;
      tick_serviced[e] += s;
      result.links[e].serviced_bytes += s;
      if (measuring) {
        result.links[e].measured_bytes += s;
        result.link_od_measured_bytes[e * ods_ + flowlets_[f].od] += s;
      }
    }
  };
  // Credits what flowlet f's pipelines delivered on a (`measured`) tick to
  // its ledgers, at its next rate-control step.
  auto credit = [&](std::size_t f, bool measured) {
    Flowlet& fl = flowlets_[f];
    const std::uint64_t d = delivered[f];
    delivered[f] = 0;
    fl.delivered += d;
    fl.round_delivered += d;
    if (measured) fl.measured += d;
  };
  auto set_capacity = [&](std::size_t e, double gbps) {
    cap[e] = whole_quanta(gbps * quanta_per_gbps_tick);
    buffer[e] = whole_quanta(std::max(gbps, config_.min_buffer_gbps) *
                                  quanta_per_gbps_buffer);
  };
  for (std::size_t e = 0; e < edge_count_; ++e) set_capacity(e, 0.0);

  bool was_measuring = false;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    was_measuring = measuring;
    measuring = tick >= result.measure_begin;
    const bool in_window = timeline.in_window(tick);

    // Capacity breakpoints for this tick.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::vector<CapacityTimeline::Event>& events = timeline.edges[e];
      std::size_t& cursor = event_cursor[e];
      while (cursor < events.size() && events[cursor].tick <= tick) {
        set_capacity(e, events[cursor].gbps);
        ++cursor;
      }
    }

    // Sweep 1: credit, rate control and injection per flowlet, then every
    // hop lands. Rate control reads only path_util and the flowlet's own
    // state, and injection only adds to the flowlet's first hop, so every
    // flowlet may inject before the first one lands.
    for (std::size_t f = 0; f < nf; ++f) {
      Flowlet& fl = flowlets_[f];
      credit(f, was_measuring);
      const bool routed = fl.hops_end != fl.hops_begin;
      if (fl.offered_gbps > 0.0 && routed) {
        const double util = path_util[f];
        // Congested when some path link's standing queue exceeds 1/eta
        // ticks' worth of service. util == 1 is the steady state of a
        // link the solver fills to capacity (each tick's arrivals are
        // exactly one tick's service) — NOT congestion; only backlog
        // growth beyond that margin cuts.
        if (util * eta > 1.0) {
          fl.rate_gbps = std::max(fl.rate_gbps * (eta / util),
                                  fl.offered_gbps * kMinRateFraction);
          ++result.rate_cuts;
        } else {
          fl.rate_gbps =
              std::min(fl.offered_gbps,
                       fl.rate_gbps +
                           config_.additive_increase * fl.offered_gbps);
        }
      } else {
        fl.rate_gbps = 0.0;
      }
      // Whole quanta: the sub-quantum remainder carries to the next tick.
      const double generating = fl.rate_gbps * quanta_per_gbps_tick +
                                fl.carry;
      const std::uint64_t generated = whole_quanta(generating);
      fl.carry = generating - static_cast<double>(generated);
      const std::uint64_t attempt = generated + fl.deferred;
      fl.deferred = 0;
      std::uint64_t inject = attempt;
      // The ledger charges bytes when the source GENERATES them (bytes
      // pulled back out of deferred were charged on their original
      // tick), so kDelay parking balances against the inflight term:
      // cumulative injected == delivered + dropped + inflight holds
      // under every fault plan, not just clean runs.
      fl.injected += generated;
      if (faults_armed && attempt > 0) {
        if (const fault::Action action = fault::at(
                "dataplane.packet",
                static_cast<std::uint64_t>(tick) * nf + f)) {
          switch (action.kind) {
            case fault::Kind::kDrop:
              // Lost before entering the network: dropped at the source
              // (the generation charge above keeps the ledger balanced).
              fl.dropped += attempt;
              inject = 0;
              break;
            case fault::Kind::kDuplicate:
              // The duplicated copies are new bytes on the wire.
              fl.injected += attempt;
              inject = attempt * 2;
              break;
            case fault::Kind::kDelay:
              fl.deferred = attempt;
              inject = 0;
              break;
            default:
              break;
          }
        }
      }
      // Already charged at generation; a flowlet with no installed path
      // parks its bytes back at the source instead of leaking them.
      if (routed)
        hops_[fl.hops_begin].arriving += inject;
      else
        fl.deferred += inject;
    }
    // Each link admits what its free buffer holds.
    for_each_pipeline([&](std::span<Hop> hops, bool) {
      for (const Hop& hop : hops)
        incoming[static_cast<std::size_t>(hop.edge)] += hop.arriving;
    });
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::uint64_t room = buffer[e] > link_queued_[e]
                                     ? buffer[e] - link_queued_[e]
                                     : 0;
      admit[e] = fit_ratio(room, incoming[e]);
      incoming[e] = 0;
    }
    for_each_pipeline(land);

    // Links: peak occupancy (a queue only grows while bytes land), the
    // service ratio and the utilization signal the NEXT tick's rate
    // control reads.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::uint64_t queued = link_queued_[e];
      LinkRoundStats& link = result.links[e];
      link.max_queued_bytes = std::max(link.max_queued_bytes, queued);
      frac[e] = fit_ratio(cap[e], queued);
      link_util_[e] = cap[e] > 0
                          ? static_cast<double>(queued) /
                                static_cast<double>(cap[e])
                          : (queued > 0 ? kDarkUtilization : 0.0);
    }

    // Sweep 2: service and accounting for every hop, drained-pipeline
    // retirement. Service reads only frac and the hop's own pipeline.
    std::fill(tick_serviced.begin(), tick_serviced.end(), 0);
    std::fill(path_util.begin(), path_util.end(), 0.0);
    for_each_pipeline(serve);
    for (const std::uint32_t f : drainers)
      std::erase_if(flowlets_[f].draining, [](const Pipeline& pipeline) {
        return inflight(pipeline.hops) == 0;
      });
    std::erase_if(drainers, [this](std::uint32_t f) {
      return flowlets_[f].draining.empty();
    });

    // Capacity-safety audit.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (tick_serviced[e] > cap[e]) {
        if (in_window)
          ++result.window_violations;
        else
          ++result.capacity_violations;
      }
    }
  }

  for (std::size_t f = 0; f < nf; ++f) credit(f, measuring);

  // Round aggregation.
  std::vector<std::uint64_t> od_measured(ods_, 0);
  for (const Flowlet& fl : flowlets_) {
    od_measured[fl.od] += fl.measured;
    result.od_delivered_bytes[fl.od] += fl.round_delivered;
    result.injected_bytes += fl.injected;
    result.delivered_bytes += fl.delivered;
    result.dropped_bytes += fl.dropped;
    result.inflight_bytes += inflight(active_hops(fl)) + fl.deferred;
    for (const Pipeline& pipeline : fl.draining)
      result.inflight_bytes += inflight(pipeline.hops);
  }
  for (std::size_t i = 0; i < ods_; ++i)
    result.od_goodput_gbps[i] = static_cast<double>(od_measured[i]) /
                                kQuanta * 8.0 / result.measure_seconds / 1e9;
  result.signature = state_signature();
  ++round_;

  return result;
}

inline std::uint64_t FlowletReference::state_signature() const {
  std::uint64_t hash = 0x64617461706c616eull;  // "dataplan"
  hash = combine64(hash, round_);
  auto fold_pipeline = [&hash](std::uint64_t path_id,
                               std::span<const Hop> hops) {
    hash = combine64(hash, path_id);
    for (const Hop& hop : hops) {
      hash = combine64(hash, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(hop.edge)));
      hash = combine64(hash, hop.queued);
      hash = combine64(hash, hop.arriving);
    }
  };
  for (const Flowlet& fl : flowlets_) {
    hash = combine64(hash, static_cast<std::uint64_t>(fl.od));
    hash = combine_double(hash, fl.offered_gbps);
    hash = combine_double(hash, fl.rate_gbps);
    hash = combine_double(hash, fl.carry);
    hash = combine64(hash, fl.deferred);
    hash = combine64(hash, fl.injected);
    hash = combine64(hash, fl.delivered);
    hash = combine64(hash, fl.dropped);
    fold_pipeline(fl.path_id, active_hops(fl));
    hash = combine64(hash, static_cast<std::uint64_t>(fl.draining.size()));
    for (const Pipeline& pipeline : fl.draining)
      fold_pipeline(pipeline.path_id, pipeline.hops);
  }
  for (const double util : link_util_) hash = combine_double(hash, util);
  return hash;
}

inline DataplaneSim::State FlowletReference::save_state() const {
  using State = DataplaneSim::State;
  auto save_pipeline = [](std::uint64_t path_id, std::span<const Hop> hops) {
    State::Pipeline pipeline{path_id, {}};
    for (const Hop& hop : hops)
      pipeline.hops.push_back({hop.edge, hop.queued, hop.arriving});
    return pipeline;
  };
  State state;
  state.round = round_;
  for (const Flowlet& fl : flowlets_) {
    State::Flowlet& flowlet = state.flowlets.emplace_back();
    flowlet.od = fl.od;
    flowlet.offered_gbps = fl.offered_gbps;
    flowlet.rate_gbps = fl.rate_gbps;
    flowlet.carry = fl.carry;
    flowlet.deferred = fl.deferred;
    flowlet.ledger = {fl.injected, fl.delivered, fl.dropped};
    flowlet.active = save_pipeline(fl.path_id, active_hops(fl));
    for (const Pipeline& pipeline : fl.draining)
      flowlet.draining.push_back(
          save_pipeline(pipeline.path_id, pipeline.hops));
  }
  state.link_util = link_util_;
  return state;
}

inline void FlowletReference::restore_state(
    const DataplaneSim::State& state) {
  using State = DataplaneSim::State;
  RWC_CHECK_MSG(state.flowlets.size() == flowlets_.size() &&
                    state.link_util.size() == edge_count_,
                "dataplane: state shape mismatch");
  std::vector<Flowlet> flowlets(flowlets_.size());
  std::vector<Hop> hops;
  std::vector<std::uint64_t> link_queued(edge_count_, 0);
  // Hop edges index per-link state, and rates, carries and quanta convert
  // between double and integer: each is checked before the kernel
  // changes.
  auto check_quanta = [](std::uint64_t quanta) {
    RWC_CHECK_MSG(static_cast<double>(quanta) < kMaxQuanta,
                  "dataplane: state quanta count out of range");
  };
  auto restore_pipeline = [&](const State::Pipeline& pipeline,
                              std::vector<Hop>& out, std::size_t flowlet) {
    for (const State::Hop& saved : pipeline.hops) {
      RWC_CHECK_MSG(saved.edge >= 0 && static_cast<std::size_t>(saved.edge) <
                                           edge_count_,
                    "dataplane: state hop edge out of range");
      check_quanta(saved.queued);
      check_quanta(saved.arriving);
      std::uint64_t& queued = link_queued[static_cast<std::size_t>(saved.edge)];
      queued += saved.queued;
      check_quanta(queued);
      Hop& hop = out.emplace_back();
      hop.edge = saved.edge;
      hop.flowlet = static_cast<std::uint32_t>(flowlet);
      hop.queued = saved.queued;
      hop.arriving = saved.arriving;
    }
    if (!pipeline.hops.empty()) out.back().last = 1;
    return pipeline.path_id;
  };
  for (std::size_t f = 0; f < flowlets.size(); ++f) {
    const State::Flowlet& saved = state.flowlets[f];
    Flowlet& fl = flowlets[f];
    fl.od = saved.od;
    RWC_CHECK_MSG(fl.od == f / config_.flowlets_per_od,
                  "dataplane: state flowlet under the wrong OD");
    fl.offered_gbps = saved.offered_gbps;
    fl.rate_gbps = saved.rate_gbps;
    fl.carry = saved.carry;
    RWC_CHECK_MSG(std::isfinite(fl.offered_gbps) && fl.offered_gbps >= 0.0 &&
                      std::isfinite(fl.rate_gbps) && fl.rate_gbps >= 0.0 &&
                      fl.carry >= 0.0 && fl.carry < 1.0,
                  "dataplane: state rate out of range");
    fl.deferred = saved.deferred;
    check_quanta(fl.deferred);
    fl.injected = saved.ledger.injected;
    fl.delivered = saved.ledger.delivered;
    fl.dropped = saved.ledger.dropped;
    fl.hops_begin = static_cast<std::uint32_t>(hops.size());
    fl.path_id = restore_pipeline(saved.active, hops, f);
    fl.hops_end = static_cast<std::uint32_t>(hops.size());
    fl.draining.resize(saved.draining.size());
    for (std::size_t d = 0; d < saved.draining.size(); ++d)
      fl.draining[d].path_id =
          restore_pipeline(saved.draining[d], fl.draining[d].hops, f);
  }
  round_ = state.round;
  flowlets_ = std::move(flowlets);
  hops_ = std::move(hops);
  link_queued_ = std::move(link_queued);
  link_util_ = state.link_util;
}

/// The first field on which two rounds' results differ ("" when every
/// field is bit-identical): the comparison the class kernel is held to.
inline std::string first_difference(const RoundResult& a,
                                    const RoundResult& b) {
  auto same_doubles = [](const std::vector<double>& x,
                         const std::vector<double>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](double p, double q) {
                        return std::bit_cast<std::uint64_t>(p) ==
                               std::bit_cast<std::uint64_t>(q);
                      });
  };
  if (!same_doubles(a.od_goodput_gbps, b.od_goodput_gbps))
    return "od_goodput_gbps";
  if (a.od_delivered_bytes != b.od_delivered_bytes) return "od_delivered_bytes";
  if (a.links.size() != b.links.size()) return "links";
  for (std::size_t e = 0; e < a.links.size(); ++e) {
    const LinkRoundStats& x = a.links[e];
    const LinkRoundStats& y = b.links[e];
    if (x.serviced_bytes != y.serviced_bytes ||
        x.dropped_bytes != y.dropped_bytes ||
        x.max_queued_bytes != y.max_queued_bytes ||
        x.measured_bytes != y.measured_bytes ||
        x.measured_dropped_bytes != y.measured_dropped_bytes)
      return "links[" + std::to_string(e) + "]";
  }
  if (a.link_od_measured_bytes != b.link_od_measured_bytes)
    return "link_od_measured_bytes";
  if (a.measure_begin != b.measure_begin ||
      std::bit_cast<std::uint64_t>(a.measure_seconds) !=
          std::bit_cast<std::uint64_t>(b.measure_seconds))
    return "measurement region";
  if (a.migrations != b.migrations) return "migrations";
  if (a.rate_cuts != b.rate_cuts) return "rate_cuts";
  if (a.capacity_violations != b.capacity_violations ||
      a.window_violations != b.window_violations)
    return "violations";
  if (a.injected_bytes != b.injected_bytes ||
      a.delivered_bytes != b.delivered_bytes ||
      a.dropped_bytes != b.dropped_bytes ||
      a.inflight_bytes != b.inflight_bytes)
    return "byte ledger";
  if (a.signature != b.signature) return "signature";
  return "";
}

}  // namespace reference
}  // namespace rwc::dataplane
