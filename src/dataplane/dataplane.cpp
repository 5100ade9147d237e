#include "dataplane/dataplane.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "dataplane/wcmp.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "replay/wire.hpp"
#include "util/check.hpp"

namespace rwc::dataplane {

namespace {

inline std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  return hash;
}

inline std::uint64_t mix64(std::uint64_t hash, double value) {
  return mix64(hash, std::bit_cast<std::uint64_t>(value));
}

/// Utilization stand-in for a dark link with queued bytes: large enough
/// that one multiplicative cut collapses the rate, small enough to keep
/// the arithmetic finite.
constexpr double kDarkUtilization = 1e6;
/// Rate floor as a fraction of the flowlet's allocated rate.
constexpr double kMinRateFraction = 0x1.0p-20;
/// FP tolerance of the per-tick capacity-safety audit (relative + bytes).
constexpr double kServiceRelTol = 1e-9;
constexpr double kServiceAbsTolBytes = 1e-3;

constexpr std::uint32_t kStateMagic = 0x52574344u;  // "RWCD"
constexpr std::uint32_t kStateVersion = 1;

struct Metrics {
  obs::Counter& rounds;
  obs::Counter& ticks;
  obs::Counter& migrations;
  obs::Counter& rate_cuts;
  obs::Counter& delivered_bytes;
  obs::Counter& dropped_bytes;
  obs::Counter& capacity_violations;
  obs::Gauge& inflight_bytes;
  obs::Histogram& round_seconds;

  static Metrics& get() {
    static Metrics metrics{
        obs::Registry::global().counter("dataplane.rounds"),
        obs::Registry::global().counter("dataplane.ticks"),
        obs::Registry::global().counter("dataplane.migrations"),
        obs::Registry::global().counter("dataplane.rate_cuts"),
        obs::Registry::global().counter("dataplane.delivered_bytes"),
        obs::Registry::global().counter("dataplane.dropped_bytes"),
        obs::Registry::global().counter("dataplane.capacity_violations"),
        obs::Registry::global().gauge("dataplane.inflight_bytes"),
        obs::Registry::global().histogram("dataplane.round.seconds"),
    };
    return metrics;
  }
};

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

DataplaneSim::DataplaneSim(const graph::Graph& topology, std::size_t ods,
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
  link_queued_.assign(edge_count_, 0.0);
  link_util_.assign(edge_count_, 0.0);
}

void DataplaneSim::install(const te::FlowAssignment& assignment,
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
    if (inflight(active) > 0.0)
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
          salt = mix64(salt, action.magnitude + static_cast<double>(j));
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

RoundResult DataplaneSim::run_round(const te::FlowAssignment& assignment,
                                    const CapacityTimeline& timeline) {
  const obs::StopWatch watch;
  RWC_CHECK_MSG(timeline.edges.size() == edge_count_,
                "dataplane: timeline edge count mismatch");
  RWC_CHECK_MSG(timeline.ticks == config_.ticks_per_round &&
                    timeline.tick_seconds == config_.tick_seconds,
                "dataplane: timeline tick geometry mismatch");
  Metrics& metrics = Metrics::get();

  const std::size_t ticks = config_.ticks_per_round;
  const double dt = config_.tick_seconds;
  const double bytes_per_gbps_tick = dt * 1e9 / 8.0;
  const double buffer_seconds = config_.buffer_ms / 1e3;
  const double eta = config_.target_utilization;

  RoundResult result;
  result.od_goodput_gbps.assign(ods_, 0.0);
  result.od_delivered_bytes.assign(ods_, 0.0);
  result.links.assign(edge_count_, LinkRoundStats{});
  result.link_od_measured_bytes.assign(edge_count_ * ods_, 0.0);

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
    fl.measured_bytes = 0.0;
    fl.round_delivered = 0.0;
  }

  const std::size_t nf = flowlets_.size();
  std::vector<double> cap_bytes(edge_count_, 0.0);
  std::vector<double> buffer_bytes(edge_count_, 0.0);
  std::vector<double> frac(edge_count_, 1.0);
  std::vector<double> tick_serviced(edge_count_, 0.0);
  std::vector<std::size_t> event_cursor(edge_count_, 0);
  std::vector<unsigned char> landed(edge_count_, 0);
  // Per flowlet: the rate-control signal (max utilization over the active
  // path, in hop order; sweep 2 refreshes it for the next tick) and the
  // bytes its pipelines delivered but have not yet credited.
  std::vector<double> path_util(nf, 0.0);
  std::vector<double> delivered(nf, 0.0);
  for (const Hop& hop : hops_)
    path_util[hop.flowlet] = std::max(
        path_util[hop.flowlet], link_util_[static_cast<std::size_t>(hop.edge)]);
  // Flowlets with draining pipelines, ascending: the sweeps over hops_
  // stop after each one's active hops to visit its pipelines, which keeps
  // the flowlet order on every per-link accumulator.
  std::vector<std::uint32_t> drainers;
  for (std::size_t f = 0; f < nf; ++f)
    if (!flowlets_[f].draining.empty())
      drainers.push_back(static_cast<std::uint32_t>(f));

  const bool faults_armed = fault::Registry::global().armed();
  bool measuring = false;

  // Arrivals land against the per-link buffer budgets; tail-drop beyond.
  // When everything fits, min(incoming, max(0, room)) is incoming itself,
  // so the common case keeps the clamps off the per-link dependency chain.
  auto land = [&](std::span<Hop> hops) {
    for (Hop& hop : hops) {
      const double incoming = hop.arriving;
      hop.arriving = 0.0;
      if (incoming <= 0.0) continue;
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const double room = buffer_bytes[e] - link_queued_[e];
      double accepted = incoming;
      if (!(incoming <= room)) {
        accepted = std::min(incoming, std::max(0.0, room));
        const double dropped = incoming - accepted;
        if (dropped > 0.0) {
          flowlets_[hop.flowlet].dropped_bytes += dropped;
          result.links[e].dropped_bytes += dropped;
          if (measuring) result.links[e].measured_dropped_bytes += dropped;
        }
      }
      hop.queued += accepted;
      link_queued_[e] += accepted;
      landed[e] = 1;
    }
  };
  // Proportional service, store-and-forward to the next hop (the bytes
  // land next tick), and the per-link / per-OD accounting of what left.
  // A last hop adds +0.0 to its own arrivals and a forwarding hop +0.0 to
  // its flowlet's delivery: both sides hold non-negative byte counts, so
  // the additions are exact and the sweep needs no per-path branch.
  auto serve = [&](std::span<Hop> hops, bool active) {
    for (std::size_t k = 0; k < hops.size(); ++k) {
      Hop& hop = hops[k];
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint32_t f = hop.flowlet;
      if (active) path_util[f] = std::max(path_util[f], link_util_[e]);
      if (hop.queued <= 0.0) continue;
      const double s = hop.queued * frac[e];
      hop.queued -= s;
      const bool last = hop.last != 0;
      hops[last ? k : k + 1].arriving += last ? 0.0 : s;
      delivered[f] += last ? s : 0.0;
      if (s <= 0.0) continue;
      // std::max(0.0, queued) as a branch: the clamp almost never fires,
      // and a predicted branch keeps it off the per-link dependency chain.
      double queued = link_queued_[e] - s;
      if (!(0.0 < queued)) queued = 0.0;
      link_queued_[e] = queued;
      tick_serviced[e] += s;
      result.links[e].serviced_bytes += s;
      if (measuring) {
        result.links[e].measured_bytes += s;
        result.link_od_measured_bytes[e * ods_ + flowlets_[f].od] += s;
      }
    }
  };
  // Credits what flowlet f's pipelines delivered on a (`measured`) tick to
  // its ledgers. A flowlet whose only pipeline is active credits at its
  // next rate-control step; one with draining pipelines credits after each
  // pipeline, so its ledgers see the deliveries in pipeline order.
  auto credit = [&](std::size_t f, bool measured) {
    Flowlet& fl = flowlets_[f];
    const double d = delivered[f];
    delivered[f] = 0.0;
    fl.delivered_bytes += d;
    fl.round_delivered += d;
    if (measured) fl.measured_bytes += d;
  };

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
        cap_bytes[e] = events[cursor].gbps * bytes_per_gbps_tick;
        ++cursor;
      }
      buffer_bytes[e] =
          std::max(cap_bytes[e] / bytes_per_gbps_tick,
                   config_.min_buffer_gbps) *
          buffer_seconds * 1e9 / 8.0;
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
      const double attempt =
          fl.rate_gbps * bytes_per_gbps_tick + fl.deferred_bytes;
      fl.deferred_bytes = 0.0;
      double inject = attempt;
      // The ledger charges bytes when the source GENERATES them (bytes
      // pulled back out of deferred were charged on their original
      // tick), so kDelay parking balances against the inflight term:
      // cumulative injected == delivered + dropped + inflight holds
      // under every fault plan, not just clean runs.
      fl.injected_bytes += fl.rate_gbps * bytes_per_gbps_tick;
      if (faults_armed && attempt > 0.0) {
        if (const fault::Action action = fault::at(
                "dataplane.packet",
                static_cast<std::uint64_t>(tick) * nf + f)) {
          switch (action.kind) {
            case fault::Kind::kDrop:
              // Lost before entering the network: dropped at the source
              // (the generation charge above keeps the ledger balanced).
              fl.dropped_bytes += attempt;
              inject = 0.0;
              break;
            case fault::Kind::kDuplicate:
              // The duplicated copies are new bytes on the wire.
              fl.injected_bytes += attempt;
              inject = attempt * 2.0;
              break;
            case fault::Kind::kDelay:
              fl.deferred_bytes = attempt;
              inject = 0.0;
              break;
            default:
              break;
          }
        }
      }
      // Already charged at generation; a flowlet with no installed path
      // parks its bytes back at the source instead of leaking them. The
      // first hop's arrivals and the injection add in either order.
      if (routed)
        hops_[fl.hops_begin].arriving += inject;
      else if (inject > 0.0)
        fl.deferred_bytes += inject;
    }
    std::size_t k = 0;
    for (const std::uint32_t f : drainers) {
      Flowlet& fl = flowlets_[f];
      land({hops_.data() + k, hops_.data() + fl.hops_end});
      k = fl.hops_end;
      for (Pipeline& pipeline : fl.draining) land(pipeline.hops);
    }
    land({hops_.data() + k, hops_.data() + hops_.size()});
    // A link's queue only grows while bytes land, so its peak over the
    // landings is its total after them.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (!landed[e]) continue;
      landed[e] = 0;
      result.links[e].max_queued_bytes =
          std::max(result.links[e].max_queued_bytes, link_queued_[e]);
    }

    // Links: proportional service fraction and the utilization signal the
    // NEXT tick's rate control reads.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const double queued = link_queued_[e];
      frac[e] = queued > cap_bytes[e] && queued > 0.0
                    ? cap_bytes[e] / queued
                    : 1.0;
      link_util_[e] = cap_bytes[e] > 0.0
                          ? queued / cap_bytes[e]
                          : (queued > 0.0 ? kDarkUtilization : 0.0);
    }

    // Sweep 2: service and accounting for every hop in flowlet order,
    // drained-pipeline retirement. Service reads only frac and the hop's
    // own pipeline.
    std::fill(tick_serviced.begin(), tick_serviced.end(), 0.0);
    std::fill(path_util.begin(), path_util.end(), 0.0);
    k = 0;
    for (const std::uint32_t f : drainers) {
      Flowlet& fl = flowlets_[f];
      serve({hops_.data() + k, hops_.data() + fl.hops_end}, true);
      k = fl.hops_end;
      credit(f, measuring);
      for (Pipeline& pipeline : fl.draining) {
        serve(pipeline.hops, false);
        credit(f, measuring);
      }
      std::erase_if(fl.draining, [](const Pipeline& pipeline) {
        return inflight(pipeline.hops) <= 0.0;
      });
    }
    serve({hops_.data() + k, hops_.data() + hops_.size()}, true);
    std::erase_if(drainers, [this](std::uint32_t f) {
      return flowlets_[f].draining.empty();
    });

    // Capacity-safety audit.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (tick_serviced[e] >
          cap_bytes[e] * (1.0 + kServiceRelTol) + kServiceAbsTolBytes) {
        if (in_window)
          ++result.window_violations;
        else
          ++result.capacity_violations;
      }
    }
  }

  for (std::size_t f = 0; f < nf; ++f) credit(f, measuring);

  // Round aggregation (flowlet order).
  double inflight_bytes = 0.0;
  for (const Flowlet& fl : flowlets_) {
    result.od_goodput_gbps[fl.od] += fl.measured_bytes;
    result.od_delivered_bytes[fl.od] += fl.round_delivered;
    result.injected_bytes += fl.injected_bytes;
    result.delivered_bytes += fl.delivered_bytes;
    result.dropped_bytes += fl.dropped_bytes;
    inflight_bytes += inflight(active_hops(fl)) + fl.deferred_bytes;
    for (const Pipeline& pipeline : fl.draining)
      inflight_bytes += inflight(pipeline.hops);
  }
  result.inflight_bytes = inflight_bytes;
  for (double& goodput : result.od_goodput_gbps)
    goodput = goodput * 8.0 / result.measure_seconds / 1e9;
  result.signature = state_signature();
  ++round_;

  metrics.rounds.add(1);
  metrics.ticks.add(static_cast<std::uint64_t>(ticks));
  metrics.migrations.add(result.migrations);
  metrics.rate_cuts.add(result.rate_cuts);
  metrics.delivered_bytes.add(
      static_cast<std::uint64_t>(result.delivered_bytes));
  metrics.dropped_bytes.add(
      static_cast<std::uint64_t>(result.dropped_bytes));
  metrics.capacity_violations.add(result.capacity_violations);
  metrics.inflight_bytes.set(result.inflight_bytes);
  metrics.round_seconds.observe(watch.seconds());
  return result;
}

std::uint64_t DataplaneSim::state_signature() const {
  std::uint64_t hash = 0x64617461706c616eull;  // "dataplan"
  hash = mix64(hash, round_);
  auto fold_pipeline = [&hash](std::uint64_t path_id,
                               std::span<const Hop> hops) {
    hash = mix64(hash, path_id);
    for (const Hop& hop : hops) {
      hash = mix64(hash, static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(hop.edge)));
      hash = mix64(hash, hop.queued);
      hash = mix64(hash, hop.arriving);
    }
  };
  for (const Flowlet& fl : flowlets_) {
    hash = mix64(hash, static_cast<std::uint64_t>(fl.od));
    hash = mix64(hash, fl.offered_gbps);
    hash = mix64(hash, fl.rate_gbps);
    hash = mix64(hash, fl.deferred_bytes);
    hash = mix64(hash, fl.injected_bytes);
    hash = mix64(hash, fl.delivered_bytes);
    hash = mix64(hash, fl.dropped_bytes);
    fold_pipeline(fl.path_id, active_hops(fl));
    hash = mix64(hash, static_cast<std::uint64_t>(fl.draining.size()));
    for (const Pipeline& pipeline : fl.draining)
      fold_pipeline(pipeline.path_id, pipeline.hops);
  }
  for (const double queued : link_queued_) hash = mix64(hash, queued);
  for (const double util : link_util_) hash = mix64(hash, util);
  return hash;
}

std::vector<std::byte> DataplaneSim::save_state() const {
  replay::wire::ByteWriter writer;
  auto encode_pipeline = [&writer](std::uint64_t path_id,
                                   std::span<const Hop> hops) {
    writer.u64(path_id);
    writer.u32(static_cast<std::uint32_t>(hops.size()));
    for (const Hop& hop : hops) {
      writer.i32(hop.edge);
      writer.f64(hop.queued);
      writer.f64(hop.arriving);
    }
  };
  writer.u32(kStateMagic);
  writer.u32(kStateVersion);
  writer.u64(static_cast<std::uint64_t>(edge_count_));
  writer.u64(static_cast<std::uint64_t>(ods_));
  writer.u64(static_cast<std::uint64_t>(config_.flowlets_per_od));
  writer.u64(round_);
  for (const Flowlet& fl : flowlets_) {
    writer.u32(fl.od);
    writer.f64(fl.offered_gbps);
    writer.f64(fl.rate_gbps);
    writer.f64(fl.deferred_bytes);
    writer.f64(fl.injected_bytes);
    writer.f64(fl.delivered_bytes);
    writer.f64(fl.dropped_bytes);
    encode_pipeline(fl.path_id, active_hops(fl));
    writer.u32(static_cast<std::uint32_t>(fl.draining.size()));
    for (const Pipeline& pipeline : fl.draining)
      encode_pipeline(pipeline.path_id, pipeline.hops);
  }
  for (const double queued : link_queued_) writer.f64(queued);
  for (const double util : link_util_) writer.f64(util);
  // Trailing integrity fold: restore_state recomputes the signature of the
  // decoded state and rejects any payload whose bytes were disturbed —
  // framing checks alone cannot catch a flipped bit inside a double.
  writer.u64(state_signature());
  return writer.take();
}

void DataplaneSim::restore_state(std::span<const std::byte> payload) {
  replay::wire::ByteReader reader(payload);
  RWC_CHECK_MSG(reader.u32() == kStateMagic && reader.u32() == kStateVersion,
                "dataplane: unrecognized state payload");
  RWC_CHECK_MSG(reader.u64() == edge_count_ && reader.u64() == ods_ &&
                    reader.u64() == config_.flowlets_per_od,
                "dataplane: state payload shape mismatch");
  const std::uint64_t round = reader.u64();
  std::vector<Flowlet> flowlets(flowlets_.size());
  std::vector<Hop> hops;
  // Every count is checked against the remaining payload before anything
  // is sized by it, and every hop edge against the topology, because
  // run_round indexes per-link state with them. A truncated payload reads
  // zeros from here on and is rejected by the final check.
  auto read_pipeline = [&](std::vector<Hop>& out, std::size_t flowlet) {
    const std::uint64_t path_id = reader.u64();
    const std::uint32_t count = reader.u32();
    RWC_CHECK_MSG(reader.fits(count), "dataplane: corrupt state payload");
    for (std::uint32_t h = 0; h < count; ++h) {
      Hop hop;
      hop.edge = reader.i32();
      hop.queued = reader.f64();
      hop.arriving = reader.f64();
      RWC_CHECK_MSG(hop.edge >= 0 && static_cast<std::size_t>(hop.edge) <
                                         edge_count_,
                    "dataplane: state payload hop edge out of range");
      hop.flowlet = static_cast<std::uint32_t>(flowlet);
      out.push_back(hop);
    }
    if (count > 0) out.back().last = 1;
    return path_id;
  };
  for (std::size_t f = 0; f < flowlets.size(); ++f) {
    Flowlet& fl = flowlets[f];
    fl.od = reader.u32();
    RWC_CHECK_MSG(reader.failed() || fl.od == f / config_.flowlets_per_od,
                  "dataplane: state payload flowlet under the wrong OD");
    fl.offered_gbps = reader.f64();
    fl.rate_gbps = reader.f64();
    fl.deferred_bytes = reader.f64();
    fl.injected_bytes = reader.f64();
    fl.delivered_bytes = reader.f64();
    fl.dropped_bytes = reader.f64();
    fl.hops_begin = static_cast<std::uint32_t>(hops.size());
    fl.path_id = read_pipeline(hops, f);
    fl.hops_end = static_cast<std::uint32_t>(hops.size());
    const std::uint32_t draining = reader.u32();
    RWC_CHECK_MSG(reader.fits(draining), "dataplane: corrupt state payload");
    fl.draining.resize(draining);
    for (Pipeline& pipeline : fl.draining)
      pipeline.path_id = read_pipeline(pipeline.hops, f);
  }
  std::vector<double> link_queued(edge_count_);
  std::vector<double> link_util(edge_count_);
  for (double& queued : link_queued) queued = reader.f64();
  for (double& util : link_util) util = reader.f64();
  const std::uint64_t stored_signature = reader.u64();
  RWC_CHECK_MSG(!reader.failed() && reader.exhausted(),
                "dataplane: truncated state payload");
  std::uint64_t restored_round = round;
  std::swap(round_, restored_round);
  std::swap(flowlets_, flowlets);
  std::swap(hops_, hops);
  std::swap(link_queued_, link_queued);
  std::swap(link_util_, link_util);
  if (state_signature() != stored_signature) {
    // Strong guarantee: put the pre-restore state back before rejecting.
    std::swap(round_, restored_round);
    std::swap(flowlets_, flowlets);
    std::swap(hops_, hops);
    std::swap(link_queued_, link_queued);
    std::swap(link_util_, link_util);
    RWC_CHECK_MSG(false, "dataplane: state payload signature mismatch");
  }
}

}  // namespace rwc::dataplane
