#include "dataplane/dataplane.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dataplane/wcmp.hpp"
#include "fault/registry.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::dataplane {

namespace {

using util::combine64;
using util::combine_double;

/// Utilization stand-in for a dark link with queued bytes: large enough
/// that one multiplicative cut collapses the rate, small enough to keep
/// the arithmetic finite.
constexpr double kDarkUtilization = 1e6;
/// Rate floor as a fraction of the flowlet's allocated rate.
constexpr double kMinRateFraction = 0x1.0p-20;
/// Quanta counts stay below 2^53, so a double holds each one exactly and
/// the products in share() round at most once.
constexpr double kMaxQuanta = 0x1.0p53;
constexpr double kQuanta = static_cast<double>(kQuantaPerByte);

struct Metrics {
  obs::Counter& rounds;
  obs::Counter& ticks;
  obs::Counter& migrations;
  obs::Counter& rate_cuts;
  obs::Counter& delivered_bytes;
  obs::Counter& dropped_bytes;
  obs::Counter& capacity_violations;
  obs::Gauge& inflight_bytes;
  obs::Gauge& classes;
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
        obs::Registry::global().gauge("dataplane.classes"),
        obs::Registry::global().histogram("dataplane.round.seconds"),
    };
    return metrics;
  }
};

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Quanta counts to and from double go through std::int64_t, one
/// instruction each way; below 2^53 both conversions are exact, as the
/// unsigned ones are.
double to_double(std::uint64_t quanta) {
  return static_cast<double>(static_cast<std::int64_t>(quanta));
}
std::uint64_t to_quanta(double quanta) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(quanta));
}

/// whole_quanta's failure, out of line so that the check inlines.
[[noreturn, gnu::cold, gnu::noinline]] void throw_quanta_overflow() {
  util::throw_check_failure("check", "!(quanta >= kMaxQuanta)", __FILE__,
                            __LINE__, "dataplane: byte count overflow");
}

/// Whole quanta in `quanta` (rounded down; 0 for anything not positive).
std::uint64_t whole_quanta(double quanta) {
  if (quanta >= kMaxQuanta) [[unlikely]]
    throw_quanta_overflow();
  return quanta > 0.0 ? to_quanta(quanta) : 0;
}

/// The ratio that scales `demand` quanta into `supply`: 1 when it fits.
double fit_ratio(std::uint64_t supply, std::uint64_t demand) {
  return demand > supply ? to_double(supply) / to_double(demand) : 1.0;
}

/// floor(quanta * ratio): the whole quanta a proportional discipline
/// grants one part of a total that `ratio` (from fit_ratio) scales into a
/// supply. The ratio and the product each round once, so every grant is
/// at most (1 + 2^-52)^2 times its exact share, and the grants of parts
/// summing to the total add up to less than supply + 1: never above the
/// supply, a whole number below 2^51. With ratio 1 the grant is `quanta`
/// itself.
std::uint64_t share(std::uint64_t quanta, double ratio) {
  return to_quanta(to_double(quanta) * ratio);
}

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
  const std::size_t flowlets = ods_ * config_.flowlets_per_od;
  RWC_CHECK_MSG(flowlets < (std::size_t{1} << 31),
                "dataplane: too many flowlets");
  // Every flowlet starts idle, on no path and in no class.
  picks_.assign(flowlets, 0);
  ledgers_.assign(ods_, Ledger{});
  draining_.assign(ods_, {});
  parked_.assign(ods_, 0);
  link_queued_.assign(edge_count_, 0);
  link_util_.assign(edge_count_, 0.0);
}

void DataplaneSim::retire(std::uint32_t od, std::uint64_t path_id,
                          std::span<const Hop> hops) {
  if (inflight(hops) == 0) return;
  auto same_edges = [hops](const Pipeline& pipeline) {
    return std::equal(hops.begin(), hops.end(), pipeline.hops.begin(),
                      pipeline.hops.end(), [](const Hop& a, const Hop& b) {
                        return a.edge == b.edge;
                      });
  };
  for (Pipeline& pipeline : draining_[od]) {
    if (pipeline.path_id != path_id || !same_edges(pipeline)) continue;
    for (std::size_t h = 0; h < hops.size(); ++h) {
      pipeline.hops[h].queued += hops[h].queued;
      pipeline.hops[h].arriving += hops[h].arriving;
    }
    return;
  }
  draining_[od].push_back(Pipeline{{hops.begin(), hops.end()}, path_id});
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
  // Per path of the OD: its class among `classes`. Per class before
  // install: whether a member stays on its path.
  std::vector<std::size_t> class_of_path;
  std::vector<std::uint8_t> kept;

  std::vector<PathClass> classes;
  classes.reserve(classes_.size());
  std::vector<Hop> hops;
  hops.reserve(hops_.size());
  std::size_t next_old = 0;  // classes_ is grouped by OD, ascending
  for (std::size_t i = 0; i < ods_; ++i) {
    const std::uint32_t od = static_cast<std::uint32_t>(i);
    const std::size_t old_begin = next_old;
    while (next_old < classes_.size() && classes_[next_old].od == od)
      ++next_old;
    const std::span<const PathClass> before(classes_.data() + old_begin,
                                            next_old - old_begin);
    const te::FlowAssignment::DemandRouting& routing = assignment.routings[i];
    weights.clear();
    identities.clear();
    paths.clear();
    for (const auto& [path, volume] : routing.paths) {
      if (!(volume.value > 0.0) || path.empty()) continue;
      const std::uint64_t identity = path_identity(path.edges);
      // A path listed twice is one path carrying both volumes.
      const auto same = std::find(identities.begin(), identities.end(),
                                  identity);
      if (same != identities.end()) {
        weights[static_cast<std::size_t>(same - identities.begin())] +=
            volume.value;
        continue;
      }
      weights.push_back(volume.value);
      identities.push_back(identity);
      paths.push_back(&path);
    }

    std::uint64_t* const pick_of = picks_.data() + i * kF;
    std::fill(picks.begin(), picks.end(), 0);
    if (!paths.empty()) {
      // WCMP placement (dataplane.hash faults perturb per flowlet).
      counts.assign(paths.size(), 0);
      for (std::size_t j = 0; j < kF; ++j) {
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
        // One path is every flowlet's pick, whatever the hash.
        std::size_t pick =
            paths.size() == 1
                ? 0
                : wcmp_pick(flowlet_key(od, static_cast<std::uint32_t>(j),
                                        salt),
                            weights, identities);
        if (stale && pick_of[j] != 0) {
          for (std::size_t p = 0; p < identities.size(); ++p)
            if (identities[p] == pick_of[j]) {
              pick = p;
              break;
            }
        }
        picks[j] = pick;
        ++counts[pick];
      }
      // Coverage fixup: a path the solver loaded must carry at least one
      // flowlet, or its volume would be silently unroutable. Steal from
      // the most-loaded path (lowest index on ties) deterministically.
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
    }

    // A class keeps its pipeline while one of its members stays on its
    // path; every flowlet that leaves a path for another migrates.
    kept.assign(before.size(), 0);
    for (std::size_t j = 0; j < kF; ++j) {
      const std::uint64_t from = pick_of[j];
      const std::uint64_t to = paths.empty() ? 0 : identities[picks[j]];
      pick_of[j] = to;
      if (from == 0 || to == 0) continue;
      if (from != to) {
        ++result.migrations;
        continue;
      }
      for (std::size_t b = 0; b < before.size(); ++b)
        if (before[b].path_id == from) kept[b] = 1;
    }

    // One class per loaded path, in the routing's path order. Each member
    // is shaped to an equal share of its path's installed volume, so
    // per-path offered load equals the solver's split exactly (goodput
    // can never exceed the allocation except by transient queue drain —
    // docs/DATAPLANE.md §5).
    const std::size_t first = classes.size();
    class_of_path.assign(paths.size(), 0);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (counts[p] == 0) continue;
      class_of_path[p] = classes.size();
      PathClass& cls = classes.emplace_back();
      cls.od = od;
      cls.path_id = identities[p];
      cls.offered_gbps = weights[p] / static_cast<double>(counts[p]);
      cls.hops_begin = static_cast<std::uint32_t>(hops.size());
      std::size_t b = 0;
      while (b < before.size() &&
             !(kept[b] != 0 && before[b].path_id == cls.path_id))
        ++b;
      if (b < before.size()) {
        // Joining members take the class's rate and carry. Their own
        // carry, under one quantum, was never charged.
        const PathClass& prev = before[b];
        const std::span<const Hop> active = active_hops(prev);
        hops.insert(hops.end(), active.begin(), active.end());
        // Same path, new allocation: the controller re-shapes the source.
        cls.rate_gbps = prev.offered_gbps != cls.offered_gbps
                            ? cls.offered_gbps
                            : prev.rate_gbps;
        cls.carry = prev.carry;
        cls.deferred = prev.deferred;
      } else {
        for (const graph::EdgeId edge : paths[p]->edges) {
          Hop& hop = hops.emplace_back();
          hop.edge = edge.value;
          hop.od = od;
        }
        hops.back().last = 1;
        cls.rate_gbps = cls.offered_gbps;
      }
      cls.hops_end = static_cast<std::uint32_t>(hops.size());
    }
    if (!paths.empty())
      for (std::size_t j = 0; j < kF; ++j)
        classes[class_of_path[picks[j]]].members.push_back(
            static_cast<std::uint32_t>(i * kF + j));

    // A class that lost every member leaves its in-flight quanta
    // draining on its path and its deferred ones parked; the OD's first
    // class sends whatever is parked.
    for (std::size_t b = 0; b < before.size(); ++b) {
      if (kept[b] != 0) continue;
      retire(od, before[b].path_id, active_hops(before[b]));
      parked_[i] += before[b].deferred;
    }
    if (classes.size() > first) {
      classes[first].deferred += parked_[i];
      parked_[i] = 0;
    }
  }
  classes_ = std::move(classes);
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
  const double quanta_per_gbps_tick = dt * 1e9 / 8.0 * kQuanta;
  const double quanta_per_gbps_buffer =
      config_.buffer_ms * 1e6 / 8.0 * kQuanta;
  const double eta = config_.target_utilization;

  RoundResult result;
  result.od_goodput_gbps.assign(ods_, 0.0);
  result.od_delivered_bytes.assign(ods_, 0);
  result.links.assign(edge_count_, LinkRoundStats{});
  result.link_od_measured_bytes.assign(edge_count_ * ods_, 0);

  std::uint64_t dropped_before = 0;
  for (const Ledger& ledger : ledgers_) dropped_before += ledger.dropped;

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

  const std::size_t nf = picks_.size();
  std::vector<std::uint64_t> cap(edge_count_, 0);
  std::vector<std::uint64_t> buffer(edge_count_, 0);
  // Per link: the quanta landing next tick (kept up to date as sources
  // inject and hops forward), whether this tick's arrivals overflow the
  // free buffer and the share of them it then admits, the share of the
  // queue served, and what was served.
  std::vector<std::uint64_t> incoming(edge_count_, 0);
  std::vector<std::uint8_t> short_of_room(edge_count_, 0);
  std::vector<double> admit(edge_count_, 1.0);
  std::vector<double> frac(edge_count_, 1.0);
  std::vector<std::uint64_t> tick_serviced(edge_count_, 0);
  std::vector<std::size_t> event_cursor(edge_count_, 0);
  // Per OD: delivered this round, in total and over the measurement.
  std::vector<std::uint64_t>& od_delivered = result.od_delivered_bytes;
  std::vector<std::uint64_t> od_measured(ods_, 0);
  // ODs with draining pipelines.
  std::vector<std::uint32_t> drainers;
  for (std::size_t i = 0; i < ods_; ++i)
    if (!draining_[i].empty()) drainers.push_back(static_cast<std::uint32_t>(i));
  // Visits every hop: the flat active array, then each draining pipeline.
  auto for_each_pipeline = [&](auto&& visit) {
    visit(std::span<Hop>(hops_));
    for (const std::uint32_t od : drainers)
      for (Pipeline& pipeline : draining_[od])
        visit(std::span<Hop>(pipeline.hops));
  };
  // The first tick's arrivals: what the previous round left in flight.
  for_each_pipeline([&](std::span<Hop> hops) {
    for (const Hop& hop : hops)
      incoming[static_cast<std::size_t>(hop.edge)] += hop.arriving;
  });

  const bool faults_armed = fault::Registry::global().armed();
  bool measuring = false;

  // A link short of room admits each hop's share of its arrivals
  // (fit_ratio/share) and drops the rest.
  auto land_short = [&](std::span<Hop> hops) {
    for (Hop& hop : hops) {
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint64_t arrived = hop.arriving;
      if (arrived == 0 || short_of_room[e] == 0) continue;
      hop.arriving = 0;
      const std::uint64_t accepted = share(arrived, admit[e]);
      const std::uint64_t dropped = arrived - accepted;
      if (dropped > 0) {
        ledgers_[hop.od].dropped += dropped;
        result.links[e].dropped_bytes += dropped;
        if (measuring) result.links[e].measured_dropped_bytes += dropped;
      }
      hop.queued += accepted;
      link_queued_[e] += accepted;
    }
  };
  // Each hop lands what is left of its arrivals, then proportional
  // service, store-and-forward to the next hop, delivery credited to the
  // OD, and the per-link / per-OD accounting of what left. The walk runs
  // from each path's last hop to its first, so a hop forwards into a hop
  // that has already landed and served this tick: the grant lands next
  // tick.
  auto serve = [&](std::span<Hop> hops) {
    for (std::size_t h = hops.size(); h-- > 0;) {
      Hop& hop = hops[h];
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint64_t queued = hop.queued + hop.arriving;
      hop.arriving = 0;
      const std::uint64_t s = share(queued, frac[e]);
      hop.queued = queued - s;
      if (s == 0) continue;
      tick_serviced[e] += s;
      if (measuring) result.link_od_measured_bytes[e * ods_ + hop.od] += s;
      if (hop.last) {
        od_delivered[hop.od] += s;
        if (measuring) od_measured[hop.od] += s;
      } else {
        Hop& next = hops[h + 1];
        next.arriving += s;
        incoming[static_cast<std::size_t>(next.edge)] += s;
      }
    }
  };
  auto set_capacity = [&](std::size_t e, double gbps) {
    cap[e] = whole_quanta(gbps * quanta_per_gbps_tick);
    buffer[e] = whole_quanta(std::max(gbps, config_.min_buffer_gbps) *
                             quanta_per_gbps_buffer);
  };
  for (std::size_t e = 0; e < edge_count_; ++e) set_capacity(e, 0.0);

  for (std::size_t tick = 0; tick < ticks; ++tick) {
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

    // Sweep 1: rate control and injection per class. Rate control reads
    // the utilization the link pass left on the class's own path links
    // and the class's own state; injection adds to the class's first hop
    // and to its link's arrivals.
    for (PathClass& cls : classes_) {
      const std::uint64_t k = cls.members.size();
      if (cls.offered_gbps > 0.0) {
        double util = 0.0;
        for (std::uint32_t h = cls.hops_begin; h < cls.hops_end; ++h)
          util = std::max(
              util, link_util_[static_cast<std::size_t>(hops_[h].edge)]);
        // Congested when some path link's standing queue exceeds 1/eta
        // ticks' worth of service. util == 1 is the steady state of a
        // link the solver fills to capacity (each tick's arrivals are
        // exactly one tick's service) — NOT congestion; only backlog
        // growth beyond that margin cuts.
        if (util * eta > 1.0) {
          cls.rate_gbps = std::max(cls.rate_gbps * (eta / util),
                                   cls.offered_gbps * kMinRateFraction);
          result.rate_cuts += k;
        } else {
          cls.rate_gbps = std::min(
              cls.offered_gbps,
              cls.rate_gbps + config_.additive_increase * cls.offered_gbps);
        }
      } else {
        cls.rate_gbps = 0.0;
      }
      // Each member generates the whole quanta of its rate; the
      // sub-quantum remainder carries to the next tick. Quanta deferred
      // on the class's last tick go out first.
      const double generating =
          cls.rate_gbps * quanta_per_gbps_tick + cls.carry;
      const std::uint64_t generated = whole_quanta(generating);
      cls.carry = generating - to_double(generated);
      std::uint64_t sent = cls.deferred;
      cls.deferred = 0;
      // The ledger charges quanta when a source GENERATES them (deferred
      // quanta were charged on the tick that generated them), so kDelay
      // parking balances against the inflight term: cumulative injected
      // == delivered + dropped + inflight holds under every fault plan,
      // not just clean runs.
      Ledger& ledger = ledgers_[cls.od];
      ledger.injected += k * generated;
      if (!faults_armed || generated == 0) {
        sent += k * generated;
      } else {
        // Each member draws its own (tick, flowlet) action, and its
        // outcome adds to the class's totals.
        for (const std::uint32_t f : cls.members) {
          switch (fault::at("dataplane.packet",
                            static_cast<std::uint64_t>(tick) * nf + f)
                      .kind) {
            case fault::Kind::kDrop:
              // Lost before entering the network: dropped at the source
              // (the generation charge keeps the ledger balanced).
              ledger.dropped += generated;
              break;
            case fault::Kind::kDuplicate:
              // The duplicated copies are new quanta on the wire.
              ledger.injected += generated;
              sent += 2 * generated;
              break;
            case fault::Kind::kDelay:
              cls.deferred += generated;
              break;
            default:
              sent += generated;
              break;
          }
        }
      }
      Hop& first = hops_[cls.hops_begin];
      first.arriving += sent;
      incoming[static_cast<std::size_t>(first.edge)] += sent;
    }

    // Admission: a link whose free buffer cannot hold all of this tick's
    // arrivals (the branch fit_ratio takes) is short of room, and its
    // hops land one by one in a pre-pass. Every other link admits them
    // whole: its queue total takes them in the link pass below, and its
    // hops land in the service pass.
    bool any_short = false;
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::uint64_t room =
          buffer[e] > link_queued_[e] ? buffer[e] - link_queued_[e] : 0;
      short_of_room[e] = incoming[e] > room;
      if (short_of_room[e] != 0) {
        admit[e] = fit_ratio(room, incoming[e]);
        any_short = true;
      }
    }
    if (any_short) for_each_pipeline(land_short);

    // Links: peak occupancy (a queue only grows while quanta land), the
    // service ratio and the utilization signal the NEXT tick's rate
    // control reads.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (short_of_room[e] == 0) link_queued_[e] += incoming[e];
      incoming[e] = 0;
      const std::uint64_t queued = link_queued_[e];
      LinkRoundStats& link = result.links[e];
      link.max_queued_bytes = std::max(link.max_queued_bytes, queued);
      frac[e] = fit_ratio(cap[e], queued);
      link_util_[e] = cap[e] > 0 ? to_double(queued) / to_double(cap[e])
                                 : (queued > 0 ? kDarkUtilization : 0.0);
    }

    // Service pass: every hop lands, serves and forwards, with the
    // per-OD accounting; drained-pipeline retirement. Service reads only
    // frac and the hop's own pipeline.
    for_each_pipeline(serve);
    for (const std::uint32_t od : drainers)
      std::erase_if(draining_[od], [](const Pipeline& pipeline) {
        return inflight(pipeline.hops) == 0;
      });
    std::erase_if(drainers,
                  [this](std::uint32_t od) { return draining_[od].empty(); });

    // Per-link totals of what left, and the capacity-safety audit.
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::uint64_t served = tick_serviced[e];
      tick_serviced[e] = 0;
      link_queued_[e] -= served;
      LinkRoundStats& link = result.links[e];
      link.serviced_bytes += served;
      if (measuring) link.measured_bytes += served;
      if (served > cap[e]) {
        if (in_window)
          ++result.window_violations;
        else
          ++result.capacity_violations;
      }
    }
  }

  // Round end: each OD's ledger takes its deliveries, and what is still
  // queued, arriving, deferred or parked is in flight.
  for (const PathClass& cls : classes_)
    result.inflight_bytes += inflight(active_hops(cls)) + cls.deferred;
  for (std::size_t i = 0; i < ods_; ++i) {
    Ledger& ledger = ledgers_[i];
    ledger.delivered += od_delivered[i];
    result.injected_bytes += ledger.injected;
    result.delivered_bytes += ledger.delivered;
    result.dropped_bytes += ledger.dropped;
    result.inflight_bytes += parked_[i];
    for (const Pipeline& pipeline : draining_[i])
      result.inflight_bytes += inflight(pipeline.hops);
    result.od_goodput_gbps[i] = static_cast<double>(od_measured[i]) /
                                kQuanta * 8.0 / result.measure_seconds / 1e9;
  }
  result.signature = state_signature();
  ++round_;

  std::uint64_t round_delivered = 0;
  for (const std::uint64_t quanta : od_delivered) round_delivered += quanta;
  metrics.rounds.add(1);
  metrics.ticks.add(static_cast<std::uint64_t>(ticks));
  metrics.migrations.add(result.migrations);
  metrics.rate_cuts.add(result.rate_cuts);
  metrics.delivered_bytes.add(round_delivered / kQuantaPerByte);
  metrics.dropped_bytes.add((result.dropped_bytes - dropped_before) /
                            kQuantaPerByte);
  metrics.capacity_violations.add(result.capacity_violations);
  metrics.inflight_bytes.set(static_cast<double>(result.inflight_bytes) /
                             kQuanta);
  metrics.classes.set(static_cast<double>(classes_.size()));
  metrics.round_seconds.observe(watch.seconds());
  return result;
}

std::uint64_t DataplaneSim::state_signature() const {
  std::uint64_t hash = 0x64617461706c616eull;  // "dataplan"
  hash = combine64(hash, round_);
  auto fold_pipeline = [&hash](std::uint64_t path_id,
                               std::span<const Hop> hops) {
    hash = combine64(hash, path_id);
    hash = combine64(hash, hops.size());
    for (const Hop& hop : hops) {
      hash = combine64(hash, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(hop.edge)));
      hash = combine64(hash, hop.queued);
      hash = combine64(hash, hop.arriving);
    }
  };
  for (const std::uint64_t pick : picks_) hash = combine64(hash, pick);
  hash = combine64(hash, classes_.size());
  for (const PathClass& cls : classes_) {
    hash = combine64(hash, cls.od);
    hash = combine_double(hash, cls.offered_gbps);
    hash = combine_double(hash, cls.rate_gbps);
    hash = combine_double(hash, cls.carry);
    hash = combine64(hash, cls.deferred);
    fold_pipeline(cls.path_id, active_hops(cls));
  }
  for (std::size_t i = 0; i < ods_; ++i) {
    hash = combine64(hash, ledgers_[i].injected);
    hash = combine64(hash, ledgers_[i].delivered);
    hash = combine64(hash, ledgers_[i].dropped);
    hash = combine64(hash, parked_[i]);
    hash = combine64(hash, draining_[i].size());
    for (const Pipeline& pipeline : draining_[i])
      fold_pipeline(pipeline.path_id, pipeline.hops);
  }
  for (const double util : link_util_) hash = combine_double(hash, util);
  return hash;
}

DataplaneSim::State DataplaneSim::save_state() const {
  auto save_pipeline = [](std::uint64_t path_id, std::span<const Hop> hops) {
    State::Pipeline pipeline{path_id, {}};
    for (const Hop& hop : hops)
      pipeline.hops.push_back({hop.edge, hop.queued, hop.arriving});
    return pipeline;
  };
  State state;
  state.round = round_;
  state.picks = picks_;
  for (const PathClass& cls : classes_)
    state.classes.push_back({cls.od, cls.offered_gbps, cls.rate_gbps,
                             cls.carry, cls.deferred,
                             save_pipeline(cls.path_id, active_hops(cls))});
  for (std::size_t i = 0; i < ods_; ++i) {
    State::Od& od = state.ods.emplace_back();
    for (const Pipeline& pipeline : draining_[i])
      od.draining.push_back(save_pipeline(pipeline.path_id, pipeline.hops));
    od.parked = parked_[i];
    od.ledger = ledgers_[i];
  }
  state.link_util = link_util_;
  return state;
}

void DataplaneSim::restore_state(const State& state) {
  const std::size_t kF = config_.flowlets_per_od;
  RWC_CHECK_MSG(state.picks.size() == picks_.size() &&
                    state.ods.size() == ods_ &&
                    state.link_util.size() == edge_count_,
                "dataplane: state shape mismatch");
  // Everything run_round indexes or converts is checked before the sim
  // changes: classes and picks index per-OD state, hop edges per-link
  // state, and rates, carries and quanta convert between double and
  // integer.
  std::vector<std::uint64_t> link_queued(edge_count_, 0);
  auto check_quanta = [](std::uint64_t quanta) {
    RWC_CHECK_MSG(static_cast<double>(quanta) < kMaxQuanta,
                  "dataplane: state quanta count out of range");
  };
  auto check_pipeline = [&](const State::Pipeline& pipeline) {
    for (const State::Hop& hop : pipeline.hops) {
      RWC_CHECK_MSG(hop.edge >= 0 && static_cast<std::size_t>(hop.edge) <
                                         edge_count_,
                    "dataplane: state hop edge out of range");
      check_quanta(hop.queued);
      check_quanta(hop.arriving);
      std::uint64_t& queued = link_queued[static_cast<std::size_t>(hop.edge)];
      queued += hop.queued;
      check_quanta(queued);
    }
  };
  // The classes of OD i are [od_first[i], od_first[i + 1]).
  std::vector<std::size_t> od_first(ods_ + 1, 0);
  for (std::size_t c = 0; c < state.classes.size(); ++c) {
    const std::uint32_t od = state.classes[c].od;
    RWC_CHECK_MSG(od < ods_, "dataplane: state class outside the ODs");
    RWC_CHECK_MSG(c == 0 || state.classes[c - 1].od <= od,
                  "dataplane: state classes out of OD order");
    ++od_first[od + 1];
  }
  for (std::size_t i = 0; i < ods_; ++i) od_first[i + 1] += od_first[i];
  for (std::size_t c = 0; c < state.classes.size(); ++c) {
    const State::Class& cls = state.classes[c];
    RWC_CHECK_MSG(cls.active.path_id != 0 && !cls.active.hops.empty(),
                  "dataplane: state class without a path");
    for (std::size_t other = od_first[cls.od]; other < c; ++other)
      RWC_CHECK_MSG(state.classes[other].active.path_id != cls.active.path_id,
                    "dataplane: two state classes on one path");
    RWC_CHECK_MSG(std::isfinite(cls.offered_gbps) && cls.offered_gbps >= 0.0 &&
                      std::isfinite(cls.rate_gbps) && cls.rate_gbps >= 0.0 &&
                      cls.carry >= 0.0 && cls.carry < 1.0,
                  "dataplane: state rate out of range");
    check_quanta(cls.deferred);
    check_pipeline(cls.active);
  }
  // Every pick names a class of its flowlet's OD, and every class has a
  // member.
  std::vector<std::size_t> class_of(picks_.size(), 0);
  std::vector<std::uint8_t> has_member(state.classes.size(), 0);
  for (std::size_t f = 0; f < state.picks.size(); ++f) {
    if (state.picks[f] == 0) continue;
    const std::size_t od = f / kF;
    std::size_t c = od_first[od];
    while (c < od_first[od + 1] &&
           state.classes[c].active.path_id != state.picks[f])
      ++c;
    RWC_CHECK_MSG(c < od_first[od + 1],
                  "dataplane: state pick names no class of its OD");
    class_of[f] = c;
    has_member[c] = 1;
  }
  RWC_CHECK_MSG(std::find(has_member.begin(), has_member.end(), 0) ==
                    has_member.end(),
                "dataplane: state class without members");
  for (const State::Od& od : state.ods) {
    for (const State::Pipeline& pipeline : od.draining)
      check_pipeline(pipeline);
    check_quanta(od.parked);
  }

  auto restore_hops = [](const State::Pipeline& pipeline, std::uint32_t od,
                         std::vector<Hop>& out) {
    for (const State::Hop& saved : pipeline.hops) {
      Hop& hop = out.emplace_back();
      hop.edge = saved.edge;
      hop.od = od;
      hop.queued = saved.queued;
      hop.arriving = saved.arriving;
    }
    if (!pipeline.hops.empty()) out.back().last = 1;
  };
  std::vector<PathClass> classes(state.classes.size());
  std::vector<Hop> hops;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const State::Class& saved = state.classes[c];
    PathClass& cls = classes[c];
    cls.od = saved.od;
    cls.path_id = saved.active.path_id;
    cls.offered_gbps = saved.offered_gbps;
    cls.rate_gbps = saved.rate_gbps;
    cls.carry = saved.carry;
    cls.deferred = saved.deferred;
    cls.hops_begin = static_cast<std::uint32_t>(hops.size());
    restore_hops(saved.active, saved.od, hops);
    cls.hops_end = static_cast<std::uint32_t>(hops.size());
  }
  for (std::size_t f = 0; f < state.picks.size(); ++f)
    if (state.picks[f] != 0)
      classes[class_of[f]].members.push_back(static_cast<std::uint32_t>(f));
  for (std::size_t i = 0; i < ods_; ++i) {
    const State::Od& saved = state.ods[i];
    std::vector<Pipeline>& draining = draining_[i];
    draining.clear();
    for (const State::Pipeline& pipeline : saved.draining) {
      Pipeline& restored = draining.emplace_back();
      restored.path_id = pipeline.path_id;
      restore_hops(pipeline, static_cast<std::uint32_t>(i), restored.hops);
    }
    parked_[i] = saved.parked;
    ledgers_[i] = saved.ledger;
  }
  round_ = state.round;
  picks_ = state.picks;
  classes_ = std::move(classes);
  hops_ = std::move(hops);
  link_queued_ = std::move(link_queued);
  link_util_ = state.link_util;
}

}  // namespace rwc::dataplane
