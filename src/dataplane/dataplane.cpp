#include "dataplane/dataplane.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

/// The dataplane.packet kinds a source honors (docs/DATAPLANE.md §7), in
/// the order run_round groups a class's members by them.
constexpr std::array<fault::Kind, 4> kPacketKinds = {
    fault::Kind::kNone, fault::Kind::kDrop, fault::Kind::kDuplicate,
    fault::Kind::kDelay};

std::size_t packet_kind_index(fault::Kind kind) {
  for (std::size_t k = 1; k < kPacketKinds.size(); ++k)
    if (kPacketKinds[k] == kind) return k;
  return 0;
}

std::uint64_t bits_of(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

}  // namespace

struct DataplaneSim::Draft {
  FlowletClass cls;
  std::vector<Hop> active;
  bool migrated = false;  ///< install moved the members off a live path
};

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
  // Every OD's flowlets start idle and identical: one class each.
  class_of_.resize(flowlets);
  ledgers_.resize(flowlets);
  classes_.resize(ods_);
  for (std::size_t i = 0; i < ods_; ++i) {
    classes_[i].od = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < config_.flowlets_per_od; ++j) {
      const std::size_t f = i * config_.flowlets_per_od + j;
      classes_[i].members.push_back(static_cast<std::uint32_t>(f));
      class_of_[f] = static_cast<std::uint32_t>(i);
    }
  }
  link_queued_.assign(edge_count_, 0);
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

  // Every flowlet's next state is a function of its class and its pick,
  // so the members of a class that share a pick stay one draft; a class
  // whose members pick differently splits.
  auto draft_of = [&](const FlowletClass& old, std::size_t pick) {
    Draft draft;
    FlowletClass& cls = draft.cls;
    cls = old;
    cls.members.clear();
    const std::span<const Hop> active = active_hops(old);
    // A replaced active path keeps draining while it still holds quanta.
    auto retire = [&] {
      if (inflight(active) > 0)
        cls.draining.push_back(
            Pipeline{{active.begin(), active.end()}, cls.path_id});
    };
    if (paths.empty()) {
      // Unrouted OD: sources stop injecting; in-flight quanta keep
      // draining on their old paths.
      cls.offered_gbps = 0.0;
      cls.rate_gbps = 0.0;
      if (!active.empty()) {
        retire();
        cls.path_id = 0;
      }
      return draft;
    }
    // Shape each path's flowlets to an equal share of the installed path
    // volume, so per-path offered load equals the solver's split exactly
    // (goodput can never exceed the allocation except by transient queue
    // drain — docs/DATAPLANE.md §5).
    const double offered = weights[pick] / static_cast<double>(counts[pick]);
    const std::uint64_t path_id = identities[pick];
    if (cls.path_id != path_id) {
      draft.migrated = cls.path_id != 0;
      retire();
      cls.path_id = path_id;
      for (const graph::EdgeId edge : paths[pick]->edges) {
        Hop hop;
        hop.edge = edge.value;
        draft.active.push_back(hop);
      }
      draft.active.back().last = 1;
      cls.rate_gbps = offered;
    } else {
      draft.active.assign(active.begin(), active.end());
      // Same path, new allocation: the controller re-shapes the source.
      if (cls.offered_gbps != offered) cls.rate_gbps = offered;
    }
    cls.offered_gbps = offered;
    return draft;
  };

  std::vector<Draft> drafts;
  drafts.reserve(classes_.size());
  // The OD's drafts so far, keyed by (class before install, pick).
  std::vector<std::pair<std::uint32_t, std::size_t>> keys;
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

    std::fill(picks.begin(), picks.end(), 0);
    if (!paths.empty()) {
      // WCMP placement (dataplane.hash faults perturb per flowlet).
      counts.assign(paths.size(), 0);
      for (std::size_t j = 0; j < kF; ++j) {
        const std::uint64_t current_path =
            classes_[class_of_[i * kF + j]].path_id;
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
                : wcmp_pick(flowlet_key(static_cast<std::uint32_t>(i),
                                        static_cast<std::uint32_t>(j), salt),
                            weights, identities);
        if (stale && current_path != 0) {
          for (std::size_t p = 0; p < identities.size(); ++p)
            if (identities[p] == current_path) {
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

    const std::size_t first = drafts.size();
    keys.clear();
    for (std::size_t j = 0; j < kF; ++j) {
      const std::uint32_t f = static_cast<std::uint32_t>(i * kF + j);
      const std::pair<std::uint32_t, std::size_t> key{class_of_[f], picks[j]};
      std::size_t g = 0;
      while (g < keys.size() && keys[g] != key) ++g;
      if (g == keys.size()) {
        keys.push_back(key);
        drafts.push_back(draft_of(classes_[key.first], key.second));
      }
      drafts[first + g].cls.members.push_back(f);
    }
    for (std::size_t d = first; d < drafts.size(); ++d)
      if (drafts[d].migrated) result.migrations += drafts[d].cls.members.size();
  }
  layout(drafts);
}

void DataplaneSim::layout(std::vector<Draft>& drafts) {
  auto same_hops = [](std::span<const Hop> a, std::span<const Hop> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Hop& x, const Hop& y) {
                        return x.edge == y.edge && x.queued == y.queued &&
                               x.arriving == y.arriving;
                      });
  };
  // Bit-equal per-member state: everything but the members' ledgers.
  auto same_state = [&](const FlowletClass& cls, const Draft& draft) {
    const FlowletClass& other = draft.cls;
    if (cls.path_id != other.path_id ||
        bits_of(cls.offered_gbps) != bits_of(other.offered_gbps) ||
        bits_of(cls.rate_gbps) != bits_of(other.rate_gbps) ||
        bits_of(cls.carry) != bits_of(other.carry) ||
        cls.deferred != other.deferred ||
        !same_hops(active_hops(cls), draft.active) ||
        cls.draining.size() != other.draining.size())
      return false;
    for (std::size_t d = 0; d < cls.draining.size(); ++d)
      if (cls.draining[d].path_id != other.draining[d].path_id ||
          !same_hops(cls.draining[d].hops, other.draining[d].hops))
        return false;
    return true;
  };

  // Drafts arrive grouped by OD; each merges into the first laid-out
  // class of its OD whose state it matches.
  classes_.clear();
  hops_.clear();
  std::size_t od_begin = 0;
  for (Draft& draft : drafts) {
    FlowletClass& incoming = draft.cls;
    if (classes_.empty() || classes_.back().od != incoming.od)
      od_begin = classes_.size();
    std::size_t c = od_begin;
    while (c < classes_.size() && !same_state(classes_[c], draft)) ++c;
    if (c < classes_.size()) {
      std::vector<std::uint32_t>& members = classes_[c].members;
      const std::size_t middle = members.size();
      members.insert(members.end(), incoming.members.begin(),
                     incoming.members.end());
      std::inplace_merge(members.begin(),
                         members.begin() + static_cast<std::ptrdiff_t>(middle),
                         members.end());
      continue;
    }
    const std::uint32_t cls = static_cast<std::uint32_t>(c);
    incoming.hops_begin = static_cast<std::uint32_t>(hops_.size());
    for (Hop& hop : draft.active) {
      hop.cls = cls;
      hops_.push_back(hop);
    }
    incoming.hops_end = static_cast<std::uint32_t>(hops_.size());
    for (Pipeline& pipeline : incoming.draining)
      for (Hop& hop : pipeline.hops) hop.cls = cls;
    classes_.push_back(std::move(incoming));
  }
  for (std::size_t c = 0; c < classes_.size(); ++c)
    for (const std::uint32_t f : classes_[c].members)
      class_of_[f] = static_cast<std::uint32_t>(c);
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

  const std::size_t nf = class_of_.size();
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
  // Per class (growing as classes split): multiplicity, OD and the
  // rate-control signal (max utilization over the active path; the
  // service pass refreshes it for the next tick).
  std::vector<std::uint64_t> mult;
  std::vector<std::uint32_t> od_of;
  std::vector<double> path_util(classes_.size(), 0.0);
  // Classes with draining pipelines.
  std::vector<std::uint32_t> drainers;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    FlowletClass& cls = classes_[c];
    cls.measured = 0;
    cls.round_delivered = 0;
    mult.push_back(cls.members.size());
    od_of.push_back(cls.od);
    if (!cls.draining.empty())
      drainers.push_back(static_cast<std::uint32_t>(c));
  }
  // Visits every hop: the flat active array, then each draining pipeline.
  auto for_each_pipeline = [&](auto&& visit) {
    visit(std::span<Hop>(hops_), true);
    for (const std::uint32_t c : drainers)
      for (Pipeline& pipeline : classes_[c].draining)
        visit(std::span<Hop>(pipeline.hops), false);
  };
  // The first tick's rate-control signal, and its arrivals: what the
  // previous round left in flight.
  for_each_pipeline([&](std::span<Hop> hops, bool active) {
    for (const Hop& hop : hops) {
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      if (active)
        path_util[hop.cls] = std::max(path_util[hop.cls], link_util_[e]);
      incoming[e] += mult[hop.cls] * hop.arriving;
    }
  });

  const bool faults_armed = fault::Registry::global().armed();
  bool measuring = false;

  // A link short of room admits each hop's share of its arrivals
  // (fit_ratio/share) and drops the rest.
  auto land_short = [&](std::span<Hop> hops, bool) {
    for (Hop& hop : hops) {
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint64_t arrived = hop.arriving;
      if (arrived == 0 || short_of_room[e] == 0) continue;
      hop.arriving = 0;
      const std::uint64_t k = mult[hop.cls];
      const std::uint64_t accepted = share(arrived, admit[e]);
      const std::uint64_t dropped = arrived - accepted;
      if (dropped > 0) {
        classes_[hop.cls].pending.dropped += dropped;
        result.links[e].dropped_bytes += k * dropped;
        if (measuring) result.links[e].measured_dropped_bytes += k * dropped;
      }
      hop.queued += accepted;
      link_queued_[e] += k * accepted;
    }
  };
  // Each hop lands what is left of its arrivals, then proportional
  // service, store-and-forward to the next hop, delivery credited to the
  // class, and the per-link / per-OD accounting of what left. The walk
  // runs from each path's last hop to its first, so a hop forwards into
  // a hop that has already landed and served this tick: the grant lands
  // next tick.
  auto serve = [&](std::span<Hop> hops, bool active) {
    for (std::size_t h = hops.size(); h-- > 0;) {
      Hop& hop = hops[h];
      const std::size_t e = static_cast<std::size_t>(hop.edge);
      const std::uint32_t c = hop.cls;
      if (active) path_util[c] = std::max(path_util[c], link_util_[e]);
      const std::uint64_t queued = hop.queued + hop.arriving;
      hop.arriving = 0;
      const std::uint64_t s = share(queued, frac[e]);
      hop.queued = queued - s;
      if (s == 0) continue;
      const std::uint64_t served = mult[c] * s;
      tick_serviced[e] += served;
      if (measuring)
        result.link_od_measured_bytes[e * ods_ + od_of[c]] += served;
      if (hop.last) {
        FlowletClass& cls = classes_[c];
        cls.pending.delivered += s;
        cls.round_delivered += s;
        if (measuring) cls.measured += s;
      } else {
        Hop& next = hops[h + 1];
        next.arriving += s;
        incoming[static_cast<std::size_t>(next.edge)] += served;
      }
    }
  };
  // Sends what class c's sources put on the wire this tick.
  auto inject = [&](std::size_t c, std::uint64_t quanta) {
    FlowletClass& cls = classes_[c];
    if (cls.hops_end != cls.hops_begin) {
      Hop& first = hops_[cls.hops_begin];
      first.arriving += quanta;
      incoming[static_cast<std::size_t>(first.edge)] += mult[c] * quanta;
    } else {
      // Already charged at generation; a class with no installed path
      // parks its quanta back at the source instead of leaking them.
      cls.deferred += quanta;
    }
  };
  // Applies a dataplane.packet action to one member's `attempt` quanta.
  auto apply = [&](std::size_t c, fault::Kind kind, std::uint64_t attempt) {
    FlowletClass& cls = classes_[c];
    switch (kind) {
      case fault::Kind::kDrop:
        // Lost before entering the network: dropped at the source (the
        // generation charge keeps the ledger balanced).
        cls.pending.dropped += attempt;
        return inject(c, 0);
      case fault::Kind::kDuplicate:
        // The duplicated copies are new quanta on the wire.
        cls.pending.injected += attempt;
        return inject(c, attempt * 2);
      case fault::Kind::kDelay:
        cls.deferred = attempt;
        return inject(c, 0);
      default:
        return inject(c, attempt);
    }
  };
  // Moves `members` out of class c into a new class with c's state. The
  // members' arrivals already count in `incoming`: a split moves them
  // between classes without changing any link's total.
  auto split_off = [&](std::size_t c, std::vector<std::uint32_t> members) {
    const std::uint32_t n = static_cast<std::uint32_t>(classes_.size());
    FlowletClass copy = classes_[c];
    copy.members = std::move(members);
    copy.hops_begin = static_cast<std::uint32_t>(hops_.size());
    for (std::uint32_t h = classes_[c].hops_begin; h < classes_[c].hops_end;
         ++h) {
      Hop hop = hops_[h];
      hop.cls = n;
      hops_.push_back(hop);
    }
    copy.hops_end = static_cast<std::uint32_t>(hops_.size());
    for (Pipeline& pipeline : copy.draining)
      for (Hop& hop : pipeline.hops) hop.cls = n;
    for (const std::uint32_t f : copy.members) class_of_[f] = n;
    if (!copy.draining.empty()) drainers.push_back(n);
    mult.push_back(copy.members.size());
    mult[c] -= copy.members.size();
    od_of.push_back(copy.od);
    path_util.push_back(path_util[c]);
    classes_.push_back(std::move(copy));
    return n;
  };
  // The packet kind each member of the class being faulted drew, and per
  // kind the members that drew it.
  std::vector<std::size_t> drawn;
  std::array<std::vector<std::uint32_t>, kPacketKinds.size()> drew;
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
    // only path_util and the class's own state, and injection only adds
    // to the class's first hop. Classes split off here are complete for
    // this tick and not revisited.
    const std::size_t live = classes_.size();
    for (std::size_t c = 0; c < live; ++c) {
      FlowletClass& cls = classes_[c];
      const bool routed = cls.hops_end != cls.hops_begin;
      if (cls.offered_gbps > 0.0 && routed) {
        const double util = path_util[c];
        // Congested when some path link's standing queue exceeds 1/eta
        // ticks' worth of service. util == 1 is the steady state of a
        // link the solver fills to capacity (each tick's arrivals are
        // exactly one tick's service) — NOT congestion; only backlog
        // growth beyond that margin cuts.
        if (util * eta > 1.0) {
          cls.rate_gbps = std::max(cls.rate_gbps * (eta / util),
                                   cls.offered_gbps * kMinRateFraction);
          result.rate_cuts += mult[c];
        } else {
          cls.rate_gbps =
              std::min(cls.offered_gbps,
                       cls.rate_gbps +
                           config_.additive_increase * cls.offered_gbps);
        }
      } else {
        cls.rate_gbps = 0.0;
      }
      // Whole quanta: the sub-quantum remainder carries to the next tick.
      const double generating =
          cls.rate_gbps * quanta_per_gbps_tick + cls.carry;
      const std::uint64_t generated = whole_quanta(generating);
      cls.carry = generating - to_double(generated);
      const std::uint64_t attempt = generated + cls.deferred;
      cls.deferred = 0;
      // The ledger charges quanta when the source GENERATES them (quanta
      // pulled back out of deferred were charged on their original
      // tick), so kDelay parking balances against the inflight term:
      // cumulative injected == delivered + dropped + inflight holds
      // under every fault plan, not just clean runs.
      cls.pending.injected += generated;
      if (!faults_armed || attempt == 0) {
        inject(c, attempt);
        continue;
      }
      // Each member draws its own (tick, flowlet) action. When they all
      // draw one kind the class stays whole; otherwise class c keeps the
      // members of the first kind drawn and each other kind splits off.
      drawn.clear();
      bool uniform = true;
      for (const std::uint32_t f : cls.members) {
        const fault::Action action = fault::at(
            "dataplane.packet", static_cast<std::uint64_t>(tick) * nf + f);
        drawn.push_back(packet_kind_index(action.kind));
        uniform = uniform && drawn.back() == drawn.front();
      }
      if (uniform) {
        apply(c, kPacketKinds[drawn.front()], attempt);
        continue;
      }
      for (std::vector<std::uint32_t>& members : drew) members.clear();
      for (std::size_t m = 0; m < drawn.size(); ++m)
        drew[drawn[m]].push_back(classes_[c].members[m]);
      std::size_t kept = kPacketKinds.size();
      for (std::size_t k = 0; k < kPacketKinds.size(); ++k) {
        if (drew[k].empty()) continue;
        if (kept == kPacketKinds.size()) {
          kept = k;
          continue;
        }
        apply(split_off(c, std::move(drew[k])), kPacketKinds[k], attempt);
      }
      classes_[c].members = std::move(drew[kept]);
      apply(c, kPacketKinds[kept], attempt);
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
    std::fill(path_util.begin(), path_util.end(), 0.0);
    for_each_pipeline(serve);
    for (const std::uint32_t c : drainers)
      std::erase_if(classes_[c].draining, [](const Pipeline& pipeline) {
        return inflight(pipeline.hops) == 0;
      });
    std::erase_if(drainers, [this](std::uint32_t c) {
      return classes_[c].draining.empty();
    });

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

  // Round end: every member's ledger takes its class's growth, and the
  // per-OD figures take each class's multiplicity of its member's.
  std::vector<std::uint64_t> od_measured(ods_, 0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    FlowletClass& cls = classes_[c];
    for (const std::uint32_t f : cls.members) {
      Ledger& ledger = ledgers_[f];
      ledger.injected += cls.pending.injected;
      ledger.delivered += cls.pending.delivered;
      ledger.dropped += cls.pending.dropped;
    }
    cls.pending = Ledger{};
    const std::uint64_t k = cls.members.size();
    od_measured[cls.od] += k * cls.measured;
    result.od_delivered_bytes[cls.od] += k * cls.round_delivered;
    std::uint64_t inflight_quanta = inflight(active_hops(cls)) + cls.deferred;
    for (const Pipeline& pipeline : cls.draining)
      inflight_quanta += inflight(pipeline.hops);
    result.inflight_bytes += k * inflight_quanta;
  }
  for (const Ledger& ledger : ledgers_) {
    result.injected_bytes += ledger.injected;
    result.delivered_bytes += ledger.delivered;
    result.dropped_bytes += ledger.dropped;
  }
  for (std::size_t i = 0; i < ods_; ++i)
    result.od_goodput_gbps[i] = static_cast<double>(od_measured[i]) /
                                kQuanta * 8.0 / result.measure_seconds / 1e9;
  result.signature = state_signature();
  ++round_;

  std::uint64_t round_delivered = 0;
  for (const std::uint64_t quanta : result.od_delivered_bytes)
    round_delivered += quanta;
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
    for (const Hop& hop : hops) {
      hash = combine64(hash, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(hop.edge)));
      hash = combine64(hash, hop.queued);
      hash = combine64(hash, hop.arriving);
    }
  };
  for (std::size_t f = 0; f < class_of_.size(); ++f) {
    const FlowletClass& cls = classes_[class_of_[f]];
    const Ledger& ledger = ledgers_[f];
    hash = combine64(hash, static_cast<std::uint64_t>(cls.od));
    hash = combine_double(hash, cls.offered_gbps);
    hash = combine_double(hash, cls.rate_gbps);
    hash = combine_double(hash, cls.carry);
    hash = combine64(hash, cls.deferred);
    hash = combine64(hash, ledger.injected);
    hash = combine64(hash, ledger.delivered);
    hash = combine64(hash, ledger.dropped);
    fold_pipeline(cls.path_id, active_hops(cls));
    hash = combine64(hash, static_cast<std::uint64_t>(cls.draining.size()));
    for (const Pipeline& pipeline : cls.draining)
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
  // One record per flowlet, as if every flowlet were simulated alone.
  state.flowlets.reserve(class_of_.size());
  for (std::size_t f = 0; f < class_of_.size(); ++f) {
    const FlowletClass& cls = classes_[class_of_[f]];
    State::Flowlet& flowlet = state.flowlets.emplace_back();
    flowlet.od = cls.od;
    flowlet.offered_gbps = cls.offered_gbps;
    flowlet.rate_gbps = cls.rate_gbps;
    flowlet.carry = cls.carry;
    flowlet.deferred = cls.deferred;
    flowlet.ledger = ledgers_[f];
    flowlet.active = save_pipeline(cls.path_id, active_hops(cls));
    for (const Pipeline& pipeline : cls.draining)
      flowlet.draining.push_back(
          save_pipeline(pipeline.path_id, pipeline.hops));
  }
  state.link_util = link_util_;
  return state;
}

void DataplaneSim::restore_state(const State& state) {
  const std::size_t nf = class_of_.size();
  RWC_CHECK_MSG(state.flowlets.size() == nf &&
                    state.link_util.size() == edge_count_,
                "dataplane: state shape mismatch");
  // Everything run_round indexes or converts is checked before the sim
  // changes: hop edges index per-link state, and rates, carries and
  // quanta convert between double and integer.
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
  for (std::size_t f = 0; f < nf; ++f) {
    const State::Flowlet& flowlet = state.flowlets[f];
    RWC_CHECK_MSG(flowlet.od == f / config_.flowlets_per_od,
                  "dataplane: state flowlet under the wrong OD");
    RWC_CHECK_MSG(std::isfinite(flowlet.offered_gbps) &&
                      flowlet.offered_gbps >= 0.0 &&
                      std::isfinite(flowlet.rate_gbps) &&
                      flowlet.rate_gbps >= 0.0 && flowlet.carry >= 0.0 &&
                      flowlet.carry < 1.0,
                  "dataplane: state rate out of range");
    check_quanta(flowlet.deferred);
    check_pipeline(flowlet.active);
    for (const State::Pipeline& pipeline : flowlet.draining)
      check_pipeline(pipeline);
  }

  // One draft per flowlet; layout() merges the bit-equal ones.
  auto restore_hops = [](const State::Pipeline& pipeline) {
    std::vector<Hop> hops;
    for (const State::Hop& saved : pipeline.hops) {
      Hop& hop = hops.emplace_back();
      hop.edge = saved.edge;
      hop.queued = saved.queued;
      hop.arriving = saved.arriving;
    }
    if (!hops.empty()) hops.back().last = 1;
    return hops;
  };
  std::vector<Draft> drafts(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    const State::Flowlet& flowlet = state.flowlets[f];
    FlowletClass& cls = drafts[f].cls;
    cls.od = flowlet.od;
    cls.path_id = flowlet.active.path_id;
    cls.offered_gbps = flowlet.offered_gbps;
    cls.rate_gbps = flowlet.rate_gbps;
    cls.carry = flowlet.carry;
    cls.deferred = flowlet.deferred;
    for (const State::Pipeline& pipeline : flowlet.draining)
      cls.draining.push_back(
          Pipeline{restore_hops(pipeline), pipeline.path_id});
    cls.members.push_back(static_cast<std::uint32_t>(f));
    drafts[f].active = restore_hops(flowlet.active);
  }
  layout(drafts);
  round_ = state.round;
  for (std::size_t f = 0; f < nf; ++f) ledgers_[f] = state.flowlets[f].ledger;
  link_queued_ = std::move(link_queued);
  link_util_ = state.link_util;
}

}  // namespace rwc::dataplane
