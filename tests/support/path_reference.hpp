// The (OD, path) dataplane model in its plainest form, kept as the
// test-only reference that dataplane::DataplaneSim must match bit for bit
// (tests/test_dataplane_reference.cpp, tests/prop/prop_dataplane.cpp;
// docs/DATAPLANE.md §2). Its live state is a DataplaneSim::State, and
// each tick runs the three passes the kernel folds into one walk: inject
// per class, then land every hop (admitting each link's arrivals in
// proportion when they overflow its free buffer), then serve every hop
// from each path's first hop to its last. Per-link queue totals are
// summed afresh every tick. With the same whole-quantum arithmetic and
// the same fault sites, every RoundResult field, state_signature() and
// the saved state of the two kernels agree exactly, and each can restore
// the other's state. It registers no metrics.
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
/// supply. With ratio 1 the grant is `quanta` itself.
inline std::uint64_t share(std::uint64_t quanta, double ratio) {
  return static_cast<std::uint64_t>(static_cast<double>(quanta) * ratio);
}

class PathReference {
 public:
  using State = DataplaneSim::State;

  PathReference(const graph::Graph& topology, std::size_t ods,
                DataplaneConfig config)
      : config_(config),
        edge_count_(topology.edge_count()),
        ods_(ods),
        checker_(topology, ods, config),
        state_(checker_.save_state()) {}

  /// Installs `assignment` and runs one round against `timeline`.
  RoundResult run_round(const te::FlowAssignment& assignment,
                        const CapacityTimeline& timeline);

  State save_state() const { return state_; }
  /// Restores a save_state() of either kernel; throws util::CheckError,
  /// with the reference untouched, on what DataplaneSim::restore_state
  /// refuses (the check is the kernel's own).
  void restore_state(const State& state) {
    checker_.restore_state(state);
    state_ = state;
  }

  /// Fold of the live state, in the kernel's order.
  std::uint64_t state_signature() const;

 private:
  /// The members of `cls`: its OD's flowlets that pick its path, in
  /// flowlet order.
  std::vector<std::uint32_t> members(const State::Class& cls) const {
    std::vector<std::uint32_t> out;
    const std::size_t kF = config_.flowlets_per_od;
    for (std::size_t j = 0; j < kF; ++j)
      if (state_.picks[cls.od * kF + j] == cls.active.path_id)
        out.push_back(static_cast<std::uint32_t>(cls.od * kF + j));
    return out;
  }

  static std::uint64_t inflight(const State::Pipeline& pipeline) {
    std::uint64_t total = 0;
    for (const State::Hop& hop : pipeline.hops)
      total += hop.queued + hop.arriving;
    return total;
  }

  void install(const te::FlowAssignment& assignment, RoundResult& result);

  DataplaneConfig config_;
  std::size_t edge_count_ = 0;
  std::size_t ods_ = 0;
  /// A kernel of the same shape, for its constructor's and restore's
  /// checks; it never runs a round.
  DataplaneSim checker_;
  State state_;
};

inline void PathReference::install(const te::FlowAssignment& assignment,
                                   RoundResult& result) {
  RWC_CHECK_MSG(assignment.routings.size() == ods_,
                "dataplane: assignment OD count mismatch");
  const std::size_t kF = config_.flowlets_per_od;
  std::vector<State::Class> classes;
  for (std::size_t i = 0; i < ods_; ++i) {
    const std::uint32_t od = static_cast<std::uint32_t>(i);
    std::vector<State::Class> before;
    for (const State::Class& cls : state_.classes)
      if (cls.od == od) before.push_back(cls);
    State::Od& od_state = state_.ods[i];

    // The OD's paths, one entry per identity.
    std::vector<double> weights;
    std::vector<std::uint64_t> identities;
    std::vector<const graph::Path*> paths;
    for (const auto& [path, volume] : assignment.routings[i].paths) {
      if (!(volume.value > 0.0) || path.empty()) continue;
      const std::uint64_t identity = path_identity(path.edges);
      std::size_t p = 0;
      while (p < identities.size() && identities[p] != identity) ++p;
      if (p < identities.size()) {
        weights[p] += volume.value;
        continue;
      }
      weights.push_back(volume.value);
      identities.push_back(identity);
      paths.push_back(&path);
    }

    // WCMP placement (dataplane.hash faults perturb per flowlet), then
    // the coverage fixup.
    std::vector<std::size_t> picks(kF, 0);
    std::vector<std::uint32_t> counts(paths.size(), 0);
    for (std::size_t j = 0; j < kF && !paths.empty(); ++j) {
      const std::uint64_t current = state_.picks[i * kF + j];
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
          flowlet_key(od, static_cast<std::uint32_t>(j), salt), weights,
          identities);
      if (stale && current != 0)
        for (std::size_t p = 0; p < identities.size(); ++p)
          if (identities[p] == current) {
            pick = p;
            break;
          }
      picks[j] = pick;
      ++counts[pick];
    }
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (counts[p] != 0) continue;
      std::size_t donor = 0;
      for (std::size_t q = 1; q < counts.size(); ++q)
        if (counts[q] > counts[donor]) donor = q;
      if (counts[donor] < 2) continue;
      for (std::size_t j = kF; j-- > 0;)
        if (picks[j] == donor) {
          picks[j] = p;
          break;
        }
      --counts[donor];
      ++counts[p];
    }

    // New picks, migrations, and the paths some member stays on.
    std::vector<std::uint64_t> stayed;
    for (std::size_t j = 0; j < kF; ++j) {
      std::uint64_t& pick = state_.picks[i * kF + j];
      const std::uint64_t to = paths.empty() ? 0 : identities[picks[j]];
      if (pick != 0 && to != 0 && pick != to) ++result.migrations;
      if (pick != 0 && pick == to) stayed.push_back(pick);
      pick = to;
    }
    auto kept = [&stayed](std::uint64_t path_id) {
      return std::find(stayed.begin(), stayed.end(), path_id) !=
             stayed.end();
    };

    // One class per loaded path, in path order: a kept class keeps its
    // pipeline, rate, carry and deferred quanta; a new one starts at its
    // offered rate with empty hops.
    const std::size_t first = classes.size();
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (counts[p] == 0) continue;
      State::Class cls;
      cls.od = od;
      cls.offered_gbps = weights[p] / static_cast<double>(counts[p]);
      cls.rate_gbps = cls.offered_gbps;
      cls.active.path_id = identities[p];
      const auto prev = std::find_if(
          before.begin(), before.end(), [&](const State::Class& old) {
            return old.active.path_id == identities[p];
          });
      if (prev != before.end() && kept(identities[p])) {
        if (prev->offered_gbps == cls.offered_gbps)
          cls.rate_gbps = prev->rate_gbps;
        cls.carry = prev->carry;
        cls.deferred = prev->deferred;
        cls.active.hops = prev->active.hops;
      } else {
        for (const graph::EdgeId edge : paths[p]->edges)
          cls.active.hops.push_back({edge.value, 0, 0});
      }
      classes.push_back(std::move(cls));
    }

    // Classes that lost every member: in-flight quanta drain on their
    // path, merged per path, and deferred ones park at the OD, which its
    // first class then sends.
    for (const State::Class& old : before) {
      if (kept(old.active.path_id)) continue;
      od_state.parked += old.deferred;
      if (inflight(old.active) == 0) continue;
      auto same_path = [&old](const State::Pipeline& pipeline) {
        if (pipeline.path_id != old.active.path_id ||
            pipeline.hops.size() != old.active.hops.size())
          return false;
        for (std::size_t h = 0; h < pipeline.hops.size(); ++h)
          if (pipeline.hops[h].edge != old.active.hops[h].edge) return false;
        return true;
      };
      const auto merged = std::find_if(od_state.draining.begin(),
                                       od_state.draining.end(), same_path);
      if (merged == od_state.draining.end()) {
        od_state.draining.push_back(old.active);
        continue;
      }
      for (std::size_t h = 0; h < merged->hops.size(); ++h) {
        merged->hops[h].queued += old.active.hops[h].queued;
        merged->hops[h].arriving += old.active.hops[h].arriving;
      }
    }
    if (classes.size() > first) {
      classes[first].deferred += od_state.parked;
      od_state.parked = 0;
    }
  }
  state_.classes = std::move(classes);
}

inline RoundResult PathReference::run_round(
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

  const std::uint32_t settle = static_cast<std::uint32_t>(ticks / 8);
  result.measure_begin = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(ticks - 1),
      std::max<std::uint32_t>(timeline.last_window_end() + settle,
                              static_cast<std::uint32_t>(ticks / 2)));
  result.measure_seconds =
      static_cast<double>(ticks - result.measure_begin) * dt;

  const std::size_t nf = state_.picks.size();
  std::vector<std::vector<std::uint32_t>> class_members;
  for (const State::Class& cls : state_.classes)
    class_members.push_back(members(cls));
  std::vector<std::uint64_t> cap(edge_count_, 0);
  std::vector<std::uint64_t> buffer(edge_count_, 0);
  std::vector<std::size_t> event_cursor(edge_count_, 0);
  std::vector<std::uint64_t> od_measured(ods_, 0);
  auto set_capacity = [&](std::size_t e, double gbps) {
    cap[e] = whole_quanta(gbps * quanta_per_gbps_tick);
    buffer[e] = whole_quanta(std::max(gbps, config_.min_buffer_gbps) *
                             quanta_per_gbps_buffer);
  };
  for (std::size_t e = 0; e < edge_count_; ++e) set_capacity(e, 0.0);
  // Every pipeline with the OD it belongs to: the classes' active paths,
  // then each OD's draining ones.
  auto for_each_pipeline = [&](auto&& visit) {
    for (State::Class& cls : state_.classes) visit(cls.od, cls.active);
    for (std::size_t i = 0; i < ods_; ++i)
      for (State::Pipeline& pipeline : state_.ods[i].draining)
        visit(static_cast<std::uint32_t>(i), pipeline);
  };
  const bool faults_armed = fault::Registry::global().armed();

  for (std::size_t tick = 0; tick < ticks; ++tick) {
    const bool measuring = tick >= result.measure_begin;
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::vector<CapacityTimeline::Event>& events = timeline.edges[e];
      while (event_cursor[e] < events.size() &&
             events[event_cursor[e]].tick <= tick)
        set_capacity(e, events[event_cursor[e]++].gbps);
    }

    // Sweep 1: rate control and injection, per class.
    for (std::size_t c = 0; c < state_.classes.size(); ++c) {
      State::Class& cls = state_.classes[c];
      const std::vector<std::uint32_t>& group = class_members[c];
      if (cls.offered_gbps > 0.0) {
        double util = 0.0;
        for (const State::Hop& hop : cls.active.hops)
          util = std::max(util,
                          state_.link_util[static_cast<std::size_t>(hop.edge)]);
        if (util * eta > 1.0) {
          cls.rate_gbps = std::max(cls.rate_gbps * (eta / util),
                                   cls.offered_gbps * kMinRateFraction);
          result.rate_cuts += group.size();
        } else {
          cls.rate_gbps = std::min(
              cls.offered_gbps,
              cls.rate_gbps + config_.additive_increase * cls.offered_gbps);
        }
      } else {
        cls.rate_gbps = 0.0;
      }
      const double generating =
          cls.rate_gbps * quanta_per_gbps_tick + cls.carry;
      const std::uint64_t generated = whole_quanta(generating);
      cls.carry = generating - static_cast<double>(generated);
      DataplaneSim::Ledger& ledger = state_.ods[cls.od].ledger;
      std::uint64_t sent = cls.deferred;
      cls.deferred = 0;
      for (const std::uint32_t f : group) {
        ledger.injected += generated;
        fault::Kind kind = fault::Kind::kNone;
        if (faults_armed && generated > 0)
          kind = fault::at("dataplane.packet",
                           static_cast<std::uint64_t>(tick) * nf + f)
                     .kind;
        if (kind == fault::Kind::kDrop) {
          ledger.dropped += generated;
        } else if (kind == fault::Kind::kDuplicate) {
          ledger.injected += generated;
          sent += 2 * generated;
        } else if (kind == fault::Kind::kDelay) {
          cls.deferred += generated;
        } else {
          sent += generated;
        }
      }
      cls.active.hops.front().arriving += sent;
    }

    // Landing: every link admits what its free buffer holds.
    std::vector<std::uint64_t> queued(edge_count_, 0);
    std::vector<std::uint64_t> incoming(edge_count_, 0);
    for_each_pipeline([&](std::uint32_t, State::Pipeline& pipeline) {
      for (const State::Hop& hop : pipeline.hops) {
        queued[static_cast<std::size_t>(hop.edge)] += hop.queued;
        incoming[static_cast<std::size_t>(hop.edge)] += hop.arriving;
      }
    });
    std::vector<double> admit(edge_count_, 1.0);
    for (std::size_t e = 0; e < edge_count_; ++e)
      admit[e] = fit_ratio(buffer[e] > queued[e] ? buffer[e] - queued[e] : 0,
                           incoming[e]);
    for_each_pipeline([&](std::uint32_t od, State::Pipeline& pipeline) {
      for (State::Hop& hop : pipeline.hops) {
        const std::size_t e = static_cast<std::size_t>(hop.edge);
        const std::uint64_t accepted = share(hop.arriving, admit[e]);
        const std::uint64_t dropped = hop.arriving - accepted;
        hop.arriving = 0;
        hop.queued += accepted;
        queued[e] += accepted;
        state_.ods[od].ledger.dropped += dropped;
        result.links[e].dropped_bytes += dropped;
        if (measuring) result.links[e].measured_dropped_bytes += dropped;
      }
    });

    // Links: peak occupancy, service ratio, next tick's utilization.
    std::vector<double> frac(edge_count_, 1.0);
    for (std::size_t e = 0; e < edge_count_; ++e) {
      LinkRoundStats& link = result.links[e];
      link.max_queued_bytes = std::max(link.max_queued_bytes, queued[e]);
      frac[e] = fit_ratio(cap[e], queued[e]);
      state_.link_util[e] =
          cap[e] > 0 ? static_cast<double>(queued[e]) /
                           static_cast<double>(cap[e])
                     : (queued[e] > 0 ? kDarkUtilization : 0.0);
    }

    // Service, first hop to last: a grant waits in the next hop's
    // arrivals until next tick's landing.
    std::vector<std::uint64_t> serviced(edge_count_, 0);
    for_each_pipeline([&](std::uint32_t od, State::Pipeline& pipeline) {
      for (std::size_t h = 0; h < pipeline.hops.size(); ++h) {
        State::Hop& hop = pipeline.hops[h];
        const std::size_t e = static_cast<std::size_t>(hop.edge);
        const std::uint64_t s = share(hop.queued, frac[e]);
        hop.queued -= s;
        serviced[e] += s;
        result.links[e].serviced_bytes += s;
        if (measuring) {
          result.links[e].measured_bytes += s;
          result.link_od_measured_bytes[e * ods_ + od] += s;
        }
        if (h + 1 < pipeline.hops.size()) {
          pipeline.hops[h + 1].arriving += s;
        } else {
          result.od_delivered_bytes[od] += s;
          state_.ods[od].ledger.delivered += s;
          if (measuring) od_measured[od] += s;
        }
      }
    });
    for (State::Od& od : state_.ods)
      std::erase_if(od.draining, [](const State::Pipeline& pipeline) {
        return inflight(pipeline) == 0;
      });

    // Capacity-safety audit.
    for (std::size_t e = 0; e < edge_count_; ++e)
      if (serviced[e] > cap[e]) {
        if (timeline.in_window(tick))
          ++result.window_violations;
        else
          ++result.capacity_violations;
      }
  }

  for (const State::Class& cls : state_.classes)
    result.inflight_bytes += inflight(cls.active) + cls.deferred;
  for (std::size_t i = 0; i < ods_; ++i) {
    const State::Od& od = state_.ods[i];
    result.injected_bytes += od.ledger.injected;
    result.delivered_bytes += od.ledger.delivered;
    result.dropped_bytes += od.ledger.dropped;
    result.inflight_bytes += od.parked;
    for (const State::Pipeline& pipeline : od.draining)
      result.inflight_bytes += inflight(pipeline);
    result.od_goodput_gbps[i] = static_cast<double>(od_measured[i]) /
                                kQuanta * 8.0 / result.measure_seconds / 1e9;
  }
  result.signature = state_signature();
  ++state_.round;
  return result;
}

inline std::uint64_t PathReference::state_signature() const {
  std::uint64_t hash = 0x64617461706c616eull;  // "dataplan"
  hash = combine64(hash, state_.round);
  auto fold_pipeline = [&hash](const State::Pipeline& pipeline) {
    hash = combine64(hash, pipeline.path_id);
    hash = combine64(hash, pipeline.hops.size());
    for (const State::Hop& hop : pipeline.hops) {
      hash = combine64(hash, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(hop.edge)));
      hash = combine64(hash, hop.queued);
      hash = combine64(hash, hop.arriving);
    }
  };
  for (const std::uint64_t pick : state_.picks) hash = combine64(hash, pick);
  hash = combine64(hash, state_.classes.size());
  for (const State::Class& cls : state_.classes) {
    hash = combine64(hash, cls.od);
    hash = combine_double(hash, cls.offered_gbps);
    hash = combine_double(hash, cls.rate_gbps);
    hash = combine_double(hash, cls.carry);
    hash = combine64(hash, cls.deferred);
    fold_pipeline(cls.active);
  }
  for (const State::Od& od : state_.ods) {
    hash = combine64(hash, od.ledger.injected);
    hash = combine64(hash, od.ledger.delivered);
    hash = combine64(hash, od.ledger.dropped);
    hash = combine64(hash, od.parked);
    hash = combine64(hash, od.draining.size());
    for (const State::Pipeline& pipeline : od.draining) fold_pipeline(pipeline);
  }
  for (const double util : state_.link_util) hash = combine_double(hash, util);
  return hash;
}

/// The distinct (OD, active path) pairs of `state`, read from the
/// flowlets' picks: the class count the kernel must not exceed.
inline std::size_t od_path_pairs(const DataplaneSim::State& state) {
  const std::size_t flowlets_per_od =
      state.ods.empty() ? 1 : state.picks.size() / state.ods.size();
  std::vector<std::pair<std::size_t, std::uint64_t>> pairs;
  for (std::size_t f = 0; f < state.picks.size(); ++f)
    if (state.picks[f] != 0)
      pairs.emplace_back(f / flowlets_per_od, state.picks[f]);
  std::sort(pairs.begin(), pairs.end());
  return static_cast<std::size_t>(
      std::unique(pairs.begin(), pairs.end()) - pairs.begin());
}

/// The first OD whose ledger does not balance in `state` ("" when every
/// one does): injected == delivered + dropped + what its classes, its
/// draining pipelines and its parked quanta still hold.
inline std::string unbalanced_od(const DataplaneSim::State& state) {
  auto inflight = [](const DataplaneSim::State::Pipeline& pipeline) {
    std::uint64_t total = 0;
    for (const DataplaneSim::State::Hop& hop : pipeline.hops)
      total += hop.queued + hop.arriving;
    return total;
  };
  std::vector<std::uint64_t> held(state.ods.size(), 0);
  for (const DataplaneSim::State::Class& cls : state.classes)
    held[cls.od] += inflight(cls.active) + cls.deferred;
  for (std::size_t i = 0; i < state.ods.size(); ++i) {
    const DataplaneSim::State::Od& od = state.ods[i];
    held[i] += od.parked;
    for (const DataplaneSim::State::Pipeline& pipeline : od.draining)
      held[i] += inflight(pipeline);
    const std::uint64_t accounted =
        od.ledger.delivered + od.ledger.dropped + held[i];
    if (od.ledger.injected != accounted)
      return "od " + std::to_string(i) + " injected " +
             std::to_string(od.ledger.injected) + " but accounts for " +
             std::to_string(accounted);
  }
  return "";
}

/// The first field on which two rounds' results differ ("" when every
/// field is bit-identical): the comparison the kernel is held to.
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
