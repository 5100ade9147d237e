#include "dataplane/timeline.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rwc::dataplane {

double CapacityTimeline::capacity_gbps(std::size_t edge,
                                       std::size_t tick) const {
  RWC_CHECK_MSG(edge < edges.size(), "timeline: edge out of range");
  const std::vector<Event>& events = edges[edge];
  double gbps = 0.0;
  for (const Event& event : events) {
    if (event.tick > tick) break;
    gbps = event.gbps;
  }
  return gbps;
}

bool CapacityTimeline::in_window(std::size_t tick) const {
  for (const auto& [begin, end] : windows)
    if (tick >= begin && tick < end) return true;
  return false;
}

std::uint32_t CapacityTimeline::last_window_end() const {
  std::uint32_t last = 0;
  for (const auto& [begin, end] : windows) last = std::max(last, end);
  return last;
}

void CapacityTimeline::add_event(std::size_t edge, std::uint32_t tick,
                                 double gbps) {
  RWC_CHECK_MSG(edge < edges.size(), "timeline: edge out of range");
  std::vector<Event>& events = edges[edge];
  auto it = std::lower_bound(
      events.begin(), events.end(), tick,
      [](const Event& event, std::uint32_t t) { return event.tick < t; });
  if (it != events.end() && it->tick == tick) {
    it->gbps = gbps;
  } else {
    events.insert(it, Event{tick, gbps});
  }
}

CapacityTimeline build_timeline(std::span<const util::Gbps> before,
                                std::span<const util::Gbps> after,
                                const update::UpdateSchedule* schedule,
                                std::size_t ticks, double tick_seconds) {
  RWC_CHECK_MSG(before.size() == after.size(),
                "timeline: before/after capacity size mismatch");
  RWC_CHECK_MSG(ticks >= 8, "timeline: need at least 8 ticks per round");
  CapacityTimeline timeline;
  timeline.ticks = ticks;
  timeline.tick_seconds = tick_seconds;
  timeline.edges.resize(before.size());

  const bool usable = schedule != nullptr && schedule->feasible &&
                      !schedule->rounds.empty();
  if (!usable) {
    // No executable schedule: capacities jump to `after` at tick 0. If
    // anything actually changed, charge a synthetic transient window so
    // the oracle does not score the settling ticks as steady state.
    bool changed = false;
    for (std::size_t e = 0; e < before.size(); ++e) {
      timeline.edges[e].push_back({0, after[e].value});
      if (before[e].value != after[e].value) changed = true;
    }
    if (changed)
      timeline.windows.emplace_back(
          0, static_cast<std::uint32_t>(std::max<std::size_t>(1, ticks / 8)));
    return timeline;
  }

  // Compress the schedule's rounds into the leading half of the tick
  // budget, each round's window proportional to its share of the makespan
  // (minimum one tick so every window exists).
  const std::size_t budget = std::max<std::size_t>(ticks / 2,
                                                   schedule->rounds.size());
  double makespan = 0.0;
  for (const update::UpdateRound& round : schedule->rounds)
    makespan += round.duration_seconds;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> round_window(
      schedule->rounds.size());
  std::uint32_t cursor = 0;
  for (std::size_t k = 0; k < schedule->rounds.size(); ++k) {
    const double share =
        makespan > 0.0
            ? schedule->rounds[k].duration_seconds / makespan
            : 1.0 / static_cast<double>(schedule->rounds.size());
    std::uint32_t width = static_cast<std::uint32_t>(std::max(
        1.0, std::floor(share * static_cast<double>(budget))));
    const std::uint32_t remaining_rounds =
        static_cast<std::uint32_t>(schedule->rounds.size() - k);
    const std::uint32_t cap = static_cast<std::uint32_t>(budget) - cursor;
    // Leave at least one tick for every remaining round.
    width = std::min(width, cap >= remaining_rounds
                                ? cap - (remaining_rounds - 1)
                                : 1u);
    round_window[k] = {cursor, cursor + width};
    cursor += width;
  }
  timeline.windows.emplace_back(0, cursor);

  // Per edge: `before` until its reconfig window, the drain limit inside
  // it, `to` afterwards. Edges without a reconfig move hold `after` from
  // tick 0 (their before == after when the schedule validated).
  for (std::size_t e = 0; e < before.size(); ++e)
    timeline.edges[e].push_back({0, before[e].value});
  for (std::size_t k = 0; k < schedule->rounds.size(); ++k) {
    for (const update::Move& move : schedule->rounds[k].moves) {
      if (move.kind != update::Move::Kind::kReconfig) continue;
      const std::size_t e = static_cast<std::size_t>(move.edge.value);
      RWC_CHECK_MSG(e < before.size(), "timeline: reconfig edge out of range");
      const double limit = update::drain_limit_for(
          schedule->procedure, move.from.value, move.to.value, 0.0);
      const auto [begin, end] = round_window[k];
      timeline.add_event(e, begin, limit);
      timeline.add_event(e, end, move.to.value);
    }
  }
  // Whatever the schedule did, the round must end at the configured
  // capacities (validate_schedule guarantees the terminal state; this
  // also covers edges the planner never touched).
  for (std::size_t e = 0; e < after.size(); ++e) {
    if (timeline.capacity_gbps(e, ticks - 1) != after[e].value)
      timeline.add_event(e, cursor, after[e].value);
  }
  return timeline;
}

}  // namespace rwc::dataplane
