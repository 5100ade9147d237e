#include "serve/epoch.hpp"
#include "util/hash.hpp"


namespace rwc::serve {

using util::mix64;
using util::mix_double;

std::uint64_t PlanEpoch::compute_checksum() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = mix64(hash, epoch);
  hash = mix64(hash, round);
  hash = mix64(hash, signature_chain);
  hash = mix64(hash, capacity_gbps.size());
  for (double value : capacity_gbps) hash = mix_double(hash, value);
  hash = mix64(hash, edge_load_gbps.size());
  for (double value : edge_load_gbps) hash = mix_double(hash, value);
  hash = mix64(hash, upgrades.size());
  for (const auto& [edge, rate] : upgrades) {
    hash = mix64(hash, static_cast<std::uint32_t>(edge));
    hash = mix_double(hash, rate);
  }
  hash = mix_double(hash, total_routed_gbps);
  hash = mix_double(hash, total_penalty);
  hash = mix64(hash, reductions);
  hash = mix64(hash, restorations);
  hash = mix64(hash, transition_valid ? 1 : 0);
  return hash;
}

PlanEpoch make_epoch(
    std::uint64_t epoch, std::uint64_t round, std::uint64_t signature_chain,
    const core::DynamicCapacityController& controller,
    const core::DynamicCapacityController::RoundReport& report) {
  PlanEpoch out;
  out.epoch = epoch;
  out.round = round;
  out.signature_chain = signature_chain;
  const std::span<const util::Gbps> configured =
      controller.configured_capacities();
  out.capacity_gbps.reserve(configured.size());
  for (util::Gbps capacity : configured)
    out.capacity_gbps.push_back(capacity.value);
  out.edge_load_gbps = report.plan.physical_assignment.edge_load_gbps;
  out.upgrades.reserve(report.plan.upgrades.size());
  for (const core::CapacityChange& change : report.plan.upgrades)
    out.upgrades.emplace_back(
        static_cast<std::int32_t>(change.edge.value), change.to.value);
  out.total_routed_gbps = report.total_routed.value;
  out.total_penalty = report.total_penalty;
  out.reductions = report.reductions.size();
  out.restorations = report.restorations.size();
  out.transition_valid = report.transition_valid;
  out.checksum = out.compute_checksum();
  return out;
}

}  // namespace rwc::serve
