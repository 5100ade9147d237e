#include "fault/plan.hpp"

#include <charconv>
#include <cstdlib>
#include <utility>

#include "util/check.hpp"

namespace rwc::fault {

namespace {

constexpr std::pair<Kind, std::string_view> kKindNames[] = {
    {Kind::kNone, "none"},           {Kind::kFail, "fail"},
    {Kind::kStall, "stall"},         {Kind::kStale, "stale"},
    {Kind::kNan, "nan"},             {Kind::kGarbage, "garbage"},
    {Kind::kDuplicate, "duplicate"}, {Kind::kDrop, "drop"},
    {Kind::kBudget, "budget"},       {Kind::kDelay, "delay"},
};

Kind parse_kind(std::string_view token, std::string_view clause) {
  for (const auto& [kind, name] : kKindNames)
    if (name == token) return kind;
  util::throw_check_failure("check", "known fault kind", __FILE__, __LINE__,
                            "unknown kind '" + std::string(token) +
                                "' in fault clause '" + std::string(clause) +
                                "'");
}

std::uint64_t parse_u64(std::string_view token, std::string_view clause) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  RWC_CHECK_MSG(ec == std::errc{} && ptr == token.data() + token.size(),
                "bad integer '" + std::string(token) + "' in fault clause '" +
                    std::string(clause) + "'");
  return value;
}

}  // namespace

std::string_view to_string(Kind kind) {
  for (const auto& [k, name] : kKindNames)
    if (k == kind) return name;
  return "none";
}

bool Injection::matches(std::string_view at_site, std::uint64_t key) const {
  if (site != at_site) return false;
  if (period == 0) return key == hit;
  return key % period == hit;
}

std::string Injection::to_string() const {
  std::string out = site;
  if (period != 0) out += "%" + std::to_string(period);
  out += "@" + std::to_string(hit);
  out += ":";
  out += fault::to_string(action.kind);
  if (action.magnitude != 0.0) {
    // Round-trippable without trailing-zero noise for integral magnitudes;
    // shortest exact round-trip form (std::to_chars) otherwise, so
    // to_string(parse(s)) == s and shrunk plans replay bit-identically.
    if (action.magnitude ==
        static_cast<double>(static_cast<long long>(action.magnitude))) {
      out += "=" + std::to_string(static_cast<long long>(action.magnitude));
    } else {
      char buffer[32];
      const auto [end, ec] =
          std::to_chars(buffer, buffer + sizeof buffer, action.magnitude);
      RWC_CHECK(ec == std::errc{});
      out += "=";
      out.append(buffer, end);
    }
  }
  return out;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const Injection& injection : injections) {
    if (!out.empty()) out += ";";
    out += injection.to_string();
  }
  return out;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = spec.substr(begin, end - begin);
    begin = end + 1;
    if (clause.empty()) continue;

    const std::size_t colon = clause.find(':');
    RWC_CHECK_MSG(colon != std::string_view::npos,
                  "missing ':' in fault clause '" + std::string(clause) + "'");
    std::string_view head = clause.substr(0, colon);
    std::string_view tail = clause.substr(colon + 1);

    Injection injection;
    const std::size_t at = head.rfind('@');
    RWC_CHECK_MSG(at != std::string_view::npos,
                  "missing '@' in fault clause '" + std::string(clause) + "'");
    injection.hit = parse_u64(head.substr(at + 1), clause);
    head = head.substr(0, at);
    const std::size_t percent = head.rfind('%');
    if (percent != std::string_view::npos) {
      injection.period = parse_u64(head.substr(percent + 1), clause);
      RWC_CHECK_MSG(injection.period != 0,
                    "zero period in fault clause '" + std::string(clause) +
                        "'");
      head = head.substr(0, percent);
    }
    RWC_CHECK_MSG(!head.empty(),
                  "empty site in fault clause '" + std::string(clause) + "'");
    injection.site = std::string(head);

    const std::size_t equals = tail.find('=');
    if (equals != std::string_view::npos) {
      const std::string magnitude(tail.substr(equals + 1));
      char* parsed_end = nullptr;
      injection.action.magnitude =
          std::strtod(magnitude.c_str(), &parsed_end);
      RWC_CHECK_MSG(parsed_end == magnitude.c_str() + magnitude.size() &&
                        !magnitude.empty(),
                    "bad magnitude '" + magnitude + "' in fault clause '" +
                        std::string(clause) + "'");
      tail = tail.substr(0, equals);
    }
    injection.action.kind = parse_kind(tail, clause);
    plan.injections.push_back(std::move(injection));
  }
  return plan;
}

FaultPlan FaultPlan::first_half() const {
  FaultPlan half;
  half.seed = seed;
  half.injections.assign(injections.begin(),
                         injections.begin() +
                             static_cast<std::ptrdiff_t>(injections.size() / 2));
  return half;
}

FaultPlan FaultPlan::second_half() const {
  FaultPlan half;
  half.seed = seed;
  half.injections.assign(injections.begin() +
                             static_cast<std::ptrdiff_t>(injections.size() / 2),
                         injections.end());
  return half;
}

}  // namespace rwc::fault
