// Deterministic fault schedules (rwc::fault).
//
// A FaultPlan is a list of scheduled injections against *named sites*
// compiled into the library's hot paths (src/fault/registry.hpp holds the
// evaluation machinery, docs/FAULTS.md the site catalog). Plans are pure
// data: they can be built programmatically, parsed from the RWC_FAULTS
// environment variable, serialized back to the same spec string (how a
// failing property-test seed is reported), and shrunk by halving — the
// minimization strategy of tests/prop/.
//
// Every injection names a site, a matching rule on the site's evaluation
// key, and an action. Keys are deterministic by construction: serial sites
// use their own monotonically increasing hit counter, parallel sites pass
// an explicit key (link index, network fingerprint, edge id) that does not
// depend on thread interleaving — which is what lets the pool-size
// determinism invariants hold with faults active (docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rwc::fault {

/// What an armed site does when an injection matches. Sites interpret the
/// kinds they understand and ignore the rest (docs/FAULTS.md maps sites to
/// kinds); `magnitude` is the kind's parameter (seconds, index, budget...).
enum class Kind {
  kNone,        ///< no fault (the disarmed value)
  kFail,        ///< operation fails / aborts mid-transition
  kStall,       ///< operation completes but takes `magnitude` extra seconds
  kStale,       ///< operation completes against stale state
  kNan,         ///< value replaced by quiet NaN
  kGarbage,     ///< value replaced by wildly out-of-range garbage
  kDuplicate,   ///< sample duplicated in place
  kDrop,        ///< sample/value dropped (arrived too late to use)
  kBudget,      ///< iteration/time budget clamped to `magnitude`
  kDelay,       ///< execution delayed `magnitude` milliseconds
};

/// Spec token for `kind` ("fail", "stall", ...). kNone maps to "none".
std::string_view to_string(Kind kind);

/// The action an armed site receives: no-fault is the falsy default.
struct Action {
  Kind kind = Kind::kNone;
  double magnitude = 0.0;

  explicit operator bool() const { return kind != Kind::kNone; }
};

/// One scheduled injection. Matching rule on the site's evaluation key:
///   period == 0  ->  fires when key == hit (one-shot)
///   period  > 0  ->  fires when key % period == hit (repeating)
struct Injection {
  std::string site;
  std::uint64_t hit = 0;
  std::uint64_t period = 0;
  Action action;

  bool matches(std::string_view at_site, std::uint64_t key) const;
  /// Spec form, e.g. "bvt.reconfig@2:fail" or "flow.mincost%4@1:budget=3".
  std::string to_string() const;
};

/// A complete schedule plus the generator seed it came from (provenance for
/// reproducing property-test failures; 0 means hand-written).
struct FaultPlan {
  std::vector<Injection> injections;
  std::uint64_t seed = 0;

  bool empty() const { return injections.empty(); }

  /// Serializes to the spec grammar parse() accepts:
  ///   plan      := injection (';' injection)*
  ///   injection := site ['%' period] '@' hit ':' kind ['=' magnitude]
  /// Sites are dotted lowercase identifiers; magnitude defaults to 0.
  std::string to_string() const;

  /// Parses a spec string (the RWC_FAULTS format). Throws util::CheckError
  /// on malformed input with the offending clause in the message.
  static FaultPlan parse(std::string_view spec);

  /// Shrinking by halving: the first / second half of the injection list.
  /// tests/prop/ bisects a failing schedule with these until neither half
  /// reproduces the violation.
  FaultPlan first_half() const;
  FaultPlan second_half() const;
};

}  // namespace rwc::fault
