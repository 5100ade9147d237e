// A self-contained dense two-phase primal simplex LP solver.
//
// This is the "LP solver substrate" for the SWAN-style TE engine (path-based
// multi-commodity flow). It targets the small/medium instances WAN TE
// produces (hundreds of rows/columns); no sparsity or factorization tricks
// on the cold path.
//
// Model: optimize c'x subject to linear constraints, x >= 0. Finite upper
// bounds are lowered to explicit constraints at solve time.
//
// Memo (docs/SOLVERS.md): an optimal solve can be stored in an LpMemo
// keyed by an exact fingerprint of every input bit, and a later solve of a
// bit-identical problem returns it instead of pivoting. The simplex is
// deterministic, so a memoized solution is the cold solve's.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rwc::lp {

enum class Sense { kMinimize, kMaximize };
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(LpStatus status);

/// One term of a linear expression: coefficient * variable.
struct Term {
  int variable = -1;
  double coefficient = 0.0;
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // per variable, empty unless optimal

  bool optimal() const { return status == LpStatus::kOptimal; }
};

/// Thread-safe store of optimal solutions keyed by LpProblem::fingerprint,
/// with FIFO eviction. Shared by repeated solves (SwanTe across controller
/// rounds); safe under concurrent solvers because a stored solution is
/// bit-identical to a cold solve of the same problem — the memo only
/// changes timing.
class LpMemo {
 public:
  explicit LpMemo(std::size_t max_entries = 512);

  /// The solution stored under `fingerprint`, or nullptr.
  std::shared_ptr<const LpSolution> find(std::uint64_t fingerprint) const;

  /// Stores (or replaces) `solution` under `fingerprint`.
  void store(std::uint64_t fingerprint, LpSolution solution);

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const LpSolution>>
      entries_;
  std::deque<std::uint64_t> insertion_order_;  // FIFO eviction queue
};

/// Linear program builder. Variables are implicitly >= 0.
class LpProblem {
 public:
  /// A stored constraint row (public so the solver's tableau set-up can
  /// read it).
  struct Row {
    std::vector<Term> terms;
    Relation relation = Relation::kLessEqual;
    double rhs = 0.0;
  };

  explicit LpProblem(Sense sense = Sense::kMinimize) : sense_(sense) {}

  /// Adds a variable with the given objective coefficient and optional
  /// finite upper bound; returns its index.
  int add_variable(double objective_coefficient,
                   double upper_bound = std::numeric_limits<double>::infinity(),
                   std::string name = {});

  /// Adds a constraint sum(terms) REL rhs. Terms may repeat a variable
  /// (coefficients are accumulated).
  void add_constraint(std::vector<Term> terms, Relation relation, double rhs);

  void set_sense(Sense sense) { sense_ = sense; }
  Sense sense() const { return sense_; }

  int variable_count() const { return static_cast<int>(objective_.size()); }
  int constraint_count() const { return static_cast<int>(rows_.size()); }
  const std::string& variable_name(int v) const;
  const std::vector<Row>& rows() const { return rows_; }
  double objective_coefficient(int v) const;
  double upper_bound(int v) const;

  /// Fingerprint of every input bit of this problem (names excluded; they
  /// never affect the solve).
  std::uint64_t fingerprint() const;

  /// Solves with the two-phase primal simplex.
  LpSolution solve() const;

  /// solve() through `memo`: returns the stored solution of a bit-identical
  /// problem, else solves and stores the result when optimal. Counted
  /// under lp.memo_hits / lp.memo_misses (docs/OBSERVABILITY.md). A
  /// nullptr memo degrades to solve().
  LpSolution solve(LpMemo* memo) const;

 private:
  Sense sense_;
  std::vector<double> objective_;
  std::vector<double> upper_bounds_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

}  // namespace rwc::lp
