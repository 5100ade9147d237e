#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::lp {

using util::mix64;
using util::mix_double;

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotEps = 1e-8;

/// Dense simplex tableau. Row 0..m-1 are constraints; the objective is kept
/// as a separate reduced-cost vector updated by pivoting.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows), cols_(cols),
        cells_(static_cast<std::size_t>(rows) * cols, 0.0),
        rhs_(rows, 0.0), basis_(rows, -1) {}

  double& at(int r, int c) {
    return cells_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double at(int r, int c) const {
    return cells_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double& rhs(int r) { return rhs_[static_cast<std::size_t>(r)]; }
  double rhs(int r) const { return rhs_[static_cast<std::size_t>(r)]; }
  int& basis(int r) { return basis_[static_cast<std::size_t>(r)]; }
  int basis(int r) const { return basis_[static_cast<std::size_t>(r)]; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Pivot on (pivot_row, pivot_col): normalize the row and eliminate the
  /// column from all other rows and from the reduced costs.
  void pivot(int pivot_row, int pivot_col, std::vector<double>& reduced,
             double& objective_value) {
    const double pivot_value = at(pivot_row, pivot_col);
    RWC_CHECK(std::abs(pivot_value) > kPivotEps);
    const double inv = 1.0 / pivot_value;
    for (int c = 0; c < cols_; ++c) at(pivot_row, c) *= inv;
    rhs(pivot_row) *= inv;
    at(pivot_row, pivot_col) = 1.0;  // exact

    for (int r = 0; r < rows_; ++r) {
      if (r == pivot_row) continue;
      const double factor = at(r, pivot_col);
      if (std::abs(factor) < kEps) {
        at(r, pivot_col) = 0.0;
        continue;
      }
      for (int c = 0; c < cols_; ++c)
        at(r, c) -= factor * at(pivot_row, c);
      at(r, pivot_col) = 0.0;  // exact
      rhs(r) -= factor * rhs(pivot_row);
    }
    const double factor = reduced[static_cast<std::size_t>(pivot_col)];
    if (std::abs(factor) > 0.0) {
      for (int c = 0; c < cols_; ++c)
        reduced[static_cast<std::size_t>(c)] -= factor * at(pivot_row, c);
      reduced[static_cast<std::size_t>(pivot_col)] = 0.0;
      objective_value -= factor * rhs(pivot_row);
    }
    basis(pivot_row) = pivot_col;
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> cells_;
  std::vector<double> rhs_;
  std::vector<int> basis_;
};

enum class IterationOutcome { kOptimal, kUnbounded, kIterationLimit };

/// Runs simplex iterations minimizing the objective encoded in `reduced`.
/// `allowed_cols` marks columns eligible to enter the basis. Pivot count is
/// accumulated into `iterations_done` for the solver counters.
IterationOutcome iterate(Tableau& tableau, std::vector<double>& reduced,
                         double& objective_value,
                         const std::vector<bool>& allowed_cols,
                         int iteration_limit,
                         std::uint64_t& iterations_done) {
  const int bland_after = iteration_limit / 2;
  for (int iteration = 0; iteration < iteration_limit;
       ++iteration, ++iterations_done) {
    const bool use_bland = iteration >= bland_after;

    // Entering column: most negative reduced cost (Dantzig) or first
    // negative (Bland, anti-cycling).
    int entering = -1;
    double best = -kEps;
    for (int c = 0; c < tableau.cols(); ++c) {
      if (!allowed_cols[static_cast<std::size_t>(c)]) continue;
      const double rc = reduced[static_cast<std::size_t>(c)];
      if (rc < best) {
        entering = c;
        best = rc;
        if (use_bland) break;
      }
    }
    if (entering < 0) return IterationOutcome::kOptimal;

    // Ratio test.
    int leaving = -1;
    double best_ratio = 0.0;
    for (int r = 0; r < tableau.rows(); ++r) {
      const double coeff = tableau.at(r, entering);
      if (coeff <= kPivotEps) continue;
      const double ratio = tableau.rhs(r) / coeff;
      if (leaving < 0 || ratio < best_ratio - kEps ||
          (use_bland && ratio < best_ratio + kEps &&
           tableau.basis(r) < tableau.basis(leaving))) {
        leaving = r;
        best_ratio = ratio;
      }
    }
    if (leaving < 0) return IterationOutcome::kUnbounded;

    tableau.pivot(leaving, entering, reduced, objective_value);
  }
  return IterationOutcome::kIterationLimit;
}

/// Per-row normalization plan: sign flip for negative rhs, slack/surplus
/// and artificial column assignment.
struct RowPlan {
  double sign = 1.0;         // row multiplier to make rhs >= 0
  int slack_col = -1;        // slack/surplus column
  double slack_coeff = 0.0;  // +1 slack, -1 surplus (after sign flip)
  int artificial_col = -1;
};

/// The solve-time shape of a problem: materialized rows (upper bounds
/// lowered to `x_j <= ub`), per-row plans and the column layout
/// [structural n][slack/surplus][artificials].
struct Prepared {
  std::vector<LpProblem::Row> rows;
  std::vector<RowPlan> plan;
  int m = 0;
  int artificial_start = 0;
  int total_cols = 0;
  int iteration_limit = 0;
  bool has_artificials = false;
};

Prepared prepare(const std::vector<LpProblem::Row>& base_rows,
                 const std::vector<double>& upper_bounds, int n) {
  Prepared prep;

  // Materialize rows, lowering finite upper bounds to x_j <= ub.
  prep.rows = base_rows;
  for (int v = 0; v < n; ++v) {
    const double ub = upper_bounds[static_cast<std::size_t>(v)];
    if (std::isfinite(ub))
      prep.rows.push_back(
          LpProblem::Row{{Term{v, 1.0}}, Relation::kLessEqual, ub});
  }
  prep.m = static_cast<int>(prep.rows.size());

  // Normalize rhs >= 0 and decide which rows need artificials.
  prep.plan.resize(static_cast<std::size_t>(prep.m));
  int next_col = n;
  for (int r = 0; r < prep.m; ++r) {
    Relation rel = prep.rows[static_cast<std::size_t>(r)].relation;
    double rhs = prep.rows[static_cast<std::size_t>(r)].rhs;
    double sign = 1.0;
    if (rhs < 0.0) {
      sign = -1.0;
      rhs = -rhs;
      if (rel == Relation::kLessEqual)
        rel = Relation::kGreaterEqual;
      else if (rel == Relation::kGreaterEqual)
        rel = Relation::kLessEqual;
    }
    auto& p = prep.plan[static_cast<std::size_t>(r)];
    p.sign = sign;
    if (rel == Relation::kLessEqual) {
      p.slack_col = next_col++;
      p.slack_coeff = 1.0;
    } else if (rel == Relation::kGreaterEqual) {
      p.slack_col = next_col++;
      p.slack_coeff = -1.0;
    }
  }
  prep.artificial_start = next_col;
  for (int r = 0; r < prep.m; ++r) {
    auto& p = prep.plan[static_cast<std::size_t>(r)];
    // <= rows start basic on their slack; >= and = rows need an artificial.
    if (p.slack_coeff != 1.0) p.artificial_col = next_col++;
  }
  prep.total_cols = next_col;
  prep.has_artificials = prep.artificial_start < prep.total_cols;
  prep.iteration_limit = 200 * (prep.m + prep.total_cols) + 2000;
  return prep;
}

}  // namespace

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

LpMemo::LpMemo(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::shared_ptr<const LpSolution> LpMemo::find(
    std::uint64_t fingerprint) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(fingerprint);
  return it == entries_.end() ? nullptr : it->second;
}

void LpMemo::store(std::uint64_t fingerprint, LpSolution solution) {
  auto entry = std::make_shared<const LpSolution>(std::move(solution));
  std::lock_guard lock(mutex_);
  const auto [it, inserted] =
      entries_.insert_or_assign(fingerprint, std::move(entry));
  (void)it;
  if (inserted) insertion_order_.push_back(fingerprint);
  while (entries_.size() > max_entries_ && !insertion_order_.empty()) {
    const std::uint64_t victim = insertion_order_.front();
    insertion_order_.pop_front();
    entries_.erase(victim);
  }
}

std::size_t LpMemo::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

int LpProblem::add_variable(double objective_coefficient, double upper_bound,
                            std::string name) {
  RWC_EXPECTS(upper_bound >= 0.0);
  const int index = variable_count();
  objective_.push_back(objective_coefficient);
  upper_bounds_.push_back(upper_bound);
  if (name.empty()) name = "x" + std::to_string(index);
  names_.push_back(std::move(name));
  return index;
}

void LpProblem::add_constraint(std::vector<Term> terms, Relation relation,
                               double rhs) {
  for (const Term& t : terms)
    RWC_EXPECTS(t.variable >= 0 && t.variable < variable_count());
  rows_.push_back(Row{std::move(terms), relation, rhs});
}

const std::string& LpProblem::variable_name(int v) const {
  RWC_EXPECTS(v >= 0 && v < variable_count());
  return names_[static_cast<std::size_t>(v)];
}

double LpProblem::objective_coefficient(int v) const {
  RWC_EXPECTS(v >= 0 && v < variable_count());
  return objective_[static_cast<std::size_t>(v)];
}

double LpProblem::upper_bound(int v) const {
  RWC_EXPECTS(v >= 0 && v < variable_count());
  return upper_bounds_[static_cast<std::size_t>(v)];
}

std::uint64_t LpProblem::fingerprint() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = mix64(hash, sense_ == Sense::kMinimize ? 0u : 1u);
  hash = mix64(hash, static_cast<std::uint64_t>(variable_count()));
  hash = mix64(hash, rows_.size());
  for (int v = 0; v < variable_count(); ++v) {
    hash = mix_double(hash, objective_[static_cast<std::size_t>(v)]);
    hash = mix_double(hash, upper_bounds_[static_cast<std::size_t>(v)]);
  }
  for (const Row& row : rows_) {
    hash = mix64(hash, static_cast<std::uint64_t>(row.relation));
    hash = mix64(hash, row.terms.size());
    for (const Term& t : row.terms) {
      hash = mix64(hash, static_cast<std::uint64_t>(t.variable));
      hash = mix_double(hash, t.coefficient);
    }
    hash = mix_double(hash, row.rhs);
  }
  return hash;
}

LpSolution LpProblem::solve(LpMemo* memo) const {
  if (memo == nullptr) return solve();
  static auto& hits = obs::Registry::global().counter("lp.memo_hits");
  static auto& misses = obs::Registry::global().counter("lp.memo_misses");

  const std::uint64_t key = fingerprint();
  if (const auto stored = memo->find(key)) {
    // Still a solve for the lp.simplex.* counters (zero pivots).
    hits.add();
    static auto& solves = obs::Registry::global().counter("lp.simplex.solves");
    solves.add();
    return *stored;
  }
  misses.add();
  LpSolution solution = solve();
  if (solution.optimal()) memo->store(key, solution);
  return solution;
}

LpSolution LpProblem::solve() const {
  // Pivot counter flushed to the registry on every exit path
  // (docs/OBSERVABILITY.md: lp.simplex.*).
  std::uint64_t iterations = 0;
  struct CounterFlush {
    const std::uint64_t& iterations;
    ~CounterFlush() {
      static auto& solves =
          obs::Registry::global().counter("lp.simplex.solves");
      static auto& pivots =
          obs::Registry::global().counter("lp.simplex.iterations");
      solves.add();
      pivots.add(iterations);
    }
  } flush{iterations};

  const int n = variable_count();
  const Prepared prep = prepare(rows_, upper_bounds_, n);
  const int m = prep.m;
  const int artificial_start = prep.artificial_start;
  const int total_cols = prep.total_cols;
  const int iteration_limit = prep.iteration_limit;

  Tableau tableau(m, total_cols);
  for (int r = 0; r < m; ++r) {
    const Row& row = prep.rows[static_cast<std::size_t>(r)];
    const RowPlan& p = prep.plan[static_cast<std::size_t>(r)];
    for (const Term& t : row.terms)
      tableau.at(r, t.variable) += p.sign * t.coefficient;
    tableau.rhs(r) = p.sign * row.rhs;
    if (p.slack_col >= 0) tableau.at(r, p.slack_col) = p.slack_coeff;
    if (p.artificial_col >= 0) tableau.at(r, p.artificial_col) = 1.0;
    tableau.basis(r) = p.artificial_col >= 0 ? p.artificial_col : p.slack_col;
  }

  // ---- Phase 1: minimize the sum of artificials. ----
  if (prep.has_artificials) {
    std::vector<double> reduced(static_cast<std::size_t>(total_cols), 0.0);
    double phase1_value = 0.0;
    // Objective: sum of artificial columns; express in terms of non-basics
    // by subtracting basic (artificial) rows.
    for (int c = artificial_start; c < total_cols; ++c)
      reduced[static_cast<std::size_t>(c)] = 1.0;
    for (int r = 0; r < m; ++r) {
      const int b = tableau.basis(r);
      if (b >= artificial_start) {
        for (int c = 0; c < total_cols; ++c)
          reduced[static_cast<std::size_t>(c)] -= tableau.at(r, c);
        phase1_value += tableau.rhs(r);
      }
    }
    std::vector<bool> allowed(static_cast<std::size_t>(total_cols), true);
    const auto outcome = iterate(tableau, reduced, phase1_value, allowed,
                                 iteration_limit, iterations);
    if (outcome == IterationOutcome::kIterationLimit)
      return LpSolution{LpStatus::kIterationLimit, 0.0, {}};
    // Phase-1 objective is bounded below by 0, so kUnbounded cannot happen.
    // Recompute the artificial sum from the tableau (robust to the sign
    // convention of the incremental tracker).
    double artificial_sum = 0.0;
    for (int r = 0; r < m; ++r)
      if (tableau.basis(r) >= artificial_start)
        artificial_sum += std::max(0.0, tableau.rhs(r));
    if (artificial_sum > 1e-6)
      return LpSolution{LpStatus::kInfeasible, 0.0, {}};

    // Drive any residual artificial out of the basis (degenerate rows).
    for (int r = 0; r < m; ++r) {
      if (tableau.basis(r) < artificial_start) continue;
      int replacement = -1;
      for (int c = 0; c < artificial_start; ++c) {
        if (std::abs(tableau.at(r, c)) > kPivotEps) {
          replacement = c;
          break;
        }
      }
      if (replacement >= 0) {
        double dummy = 0.0;
        std::vector<double> zero(static_cast<std::size_t>(total_cols), 0.0);
        tableau.pivot(r, replacement, zero, dummy);
      }
      // Otherwise the row is all-zero over structural columns (redundant
      // constraint); the artificial stays basic at value ~0, harmless.
    }
  }

  // ---- Phase 2: original objective over structural + slack columns. ----
  const double obj_sign = sense_ == Sense::kMinimize ? 1.0 : -1.0;
  std::vector<double> reduced(static_cast<std::size_t>(total_cols), 0.0);
  double objective_value = 0.0;
  for (int v = 0; v < n; ++v)
    reduced[static_cast<std::size_t>(v)] =
        obj_sign * objective_[static_cast<std::size_t>(v)];
  for (int r = 0; r < m; ++r) {
    const int b = tableau.basis(r);
    const double cb = reduced[static_cast<std::size_t>(b)];
    if (std::abs(cb) < kEps) continue;
    for (int c = 0; c < total_cols; ++c)
      reduced[static_cast<std::size_t>(c)] -= cb * tableau.at(r, c);
    reduced[static_cast<std::size_t>(b)] = 0.0;
    objective_value -= cb * tableau.rhs(r);
  }
  std::vector<bool> allowed(static_cast<std::size_t>(total_cols), true);
  for (int c = artificial_start; c < total_cols; ++c)
    allowed[static_cast<std::size_t>(c)] = false;
  const auto outcome = iterate(tableau, reduced, objective_value, allowed,
                               iteration_limit, iterations);
  if (outcome == IterationOutcome::kIterationLimit)
    return LpSolution{LpStatus::kIterationLimit, 0.0, {}};
  if (outcome == IterationOutcome::kUnbounded)
    return LpSolution{LpStatus::kUnbounded, 0.0, {}};

  LpSolution solution;
  solution.status = LpStatus::kOptimal;
  solution.values.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < m; ++r) {
    const int b = tableau.basis(r);
    if (b >= 0 && b < n)
      solution.values[static_cast<std::size_t>(b)] =
          std::max(0.0, tableau.rhs(r));
  }
  // Recompute the objective from the primal values (robust to the sign
  // convention of the incremental tracker used during pivoting).
  solution.objective = 0.0;
  for (int v = 0; v < n; ++v)
    solution.objective += objective_[static_cast<std::size_t>(v)] *
                          solution.values[static_cast<std::size_t>(v)];
  return solution;
}

}  // namespace rwc::lp
