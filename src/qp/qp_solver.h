// Convex quadratic program solver (the CPLEX substitute).
//
// Solves
//     minimize    (1/2) x' diag(p) x + q' x
//     subject to  l <= A x <= u
// with p >= 0 elementwise, by the operator-splitting (ADMM) method used by
// OSQP [Stellato et al.].  The linear system solved each iteration,
//     (diag(p) + sigma I + rho A'A) x = rhs,
// is handled with Jacobi-preconditioned conjugate gradients on the
// (scaled) Gram matrix G = A'A, built once per scaled constraint matrix and
// cached beside it: each CG step is one SpMV with G (whose diagonal is the
// preconditioner), and rho changes need no refactorization.  No sparse
// factorization is required, so problems with hundreds of thousands of
// constraints (arrival-time rows for ~100k-cell designs) stay tractable.
//
// After ADMM terminates, every solve that is not certified infeasible
// re-solves the equality-constrained QP on the detected active set to near
// machine precision (OSQP-style polish).  The polished solution is a
// deterministic function of (problem, active set) alone -- independent of
// the ADMM trajectory -- so warm- and cold-started solves that agree on the
// active set return bit-identical solutions; the ADMM iterate stands when
// the polished point fails the KKT tolerances (wrong active-set guess).
// The polish solves its dual Schur system by CG from a zero start,
// stopping once the Schur residual -- the active rows' primal residual up
// to a 1e-12 regularization -- is below 1e-3 * eps_abs, far under what its
// KKT acceptance test can resolve.
//
// The dose-map formulations of the paper fit this shape exactly: the delta-
// leakage objective is separable (diagonal quadratic), and dose-range,
// smoothness, and arrival-time constraints are sparse linear rows.  The QCP
// variants (linear objective, one convex quadratic constraint) are reduced
// to a monotone sequence of these QPs by bisection in src/dmopt.
#pragma once

#include <string>
#include <vector>

#include "la/cg.h"
#include "la/dense.h"
#include "la/sparse.h"

namespace doseopt::qp {

/// Problem data: minimize 1/2 x'diag(p)x + q'x  s.t.  l <= Ax <= u.
struct QpProblem {
  la::Vec p_diag;      ///< n, non-negative
  la::Vec q;           ///< n
  la::CsrMatrix a;     ///< m x n
  la::Vec lower;       ///< m (-inf allowed as -kInfinity)
  la::Vec upper;       ///< m (+kInfinity allowed)

  std::size_t num_variables() const { return q.size(); }
  std::size_t num_constraints() const { return lower.size(); }

  /// Throws doseopt::Error if dimensions/bounds are inconsistent.
  void validate() const;

  /// Objective value at x.
  double objective(const la::Vec& x) const;
};

/// Bound value treated as infinite.
inline constexpr double kInfinity = 1e30;

/// Solver configuration.
struct QpSettings {
  int max_iterations = 4000;
  double eps_abs = 1e-5;
  double eps_rel = 1e-5;
  int check_interval = 10;   ///< termination-check cadence
  /// Stall exit: stop early (status kMaxIterations) when neither residual
  /// has improved by 1% for this many iterations -- the signature of a
  /// near-infeasible problem where the primal iterate has already reached
  /// its limit point and further iterations buy nothing.  A stalled
  /// solve's polish repairs its active-set guess by active-set steps and
  /// returns the KKT point it finds as kSolved, so a feasible problem
  /// caught in a residual limit cycle still leaves polished.  0 (default) disables, keeping the historical
  /// run-to-max_iterations behavior.
  int stall_window = 0;
  /// Attempt the active-set polish *during* the iteration -- whenever the
  /// clamp-detected set is stable across consecutive checks or the
  /// residuals plateau -- and return the polished point as soon as one
  /// passes the same KKT acceptance the final polish uses, instead of
  /// waiting for the ADMM iterate itself to meet tolerance.  Near-
  /// degenerate problems
  /// (tau probes at the feasibility boundary) oscillate for hundreds of
  /// iterations while holding the optimal active set almost immediately;
  /// the early exit cuts those solves by 3-6x.  Off by default: the
  /// incremental cutting-plane path enables it, the historical cold path
  /// keeps polish-at-termination-only semantics.
  bool early_polish = false;
  /// Incremental solves (solve_incremental): reuse the cached Ruiz scaling,
  /// scaled matrix, dual iterate, and tuned rho across calls.  When false,
  /// every solve runs the historical cold path (full equilibration, zero
  /// dual) -- the A/B switch for the incremental cutting-plane path.
  bool warm_start = true;
};

/// Solve outcome.
enum class QpStatus {
  kSolved,
  kMaxIterations,     ///< returned best iterate without meeting tolerances
  kPrimalInfeasible,  ///< infeasibility certificate detected
};

const char* to_string(QpStatus s);

/// Solution and solve diagnostics.
struct QpSolution {
  QpStatus status = QpStatus::kMaxIterations;
  la::Vec x;  ///< primal solution
  la::Vec y;  ///< dual solution (multipliers for l <= Ax <= u)
  la::Vec z;  ///< constraint values Ax at the solution
  double objective = 0.0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  int iterations = 0;
  bool polished = false;  ///< active-set polish succeeded and was applied
  /// The warm incremental solve failed acceptance (non-finite iterate or
  /// rejected KKT residuals) and this solution came from the degraded-mode
  /// cold re-solve -- the historical warm_start=false path, bit-identical
  /// to running with warm starts disabled from the outset.
  bool cold_fallback = false;
};

/// Reusable solver scratch: every vector the ADMM loop and its inner CG
/// touch per iteration.  Owned by QpWarmState so a sequence of incremental
/// solves (and every tau probe within a bisection) allocates these once
/// instead of per call; resize() is a no-op once capacity has peaked.
struct QpScratch {
  la::Vec p_s, q_s, l_s, u_s;              ///< scaled problem data
  la::Vec z, rhs, x_tilde, z_tilde;        ///< ADMM iterates
  la::Vec ax, aty, work_m, precond;        ///< residual/termination work
  la::Vec seed_x, seed_y;                  ///< scaled entry iterates
  la::CgWorkspace cg_ws;                   ///< inner-CG vectors
};

/// Persistent state carried across a sequence of related solves over a
/// *growing* constraint set: the same variables, rows only ever appended,
/// bounds free to change between solves (the cutting-plane contract).
/// Caches the Ruiz scaling, the scaled constraint matrix and its Gram
/// matrix (refreshed with warm-started refinement sweeps when rows are
/// appended), and the last primal and dual iterates (appended rows start
/// with a zero multiplier).
struct QpWarmState {
  la::Vec x;  ///< last primal solution (unscaled)
  la::Vec y;  ///< last dual solution (unscaled), one entry per cached row

  // Cached equilibration + scaled matrix (solve_incremental internals).
  la::Vec col_scale;        ///< e (n)
  la::Vec row_scale;        ///< d, grows with appended rows
  double cost_scale = 1.0;  ///< c
  la::CsrMatrix a_scaled;   ///< D A E for the cached rows
  la::CsrMatrix gram;       ///< A~' A~, rebuilt with a_scaled
  std::size_t rows_cached = 0;
  std::size_t nnz_cached = 0;

  /// Solver scratch reused across every solve through this state (pure
  /// allocation cache -- carries no numerical state between solves).
  QpScratch scratch;

  /// Drop everything (next solve_incremental re-equilibrates from scratch).
  void reset() { *this = QpWarmState(); }
};

/// Active-set polish (OSQP Section 5.2 adapted to diagonal P): given a
/// guess of the rows held at their lower / upper bound, solve
///     minimize    1/2 x'(P + delta I)x + q'x
///     subject to  A_act x = b_act
/// via the dual Schur complement
///     (A_act D^{-1} A_act' + delta_d I) lambda = A_act D^{-1}(-q) - b_act,
///     x = D^{-1}(-q - A_act' lambda),       D = P + delta I,
/// which is exact because P is diagonal.  CG starts from lambda = 0, so the
/// result is a function of (problem, guess) alone -- not of the ADMM
/// trajectory that produced the guess -- and stops once the Schur residual
/// is below 1e-3 * eps_abs, under what the acceptance test can resolve.
///
/// A point is accepted if it passes the solver's KKT residual tolerances
/// on `problem`; it then overwrites `sol` (status kSolved, polished) and
/// true is returned.  On false `sol` is untouched.
///
/// With `repair` (the solver passes it at a stall exit) a point must also
/// hold every multiplier on its active side, and a wrong guess is repaired
/// by one-row primal active-set steps: drop the active row whose
/// multiplier has the most wrong sign or, when every sign is right, add
/// the most violated inactive row, then re-solve.  The repair gives up
/// when there is nothing to drop or add, when it would re-add a row it
/// dropped (so it cannot cycle), or after 50 steps.
bool polish_active_set(const QpSettings& settings, const QpProblem& problem,
                       std::vector<unsigned char> at_lower,
                       std::vector<unsigned char> at_upper, QpSolution& sol,
                       bool repair);

/// ADMM QP solver. Stateless between solves except via explicit warm starts.
class QpSolver {
 public:
  explicit QpSolver(QpSettings settings = {}) : settings_(settings) {}

  /// Solve from a cold start.
  QpSolution solve(const QpProblem& problem) const;

  /// Solve warm-started from a previous solution's (x, y).
  QpSolution solve(const QpProblem& problem, const la::Vec& x0,
                   const la::Vec& y0) const;

  /// Incremental solve: `problem` must extend the problem last seen by
  /// `state` by appending rows only (same variables and objective;
  /// bounds may change freely -- a tau retarget touches only `upper`).
  /// Persistent rows keep their dual multipliers, appended rows start at
  /// zero, and the cached Ruiz scaling is extended incrementally: appended
  /// rows are seeded with an exact one-sided row equilibration against the
  /// cached column scales, then a few full sweeps warm-started from the
  /// cached scaling refine the whole system (instead of the 10 cold-start
  /// sweeps).  With settings.warm_start == false (or a fresh/incompatible
  /// state) this degenerates to the historical cold path, carrying only
  /// the primal iterate.
  ///
  /// Degraded mode: when the warm-started solve produces a non-finite
  /// iterate (ADMM divergence) or fails KKT acceptance, the cached state
  /// is discarded and the solve falls back to the historical cold path
  /// automatically; the returned solution carries cold_fallback = true and
  /// is bit-identical to a warm_start=false run.
  QpSolution solve_incremental(const QpProblem& problem,
                               QpWarmState& state) const;

  const QpSettings& settings() const { return settings_; }

 private:
  QpSettings settings_;
};

}  // namespace doseopt::qp
