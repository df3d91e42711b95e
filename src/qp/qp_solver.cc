#include "qp/qp_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "faultinject/fault.h"
#include "la/cg.h"

namespace doseopt::qp {

namespace {

faultinject::FaultPoint g_fault_admm_diverge("qp.admm_diverge");
faultinject::FaultPoint g_fault_kkt_reject("qp.kkt_reject");

/// ADMM constants: initial penalty rho, proximal regularization sigma,
/// over-relaxation alpha in (0, 2), the adaptive-rho cadence, and the inner
/// CG's iteration cap and tolerance floor.
constexpr double kRho = 0.1;
constexpr double kSigma = 1e-6;
constexpr double kAlpha = 1.6;
constexpr int kRhoUpdateInterval = 50;
constexpr int kCgMaxIterations = 200;
constexpr double kCgTolerance = 1e-8;

/// Active-set repair steps allowed per repairing polish.  The stalled
/// probes of the warm-vs-cold survey in EXPERIMENTS.md needed at most 9.
constexpr int kRepairSteps = 50;

/// Acceptance gate for the warm incremental path: every component of the
/// returned iterate and its diagnostics must be finite.
bool solution_finite(const QpSolution& sol) {
  const auto vec_finite = [](const la::Vec& v) {
    for (const double a : v)
      if (!std::isfinite(a)) return false;
    return true;
  };
  return vec_finite(sol.x) && vec_finite(sol.y) && vec_finite(sol.z) &&
         std::isfinite(sol.objective) && std::isfinite(sol.primal_residual) &&
         std::isfinite(sol.dual_residual);
}

}  // namespace

void QpProblem::validate() const {
  const std::size_t n = q.size();
  const std::size_t m = lower.size();
  DOSEOPT_CHECK(p_diag.size() == n, "QpProblem: p_diag size mismatch");
  DOSEOPT_CHECK(a.cols() == n, "QpProblem: A column count mismatch");
  DOSEOPT_CHECK(a.rows() == m, "QpProblem: A row count mismatch");
  DOSEOPT_CHECK(upper.size() == m, "QpProblem: bound size mismatch");
  for (double p : p_diag)
    DOSEOPT_CHECK(p >= 0.0, "QpProblem: negative quadratic diagonal");
  for (std::size_t i = 0; i < m; ++i)
    DOSEOPT_CHECK(lower[i] <= upper[i], "QpProblem: crossed bounds");
}

double QpProblem::objective(const la::Vec& x) const {
  double obj = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    obj += 0.5 * p_diag[i] * x[i] * x[i] + q[i] * x[i];
  return obj;
}

const char* to_string(QpStatus s) {
  switch (s) {
    case QpStatus::kSolved:
      return "solved";
    case QpStatus::kMaxIterations:
      return "max_iterations";
    case QpStatus::kPrimalInfeasible:
      return "primal_infeasible";
  }
  return "unknown";
}

QpSolution QpSolver::solve(const QpProblem& problem) const {
  la::Vec x0(problem.num_variables(), 0.0);
  la::Vec y0(problem.num_constraints(), 0.0);
  return solve(problem, x0, y0);
}

namespace {

/// Ruiz equilibration of [P, A'; A, 0] plus cost normalization, as in OSQP.
/// Produces column scales e (n), row scales d (m), and cost scale c such
/// that the scaled problem P~ = c E P E, q~ = c E q, A~ = D A E is well
/// conditioned for ADMM.
struct Scaling {
  la::Vec e;  // n
  la::Vec d;  // m
  double c = 1.0;
};

Scaling ruiz_equilibrate(const QpProblem& problem, int iterations,
                         const Scaling* initial = nullptr) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  Scaling s;
  if (initial != nullptr) {
    s = *initial;
  } else {
    s.e.assign(n, 1.0);
    s.d.assign(m, 1.0);
  }

  const auto& row_ptr = problem.a.row_ptr();
  const auto& col_idx = problem.a.col_idx();
  const auto& val = problem.a.values();

  la::Vec col_norm(n), row_norm(m);
  for (int it = 0; it < iterations; ++it) {
    std::fill(col_norm.begin(), col_norm.end(), 0.0);
    std::fill(row_norm.begin(), row_norm.end(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const double v = std::abs(val[k] * s.d[r] * s.e[col_idx[k]]);
        row_norm[r] = std::max(row_norm[r], v);
        col_norm[col_idx[k]] = std::max(col_norm[col_idx[k]], v);
      }
    }
    // Columns also see the (diagonal) quadratic block.
    for (std::size_t j = 0; j < n; ++j) {
      const double pv = std::abs(problem.p_diag[j]) * s.e[j] * s.e[j] * s.c;
      col_norm[j] = std::max(col_norm[j], pv);
    }
    for (std::size_t r = 0; r < m; ++r)
      if (row_norm[r] > 1e-12) s.d[r] /= std::sqrt(row_norm[r]);
    for (std::size_t j = 0; j < n; ++j)
      if (col_norm[j] > 1e-12) s.e[j] /= std::sqrt(col_norm[j]);

    // Cost scaling: normalize the scaled gradient magnitude.
    double g = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      g = std::max(g, std::abs(problem.p_diag[j]) * s.e[j] * s.e[j]);
      g = std::max(g, std::abs(problem.q[j]) * s.e[j]);
    }
    if (g > 1e-12) s.c = 1.0 / g;
  }
  return s;
}

/// One-sided extension of a cached equilibration: row scales for the
/// appended rows [row_begin, m) with the column scales held fixed,
/// d_r = 1 / sqrt(max_k |v * e_col|) -- exact row equilibration of the new
/// block against the cached e.
la::Vec extend_row_scales(const QpProblem& problem, std::size_t row_begin,
                          const la::Vec& e) {
  const std::size_t m = problem.num_constraints();
  const auto& row_ptr = problem.a.row_ptr();
  const auto& col_idx = problem.a.col_idx();
  const auto& val = problem.a.values();
  la::Vec d_tail(m - row_begin, 1.0);
  for (std::size_t r = row_begin; r < m; ++r) {
    double norm = 0.0;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      norm = std::max(norm, std::abs(val[k] * e[col_idx[k]]));
    if (norm > 1e-12) d_tail[r - row_begin] = 1.0 / std::sqrt(norm);
  }
  return d_tail;
}

}  // namespace

bool polish_active_set(const QpSettings& s, const QpProblem& problem,
                       std::vector<unsigned char> at_lower,
                       std::vector<unsigned char> at_upper, QpSolution& sol,
                       bool repair) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  const auto& row_ptr = problem.a.row_ptr();
  const auto& col_idx = problem.a.col_idx();
  const auto& val = problem.a.values();

  double p_max = 0.0;
  for (double p : problem.p_diag) p_max = std::max(p_max, p);
  const double delta = 1e-9 * std::max(p_max, 1.0);
  la::Vec dinv(n);
  for (std::size_t j = 0; j < n; ++j)
    dinv[j] = 1.0 / (problem.p_diag[j] + delta);

  la::Vec work_n(n);
  std::vector<std::uint32_t> act;
  la::Vec b_act;
  std::vector<unsigned char> dropped(m, 0);  // rows this repair dropped
  for (int step = 0;; ++step) {
    act.clear();
    b_act.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (at_lower[i]) {
        act.push_back(static_cast<std::uint32_t>(i));
        b_act.push_back(problem.lower[i]);
      } else if (at_upper[i]) {
        act.push_back(static_cast<std::uint32_t>(i));
        b_act.push_back(problem.upper[i]);
      }
    }
    const std::size_t ma = act.size();

    auto at_mul = [&](const la::Vec& lam, la::Vec& out) {
      std::fill(out.begin(), out.end(), 0.0);
      for (std::size_t a = 0; a < ma; ++a) {
        const std::size_t r = act[a];
        const double l = lam[a];
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
          out[col_idx[k]] += val[k] * l;
      }
    };
    auto a_mul_act = [&](const la::Vec& v, la::Vec& out) {
      for (std::size_t a = 0; a < ma; ++a) {
        const std::size_t r = act[a];
        double sum = 0.0;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
          sum += val[k] * v[col_idx[k]];
        out[a] = sum;
      }
    };

    la::Vec lam(ma, 0.0);
    if (ma > 0) {
      la::Vec rhs(ma), precond(ma);
      for (std::size_t j = 0; j < n; ++j) work_n[j] = -problem.q[j] * dinv[j];
      a_mul_act(work_n, rhs);
      double s_diag_max = 0.0;
      for (std::size_t a = 0; a < ma; ++a) {
        rhs[a] -= b_act[a];
        const std::size_t r = act[a];
        double d = 0.0;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
          d += val[k] * val[k] * dinv[col_idx[k]];
        precond[a] = d;
        s_diag_max = std::max(s_diag_max, d);
      }
      const double delta_d = 1e-12 * std::max(s_diag_max, 1.0);
      for (std::size_t a = 0; a < ma; ++a) precond[a] += delta_d;

      auto schur_op = [&](const la::Vec& v, la::Vec& out) {
        at_mul(v, work_n);
        for (std::size_t j = 0; j < n; ++j) work_n[j] *= dinv[j];
        a_mul_act(work_n, out);
        for (std::size_t a = 0; a < ma; ++a) out[a] += delta_d * v[a];
      };
      // The Schur residual rhs - S lambda equals A_act x - b_act up to the
      // delta_d lambda term, so once it is 1000x below eps_abs the
      // acceptance test below cannot see further digits; the relative
      // 1e-13 and the iteration cap stay as guards.
      const double rhs_norm = la::norm2(rhs);
      la::CgOptions cg;
      cg.max_iterations = 1000;
      cg.tolerance = rhs_norm > 0.0
                         ? std::max(1e-13, 1e-3 * s.eps_abs / rhs_norm)
                         : 1e-13;
      la::conjugate_gradient(schur_op, rhs, precond, lam, cg);
    }

    la::Vec x(n);
    at_mul(lam, work_n);
    for (std::size_t j = 0; j < n; ++j)
      x[j] = (-problem.q[j] - work_n[j]) * dinv[j];

    // KKT acceptance on the *unperturbed* problem, same tolerances as ADMM.
    la::Vec ax(m);
    problem.a.multiply(x, ax);
    double prim_res = 0.0, ax_norm = 0.0, b_norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double z = std::clamp(ax[i], problem.lower[i], problem.upper[i]);
      prim_res = std::max(prim_res, std::abs(ax[i] - z));
      ax_norm = std::max(ax_norm, std::abs(ax[i]));
      b_norm = std::max(b_norm, std::abs(z));
    }
    la::Vec y(m, 0.0);
    for (std::size_t a = 0; a < ma; ++a) y[act[a]] = lam[a];
    la::Vec aty(n);
    problem.a.multiply_transpose(y, aty);
    double dual_res = 0.0, px_norm = 0.0, aty_norm = 0.0, q_norm = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double px = problem.p_diag[j] * x[j];
      dual_res = std::max(dual_res, std::abs(px + problem.q[j] + aty[j]));
      px_norm = std::max(px_norm, std::abs(px));
      aty_norm = std::max(aty_norm, std::abs(aty[j]));
      q_norm = std::max(q_norm, std::abs(problem.q[j]));
    }
    const double eps_prim = s.eps_abs + s.eps_rel * std::max(ax_norm, b_norm);
    const double eps_dual =
        s.eps_abs + s.eps_rel * std::max({px_norm, aty_norm, q_norm});

    // Repair candidates: the most wrong-signed active row (an equality
    // row takes either sign), else the most violated inactive row.  None
    // are looked for without repair.
    std::size_t drop = ma, add = m;
    double worst = s.eps_abs + s.eps_rel * la::norm_inf(lam);
    for (std::size_t a = 0; a < ma && repair; ++a) {
      const std::size_t r = act[a];
      if (problem.lower[r] == problem.upper[r]) continue;
      const double wrong = at_lower[r] ? lam[a] : -lam[a];
      if (wrong > worst) {
        worst = wrong;
        drop = a;
      }
    }
    double worst_viol = eps_prim;
    for (std::size_t i = 0; i < m && repair && drop == ma; ++i) {
      if (at_lower[i] || at_upper[i]) continue;
      const double viol =
          std::max(ax[i] - problem.upper[i], problem.lower[i] - ax[i]);
      if (viol > worst_viol) {
        worst_viol = viol;
        add = i;
      }
    }
    if (prim_res <= eps_prim && dual_res <= eps_dual && drop == ma) {
      sol.x = std::move(x);
      sol.y = std::move(y);
      sol.z.resize(m);
      for (std::size_t i = 0; i < m; ++i)
        sol.z[i] = std::clamp(ax[i], problem.lower[i], problem.upper[i]);
      sol.objective = problem.objective(sol.x);
      sol.primal_residual = prim_res;
      sol.dual_residual = dual_res;
      sol.status = QpStatus::kSolved;
      sol.polished = true;
      return true;
    }
    // Give up when the step budget is spent, when nothing is left to
    // change (the typical infeasible-probe guess: every sign right, every
    // violated row already active), or when the next add would bring back
    // a row this repair dropped.  Without re-adds every drop is final and
    // each row is added at most once, so the walk ends within 2m steps.
    if (step == kRepairSteps || (drop == ma && add == m) ||
        (drop == ma && dropped[add]))
      return false;
    if (drop < ma) {
      dropped[act[drop]] = 1;
      at_lower[act[drop]] = 0;
      at_upper[act[drop]] = 0;
    } else if (ax[add] > problem.upper[add]) {
      at_upper[add] = 1;
    } else {
      at_lower[add] = 1;
    }
  }
}

namespace {

/// The ADMM iteration loop on pre-scaled data.  `x` and `y` enter in
/// *scaled* coordinates; the returned solution is unscaled.  Every solve
/// starts from the penalty kRho.  `scratch` supplies every per-iteration
/// vector.
QpSolution run_admm(const QpSettings& s, const QpProblem& problem,
                    const Scaling& sc, const la::CsrMatrix& a_s,
                    const la::CsrMatrix& gram, la::Vec& x, la::Vec& y,
                    QpScratch& w) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  QpSolution sol;

  w.p_s.resize(n);
  w.q_s.resize(n);
  w.l_s.resize(m);
  w.u_s.resize(m);
  la::Vec& p_s = w.p_s;
  la::Vec& q_s = w.q_s;
  la::Vec& l_s = w.l_s;
  la::Vec& u_s = w.u_s;
  for (std::size_t j = 0; j < n; ++j) {
    p_s[j] = sc.c * sc.e[j] * sc.e[j] * problem.p_diag[j];
    q_s[j] = sc.c * sc.e[j] * problem.q[j];
  }
  for (std::size_t i = 0; i < m; ++i) {
    l_s[i] = problem.lower[i] <= -kInfinity ? -kInfinity
                                            : problem.lower[i] * sc.d[i];
    u_s[i] = problem.upper[i] >= kInfinity ? kInfinity
                                           : problem.upper[i] * sc.d[i];
  }

  double rho = kRho;

  la::Vec& z = w.z;
  a_s.multiply(x, z);
  for (std::size_t i = 0; i < m; ++i) z[i] = std::clamp(z[i], l_s[i], u_s[i]);

  w.rhs.resize(n);
  w.x_tilde.resize(n);
  w.precond.resize(n);
  la::Vec& rhs = w.rhs;
  la::Vec& x_tilde = w.x_tilde;
  la::Vec& z_tilde = w.z_tilde;
  la::Vec& ax = w.ax;
  la::Vec& aty = w.aty;
  la::Vec& precond = w.precond;
  la::Vec& work_m = w.work_m;
  work_m.resize(m);

  // Jacobi preconditioner: the diagonal of P~ + sigma I + rho G.
  const la::Vec gram_diag = gram.diagonal();
  auto build_precond = [&]() {
    for (std::size_t j = 0; j < n; ++j)
      precond[j] = p_s[j] + kSigma + rho * gram_diag[j];
  };
  build_precond();

  // (P~ + sigma I) v + rho G v: one SpMV with the cached Gram matrix.
  auto kkt_op = [&](const la::Vec& v, la::Vec& out) {
    gram.multiply(v, out);
    for (std::size_t j = 0; j < n; ++j)
      out[j] = (p_s[j] + kSigma) * v[j] + rho * out[j];
  };
  bool polished_early = false;
  bool stall_exit = false;
  // Stall bookkeeping: best residuals seen so far and the last iteration
  // at which either improved by at least 1%.
  double best_prim = kInfinity, best_dual = kInfinity;
  int last_progress_iter = 0;
  // Active-set signature tracking for the early polish triggers.
  std::uint64_t set_hash = 0, tried_hash = 0;
  int stable_checks = 0;
  std::vector<unsigned char> at_lower(m, 0), at_upper(m, 0);
  la::CgOptions cg_opts;
  cg_opts.max_iterations = kCgMaxIterations;
  // Inexact ADMM: the inner CG tolerance starts loose and tightens with the
  // outer residuals, which cuts the dominant per-iteration cost by an order
  // of magnitude on large dose-map problems without affecting the fixed
  // point (standard inexact-ADMM argument).
  double cg_tol = 1e-4;

  for (int iter = 1; iter <= s.max_iterations; ++iter) {
    // x update: (P + sigma I + rho A'A) x~ = sigma x - q + A'(rho z - y).
    cg_opts.tolerance = std::max(kCgTolerance, cg_tol);
    for (std::size_t i = 0; i < m; ++i) work_m[i] = rho * z[i] - y[i];
    a_s.multiply_transpose(work_m, rhs);
    for (std::size_t j = 0; j < n; ++j) rhs[j] += kSigma * x[j] - q_s[j];
    x_tilde = x;
    la::conjugate_gradient(kkt_op, rhs, precond, x_tilde, cg_opts, &w.cg_ws);
    a_s.multiply(x_tilde, z_tilde);

    // z and y updates with over-relaxation.
    for (std::size_t i = 0; i < m; ++i) {
      const double zr = kAlpha * z_tilde[i] + (1.0 - kAlpha) * z[i];
      const double z_new = std::clamp(zr + y[i] / rho, l_s[i], u_s[i]);
      y[i] += rho * (zr - z_new);
      z[i] = z_new;
    }
    for (std::size_t j = 0; j < n; ++j)
      x[j] = kAlpha * x_tilde[j] + (1.0 - kAlpha) * x[j];

    sol.iterations = iter;
    if (iter % s.check_interval != 0 && iter != s.max_iterations) continue;

    // --- termination on *unscaled* residuals ---
    a_s.multiply(x, ax);
    double prim_res = 0.0, ax_norm = 0.0, z_norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double inv_d = 1.0 / sc.d[i];
      prim_res = std::max(prim_res, std::abs(ax[i] - z[i]) * inv_d);
      ax_norm = std::max(ax_norm, std::abs(ax[i]) * inv_d);
      z_norm = std::max(z_norm, std::abs(z[i]) * inv_d);
    }
    a_s.multiply_transpose(y, aty);
    double dual_res = 0.0, px_norm = 0.0, aty_norm = 0.0, q_norm = 0.0;
    const double inv_c = 1.0 / sc.c;
    for (std::size_t j = 0; j < n; ++j) {
      const double scale = sc.e[j] * inv_c;
      const double px = p_s[j] * x[j];
      dual_res =
          std::max(dual_res, std::abs(px + q_s[j] + aty[j]) * scale);
      px_norm = std::max(px_norm, std::abs(px) * scale);
      aty_norm = std::max(aty_norm, std::abs(aty[j]) * scale);
      q_norm = std::max(q_norm, std::abs(q_s[j]) * scale);
    }

    const double eps_prim = s.eps_abs + s.eps_rel * std::max(ax_norm, z_norm);
    const double eps_dual =
        s.eps_abs + s.eps_rel * std::max({px_norm, aty_norm, q_norm});

    sol.primal_residual = prim_res;
    sol.dual_residual = dual_res;

    if (prim_res < 0.99 * best_prim) {
      best_prim = prim_res;
      last_progress_iter = iter;
    }
    if (dual_res < 0.99 * best_dual) {
      best_dual = dual_res;
      last_progress_iter = iter;
    }

    // Tighten the inner CG with outer progress (scaled-space residuals).
    {
      double sp = 0.0, sd = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        sp = std::max(sp, std::abs(ax[i] - z[i]));
      for (std::size_t j = 0; j < n; ++j)
        sd = std::max(sd, std::abs(p_s[j] * x[j] + q_s[j] + aty[j]));
      cg_tol = std::clamp(0.1 * std::min(sp, sd), 1e-10, 1e-4);
    }

    // Clamp-detected active set of the current iterate (an active row holds
    // its scaled bound exactly after the z update), and its signature for
    // the early-polish triggers below.
    if (s.early_polish) {
      std::uint64_t h = 1469598103934665603ull;
      for (std::size_t i = 0; i < m; ++i) {
        unsigned char tag = 0;
        if (l_s[i] > -kInfinity && z[i] == l_s[i]) tag = 1;
        else if (u_s[i] < kInfinity && z[i] == u_s[i]) tag = 2;
        at_lower[i] = tag == 1;
        at_upper[i] = tag == 2;
        h = (h ^ tag) * 1099511628211ull;
      }
      if (h == set_hash) {
        ++stable_checks;
      } else {
        set_hash = h;
        stable_checks = 1;
      }
    }

    if (prim_res <= eps_prim && dual_res <= eps_dual) {
      sol.status = QpStatus::kSolved;
      break;
    }

    // Primal infeasibility certificate on the scaled problem.
    const double y_norm = la::norm_inf(y);
    if (y_norm > 1e-10 && iter > 100) {
      if (la::norm_inf(aty) <= 1e-8 * y_norm) {
        double support = 0.0;
        bool bounded = true;
        for (std::size_t i = 0; i < m; ++i) {
          if (y[i] > 0.0) {
            if (u_s[i] >= kInfinity) { bounded = false; break; }
            support += u_s[i] * y[i];
          } else if (y[i] < 0.0) {
            if (l_s[i] <= -kInfinity) { bounded = false; break; }
            support += l_s[i] * y[i];
          }
        }
        if (bounded && support < -1e-8 * y_norm) {
          sol.status = QpStatus::kPrimalInfeasible;
          break;
        }
      }
    }

    // Early polish: exit through the active-set polish as soon as the
    // clamp-detected set is a plausible guess for the optimal one, rather
    // than waiting for the ADMM iterate itself to meet tolerance.  Two
    // triggers share the attempt budget:
    //  - the detected set has been stable for two consecutive checks and
    //    was not tried before (a warm-started solve sits on the optimal
    //    set within tens of iterations);
    //  - the residuals have gone 100 iterations without a 1% improvement
    //    (near-degenerate probes oscillate for hundreds of iterations
    //    while the set chatters around the optimal one -- retry whatever
    //    set the iterate currently holds every 100 stalled iterations);
    //  - every 100 iterations regardless of plateau, when the set moved
    //    since the last attempt (near-degenerate probes improve residuals
    //    just over 1% per window, so the plateau trigger never fires even
    //    though the chattering set visits the optimal one early).
    // An accepted polish is the same deterministic function of (problem,
    // active set) the final polish would produce, so exiting with it early
    // changes nothing but the runtime.
    const int plateau = iter - last_progress_iter;
    if (s.early_polish) {
      const bool stable_new = stable_checks >= 2 && set_hash != tried_hash;
      const bool stalled =
          plateau >= 100 && plateau % 100 == 0 && set_hash != tried_hash;
      const bool periodic = iter % 100 == 0 && set_hash != tried_hash;
      if (stable_new || stalled || periodic) {
        tried_hash = set_hash;
        if (polish_active_set(s, problem, at_lower, at_upper, sol,
                              /*repair=*/false)) {
          polished_early = true;
          break;
        }
      }
    }

    // Stall exit: on a near-infeasible problem the primal iterate converges
    // to its limit point within a few hundred iterations while the
    // residuals plateau at a positive value and the dual drifts along the
    // infeasibility ray -- the remaining iterations up to max_iterations
    // buy nothing (and the plateau polish above keeps failing, since no
    // feasible KKT point exists).  Once neither residual has improved by 1%
    // over a full window, return the current iterate as kMaxIterations:
    // the same status and essentially the same iterate the full-length run
    // would produce.  A feasible probe caught in a residual limit cycle
    // leaves the same way; the final polish repairs its guess into a KKT
    // point.
    if (s.stall_window > 0 && plateau >= s.stall_window) {
      stall_exit = true;
      break;
    }

    // Adaptive rho: balance scaled primal/dual residuals.
    if (iter % kRhoUpdateInterval == 0) {
      double sp = 0.0, sd = 0.0, saxn = 0.0, szn = 0.0, spxn = 0.0,
             satn = 0.0, sqn = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        sp = std::max(sp, std::abs(ax[i] - z[i]));
        saxn = std::max(saxn, std::abs(ax[i]));
        szn = std::max(szn, std::abs(z[i]));
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double px = p_s[j] * x[j];
        sd = std::max(sd, std::abs(px + q_s[j] + aty[j]));
        spxn = std::max(spxn, std::abs(px));
        satn = std::max(satn, std::abs(aty[j]));
        sqn = std::max(sqn, std::abs(q_s[j]));
      }
      const double scaled_prim = sp / std::max({saxn, szn, 1e-12});
      const double scaled_dual = sd / std::max({spxn, satn, sqn, 1e-12});
      const double ratio =
          std::sqrt(scaled_prim / std::max(scaled_dual, 1e-16));
      if (ratio > 5.0 || ratio < 0.2) {
        rho = std::clamp(rho * ratio, 1e-6, 1e6);
        build_precond();
      }
    }
  }

  if (polished_early) return sol;

  // --- unscale the solution ---
  sol.x.resize(n);
  for (std::size_t j = 0; j < n; ++j) sol.x[j] = sc.e[j] * x[j];
  sol.y.resize(m);
  for (std::size_t i = 0; i < m; ++i) sol.y[i] = sc.d[i] * y[i] / sc.c;
  sol.z.resize(m);
  for (std::size_t i = 0; i < m; ++i) sol.z[i] = z[i] / sc.d[i];
  sol.objective = problem.objective(sol.x);

  if (sol.status != QpStatus::kPrimalInfeasible) {
    // Active set from the final iterate: the z update clamps, so an active
    // row holds its scaled bound exactly.  Only a stalled solve repairs
    // it: the points the other exits accept carry ~28 wrong-signed
    // multipliers each on full AES-65, and repairing them on every polish
    // made its warm ADMM 4-5x slower for the same goldens (EXPERIMENTS.md).
    for (std::size_t i = 0; i < m; ++i) {
      at_lower[i] = l_s[i] > -kInfinity && z[i] == l_s[i];
      at_upper[i] = !at_lower[i] && u_s[i] < kInfinity && z[i] == u_s[i];
    }
    polish_active_set(s, problem, at_lower, at_upper, sol, stall_exit);
  }
  return sol;
}

}  // namespace

QpSolution QpSolver::solve(const QpProblem& problem, const la::Vec& x0,
                           const la::Vec& y0) const {
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  DOSEOPT_CHECK(x0.size() == n && y0.size() == m,
                "QpSolver: warm-start size mismatch");

  const Scaling sc = ruiz_equilibrate(problem, /*iterations=*/10);
  const la::CsrMatrix a_s = problem.a.scaled(sc.d, sc.e);
  const la::CsrMatrix gram = a_s.gram();

  QpScratch scratch;
  la::Vec x(n), y(m);
  for (std::size_t j = 0; j < n; ++j) x[j] = x0[j] / sc.e[j];
  for (std::size_t i = 0; i < m; ++i) y[i] = sc.c * y0[i] / sc.d[i];
  return run_admm(settings_, problem, sc, a_s, gram, x, y, scratch);
}

QpSolution QpSolver::solve_incremental(const QpProblem& problem,
                                       QpWarmState& state) const {
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  // Entry iterate, captured before any cache surgery: the degraded-mode
  // cold fallback must start from exactly what a warm_start=false run
  // would have seen.
  const la::Vec x_entry = state.x;

  if (!settings_.warm_start) {
    // Historical cold path: full equilibration, zero dual; only the primal
    // iterate carries over (the pre-incremental behavior of the cutting-
    // plane loop).
    la::Vec x0 = state.x.size() == n ? state.x : la::Vec(n, 0.0);
    la::Vec y0(m, 0.0);
    QpSolution sol = solve(problem, x0, y0);
    state.x = sol.x;
    state.y = sol.y;
    return sol;
  }

  // A cached state is only reusable if it describes a row-prefix of this
  // problem (same variables, rows appended at the end, prefix structure
  // untouched).
  const bool compatible =
      state.col_scale.size() == n && state.rows_cached <= m &&
      state.nnz_cached <= problem.a.nnz() &&
      problem.a.row_ptr()[state.rows_cached] == state.nnz_cached;
  if (!compatible) {
    // Drop the structural caches but keep the carried iterates (a cold
    // fallback leaves its primal/dual in a state with no scaling cache) and
    // the scratch allocations (pure capacity cache, no numerical state).
    la::Vec keep_x = std::move(state.x);
    la::Vec keep_y = std::move(state.y);
    QpScratch keep_scratch = std::move(state.scratch);
    state.reset();
    state.x = std::move(keep_x);
    state.y = std::move(keep_y);
    state.scratch = std::move(keep_scratch);
  }

  const bool fresh = state.col_scale.empty();
  const bool appended = !fresh && m > state.rows_cached;
  if (fresh) {
    const Scaling sc = ruiz_equilibrate(problem, /*iterations=*/10);
    state.col_scale = sc.e;
    state.row_scale = sc.d;
    state.cost_scale = sc.c;
    state.a_scaled = problem.a.scaled(sc.d, sc.e);
    state.gram = state.a_scaled.gram();
    state.rows_cached = m;
    state.nnz_cached = problem.a.nnz();
  } else if (appended) {
    // Incremental equilibration: seed the appended rows with an exact
    // one-sided row scaling against the cached column scales, then refine
    // the whole system with a few full Ruiz sweeps warm-started from the
    // cached scaling -- the sweeps converge in a fraction of the cold
    // count because the prefix is already equilibrated.  (Extending the
    // rows alone is not enough: a block of appended cut rows shifts the
    // column norms and the resulting mis-scaling costs far more ADMM
    // iterations than the sweeps save.)
    const la::Vec d_tail =
        extend_row_scales(problem, state.rows_cached, state.col_scale);
    state.row_scale.insert(state.row_scale.end(), d_tail.begin(),
                           d_tail.end());
    Scaling init;
    init.e = std::move(state.col_scale);
    init.d = std::move(state.row_scale);
    init.c = state.cost_scale;
    const Scaling sc = ruiz_equilibrate(problem, /*iterations=*/3, &init);
    state.col_scale = sc.e;
    state.row_scale = sc.d;
    state.cost_scale = sc.c;
    state.a_scaled = problem.a.scaled(sc.d, sc.e);
    state.gram = state.a_scaled.gram();
    state.rows_cached = m;
    state.nnz_cached = problem.a.nnz();
  }

  Scaling sc;
  sc.e = state.col_scale;
  sc.d = state.row_scale;
  sc.c = state.cost_scale;

  // Dual warm start: persistent rows keep their multipliers, appended rows
  // start at zero.  The ADMM penalty is deliberately NOT carried: rho is
  // tuned by the adaptive scheme for the previous solve's active set, and
  // re-entering the next solve with it measurably locks the iteration into
  // slow residual oscillation (17-70% more iterations on the AES-65 probe
  // sequence than restarting from kRho).
  la::Vec& x = state.scratch.seed_x;
  la::Vec& y = state.scratch.seed_y;
  x.assign(n, 0.0);
  y.assign(m, 0.0);
  if (state.x.size() == n)
    for (std::size_t j = 0; j < n; ++j) x[j] = state.x[j] / sc.e[j];
  const std::size_t carried = std::min(state.y.size(), m);
  for (std::size_t i = 0; i < carried; ++i)
    y[i] = sc.c * state.y[i] / sc.d[i];

  QpSolution sol = run_admm(settings_, problem, sc, state.a_scaled,
                            state.gram, x, y, state.scratch);

  // Injected divergence: poison the iterate exactly as a blown-up ADMM
  // sequence would surface it, so the real recovery path runs.
  if (g_fault_admm_diverge.should_fire())
    for (double& v : sol.x) v = std::numeric_limits<double>::quiet_NaN();

  const bool accepted = solution_finite(sol) &&
                        !g_fault_kkt_reject.should_fire();
  if (!accepted) {
    // Degraded mode: the warm start led the iteration somewhere unusable
    // (or acceptance was rejected).  Drop every cached artifact -- the
    // scaling or duals may be the poison -- and re-solve on the historical
    // cold path from the entry iterate.  This reproduces the
    // warm_start=false semantics bit-for-bit: full equilibration, zero
    // dual, primal carried from the pre-solve state.
    QpScratch keep_scratch = std::move(state.scratch);
    state.reset();
    state.scratch = std::move(keep_scratch);
    la::Vec x0 = x_entry.size() == n ? x_entry : la::Vec(n, 0.0);
    la::Vec y0(m, 0.0);
    QpSolution cold = solve(problem, x0, y0);
    cold.cold_fallback = true;
    state.x = cold.x;
    state.y = cold.y;
    return cold;
  }

  state.x = sol.x;
  state.y = sol.y;
  return sol;
}

}  // namespace doseopt::qp
