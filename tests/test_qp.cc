// Tests for the ADMM QP solver: analytic problems, KKT verification on
// randomized instances, warm starting, scaling robustness, and infeasibility
// detection.
#include <gtest/gtest.h>

#include "common/error.h"

#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "qp/kkt_check.h"
#include "qp/qp_solver.h"

namespace doseopt::qp {
namespace {

QpProblem box_qp(const la::Vec& p, const la::Vec& q, const la::Vec& lo,
                 const la::Vec& hi) {
  const std::size_t n = q.size();
  la::TripletMatrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, 1.0);
  QpProblem prob;
  prob.p_diag = p;
  prob.q = q;
  prob.a = la::CsrMatrix(t);
  prob.lower = lo;
  prob.upper = hi;
  return prob;
}

TEST(QpSolver, UnconstrainedMinimumInsideBox) {
  // min 1/2 x^2 - x  over [-10, 10]  ->  x = 1.
  const QpProblem prob = box_qp({1.0}, {-1.0}, {-10.0}, {10.0});
  const QpSolution sol = QpSolver().solve(prob);
  EXPECT_EQ(sol.status, QpStatus::kSolved);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-4);
}

TEST(QpSolver, ClampsToActiveBound) {
  // min 1/2 x^2 - 10x over [0, 2] -> x = 2 with positive multiplier.
  const QpProblem prob = box_qp({1.0}, {-10.0}, {0.0}, {2.0});
  const QpSolution sol = QpSolver().solve(prob);
  EXPECT_EQ(sol.status, QpStatus::kSolved);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-4);
  EXPECT_GT(sol.y[0], 1.0);  // dual of the active upper bound
}

TEST(QpSolver, LinearProgramCorner) {
  // Pure LP: min -x - 2y s.t. 0 <= x <= 1, 0 <= y <= 1, x + y <= 1.5.
  la::TripletMatrix t(3, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 0, 1.0);
  t.add(2, 1, 1.0);
  QpProblem prob;
  prob.p_diag = {0.0, 0.0};
  prob.q = {-1.0, -2.0};
  prob.a = la::CsrMatrix(t);
  prob.lower = {0.0, 0.0, -kInfinity};
  prob.upper = {1.0, 1.0, 1.5};
  const QpSolution sol = QpSolver().solve(prob);
  EXPECT_EQ(sol.status, QpStatus::kSolved);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-3);   // y at its bound (heavier reward)
  EXPECT_NEAR(sol.x[0], 0.5, 1e-3);   // x fills the coupling constraint
}

TEST(QpSolver, EqualityConstraint) {
  // min 1/2(x^2 + y^2) s.t. x + y = 2 -> x = y = 1.
  la::TripletMatrix t(1, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);
  QpProblem prob;
  prob.p_diag = {1.0, 1.0};
  prob.q = {0.0, 0.0};
  prob.a = la::CsrMatrix(t);
  prob.lower = {2.0};
  prob.upper = {2.0};
  const QpSolution sol = QpSolver().solve(prob);
  EXPECT_EQ(sol.status, QpStatus::kSolved);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-4);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-4);
}

TEST(QpSolver, DetectsPrimalInfeasibility) {
  // x <= -1 and x >= 1 simultaneously.
  la::TripletMatrix t(2, 1);
  t.add(0, 0, 1.0);
  t.add(1, 0, 1.0);
  QpProblem prob;
  prob.p_diag = {1.0};
  prob.q = {0.0};
  prob.a = la::CsrMatrix(t);
  prob.lower = {-kInfinity, 1.0};
  prob.upper = {-1.0, kInfinity};
  const QpSolution sol = QpSolver().solve(prob);
  EXPECT_EQ(sol.status, QpStatus::kPrimalInfeasible);
}

TEST(QpSolver, BadlyScaledProblemStillSolves) {
  // Mimics the dose-map scaling: tiny constraint coefficients (ns/% level)
  // against large objective coefficients (nW level).
  la::TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 2e-3);
  t.add(1, 1, 1.0);
  QpProblem prob;
  prob.p_diag = {200.0, 0.0};
  prob.q = {-500.0, 0.0};
  prob.a = la::CsrMatrix(t);
  prob.lower = {-5.0, -kInfinity};
  prob.upper = {5.0, 1.0};
  const QpSolution sol = QpSolver().solve(prob);
  EXPECT_EQ(sol.status, QpStatus::kSolved);
  const KktReport kkt = check_kkt(prob, sol.x, sol.y);
  EXPECT_LT(kkt.primal_violation, 1e-4);
  EXPECT_LT(kkt.stationarity, 1e-1);  // scaled by the 500-level gradient
}

TEST(QpSolver, WarmStartConvergesFaster) {
  Rng rng(9);
  la::TripletMatrix t(30, 10);
  for (int k = 0; k < 90; ++k)
    t.add(rng.uniform_index(30), rng.uniform_index(10), rng.uniform(-1, 1));
  QpProblem prob;
  prob.p_diag.assign(10, 1.0);
  prob.q.assign(10, 0.0);
  for (auto& v : prob.q) v = rng.uniform(-1, 1);
  prob.a = la::CsrMatrix(t);
  prob.lower.assign(30, -1.0);
  prob.upper.assign(30, 1.0);

  QpSolver solver;
  const QpSolution cold = solver.solve(prob);
  ASSERT_EQ(cold.status, QpStatus::kSolved);
  const QpSolution warm = solver.solve(prob, cold.x, cold.y);
  EXPECT_EQ(warm.status, QpStatus::kSolved);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LT(la::max_abs_diff(warm.x, cold.x), 1e-3);
}

TEST(QpSolver, ValidatesProblem) {
  QpProblem prob = box_qp({1.0}, {0.0}, {0.0}, {1.0});
  prob.p_diag = {-1.0};
  EXPECT_THROW(QpSolver().solve(prob), doseopt::Error);
  prob.p_diag = {1.0};
  prob.lower = {2.0};  // crossed bounds
  EXPECT_THROW(QpSolver().solve(prob), doseopt::Error);
}

TEST(KktCheck, PassesOnAnalyticOptimum) {
  const QpProblem prob = box_qp({1.0}, {-10.0}, {0.0}, {2.0});
  // x* = 2, stationarity: x + q + y = 0 -> y = 8 at the upper bound.
  const KktReport report = check_kkt(prob, {2.0}, {8.0});
  EXPECT_TRUE(report.passes(1e-9));
}

TEST(KktCheck, FlagsWrongDualSign) {
  const QpProblem prob = box_qp({1.0}, {-10.0}, {0.0}, {2.0});
  // Negative multiplier claims the lower bound is active; it is not.
  const KktReport report = check_kkt(prob, {2.0}, {-8.0});
  EXPECT_GT(report.complementarity, 1.0);
}

// Property sweep: random strictly convex box-constrained QPs with coupling
// rows must satisfy KKT at the solver tolerance.
class RandomQp : public ::testing::TestWithParam<int> {};

TEST_P(RandomQp, KktHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const std::size_t n = 5 + rng.uniform_index(20);
  const std::size_t extra = 5 + rng.uniform_index(15);
  la::TripletMatrix t(n + extra, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, 1.0);
  for (std::size_t r = 0; r < extra; ++r)
    for (int k = 0; k < 3; ++k)
      t.add(n + r, rng.uniform_index(n), rng.uniform(-1, 1));
  QpProblem prob;
  prob.p_diag.assign(n, 0.0);
  for (auto& v : prob.p_diag) v = rng.uniform(0.1, 2.0);
  prob.q.assign(n, 0.0);
  for (auto& v : prob.q) v = rng.uniform(-2, 2);
  prob.a = la::CsrMatrix(t);
  prob.lower.assign(n + extra, 0.0);
  prob.upper.assign(n + extra, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prob.lower[i] = -2.0;
    prob.upper[i] = 2.0;
  }
  for (std::size_t r = n; r < n + extra; ++r) {
    prob.lower[r] = -5.0;
    prob.upper[r] = 5.0;
  }

  QpSettings settings;
  settings.eps_abs = 1e-7;
  settings.eps_rel = 1e-7;
  settings.max_iterations = 20000;
  const QpSolution sol = QpSolver(settings).solve(prob);
  ASSERT_EQ(sol.status, QpStatus::kSolved);
  const KktReport kkt = check_kkt(prob, sol.x, sol.y);
  EXPECT_LT(kkt.primal_violation, 1e-5);
  EXPECT_LT(kkt.stationarity, 1e-4);
  EXPECT_LT(kkt.complementarity, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQp, ::testing::Range(1, 16));

// ---------------------------------------------------------------------------
// Incremental solves: append-only constraint growth with a persistent warm
// state (the cutting-plane contract of src/dmopt).
// ---------------------------------------------------------------------------

// A dose-map-shaped instance: diagonal leakage-like objective over n "grid"
// variables, one box row per variable and smoothness rows chaining
// neighbors (the static prefix), then per-round batches of sparse path-like
// cut rows with an upper bound only.
class GrowingQp {
 public:
  GrowingQp(std::uint64_t seed, std::size_t n) : rng_(seed) {
    la::TripletMatrix t(2 * n - 1, n);
    for (std::size_t i = 0; i < n; ++i) t.add(i, i, 1.0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      t.add(n + i, i, 1.0);
      t.add(n + i, i + 1, -1.0);
    }
    problem.p_diag.assign(n, 0.0);
    for (auto& v : problem.p_diag) v = rng_.uniform(0.5, 3.0);
    problem.q.assign(n, 0.0);
    for (auto& v : problem.q) v = rng_.uniform(-3.0, -1.0);
    problem.a = la::CsrMatrix(t);
    problem.lower.assign(2 * n - 1, 0.0);
    problem.upper.assign(2 * n - 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      problem.lower[i] = -5.0;
      problem.upper[i] = 5.0;
    }
    for (std::size_t i = n; i < 2 * n - 1; ++i) {
      problem.lower[i] = -2.0;
      problem.upper[i] = 2.0;
    }
  }

  /// Append `count` cut rows, some of which bind at the optimum.
  void append_cuts(std::size_t count) {
    const std::size_t n = problem.num_variables();
    std::vector<la::CsrMatrix::Row> rows;
    for (std::size_t r = 0; r < count; ++r) {
      std::map<std::uint32_t, double> entries;
      const std::size_t nnz = 3 + rng_.uniform_index(3);
      while (entries.size() < nnz)
        entries[static_cast<std::uint32_t>(rng_.uniform_index(n))] = 0.0;
      double sum = 0.0;
      for (auto& [c, v] : entries) {
        v = rng_.uniform(0.1, 1.0);
        sum += v;
      }
      rows.emplace_back(entries.begin(), entries.end());
      problem.lower.push_back(-kInfinity);
      problem.upper.push_back(rng_.uniform(0.3, 1.5) * sum);
    }
    problem.a.append_rows(rows);
  }

  /// Retarget the cut-row uppers (a tau probe): scale each by `factor`.
  /// Structure is untouched, so a warm state stays fully compatible.
  void retarget_cuts(std::size_t first_cut_row, double factor) {
    for (std::size_t r = first_cut_row; r < problem.upper.size(); ++r)
      problem.upper[r] *= factor;
  }

  QpProblem problem;

 private:
  Rng rng_;
};

TEST(QpIncremental, WarmMatchesColdAcrossAppends) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    GrowingQp grow(seed * 104729, 40);
    QpSettings cold_settings;
    cold_settings.warm_start = false;
    const QpSolver warm_solver, cold_solver(cold_settings);
    QpWarmState warm_state;
    for (int round = 0; round < 4; ++round) {
      grow.append_cuts(15);
      const QpSolution w =
          warm_solver.solve_incremental(grow.problem, warm_state);
      QpWarmState cold_state;
      const QpSolution c =
          cold_solver.solve_incremental(grow.problem, cold_state);
      ASSERT_EQ(w.status, QpStatus::kSolved) << seed << "/" << round;
      ASSERT_EQ(c.status, QpStatus::kSolved) << seed << "/" << round;
      EXPECT_LT(la::max_abs_diff(w.x, c.x), 1e-5) << seed << "/" << round;
      EXPECT_NEAR(w.objective, c.objective,
                  1e-6 * (1.0 + std::fabs(c.objective)));
      const KktReport kkt = check_kkt(grow.problem, w.x, w.y);
      EXPECT_LT(kkt.primal_violation, 1e-4) << seed << "/" << round;
      EXPECT_LT(kkt.stationarity, 1e-3) << seed << "/" << round;
      // The cache must cover the grown matrix exactly.
      EXPECT_EQ(warm_state.rows_cached, grow.problem.num_constraints());
      EXPECT_EQ(warm_state.nnz_cached, grow.problem.a.nnz());
    }
  }
}

TEST(QpIncremental, BoundRetargetReusesStructureAndConvergesFaster) {
  GrowingQp grow(777, 50);
  const std::size_t first_cut = grow.problem.num_constraints();
  grow.append_cuts(30);

  const QpSolver solver;
  QpWarmState state;
  const QpSolution base = solver.solve_incremental(grow.problem, state);
  ASSERT_EQ(base.status, QpStatus::kSolved);
  const std::size_t nnz_cached = state.nnz_cached;

  // Tighten the cut bounds (a tau probe) and re-solve warm vs cold.
  grow.retarget_cuts(first_cut, 0.9);
  const QpSolution warm = solver.solve_incremental(grow.problem, state);
  EXPECT_EQ(state.nnz_cached, nnz_cached);  // no re-equilibration

  QpSettings cold_settings;
  cold_settings.warm_start = false;
  QpWarmState cold_state;
  const QpSolution cold =
      QpSolver(cold_settings).solve_incremental(grow.problem, cold_state);
  ASSERT_EQ(warm.status, QpStatus::kSolved);
  ASSERT_EQ(cold.status, QpStatus::kSolved);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LT(la::max_abs_diff(warm.x, cold.x), 1e-5);
}

TEST(QpIncremental, PolishedSolutionsAgreeBitwiseWhenActiveSetsMatch) {
  // The polish step solves the active-set KKT system from a fixed starting
  // point, so a warm and a cold solve that detect the same active set must
  // return the *same doubles*, not merely close ones.
  GrowingQp grow(4242, 30);
  grow.append_cuts(20);

  QpWarmState warm_state;
  const QpSolver warm_solver;
  // Prime the state on a looser instance, then grow -- the warm solve below
  // follows a genuinely different ADMM trajectory than the cold one.
  (void)warm_solver.solve_incremental(grow.problem, warm_state);
  grow.append_cuts(20);
  const QpSolution w = warm_solver.solve_incremental(grow.problem, warm_state);

  QpSettings cold_settings;
  cold_settings.warm_start = false;
  QpWarmState cold_state;
  const QpSolution c =
      QpSolver(cold_settings).solve_incremental(grow.problem, cold_state);
  ASSERT_EQ(w.status, QpStatus::kSolved);
  ASSERT_EQ(c.status, QpStatus::kSolved);
  ASSERT_TRUE(w.polished);
  ASSERT_TRUE(c.polished);
  for (std::size_t i = 0; i < w.x.size(); ++i)
    EXPECT_EQ(w.x[i], c.x[i]) << "x[" << i << "]";
  EXPECT_EQ(w.objective, c.objective);
}

TEST(QpPolish, PolishedSolutionsAreFeasibleAndStationary) {
  // Randomized dose-map-shaped QPs solved cold, warm and with the early
  // polish on: whatever the ADMM trajectory, a solution the solver marks
  // polished must pass the independent KKT checker's stationarity and
  // primal-feasibility fields.  The multiplier-sign fields
  // (complementarity, dual_sign_violation) are not asserted: the polish
  // acceptance test does not check signs, and with the early polish on,
  // seed 15 here (7 of seeds 1-60) returns a polished point with a
  // wrong-sign multiplier.  ROADMAP "Polish multiplier signs" has the
  // measurements; the cold and final-polish paths pass all four fields on
  // seeds 1-60.
  QpSettings early;
  early.early_polish = true;
  early.check_interval = 20;
  early.stall_window = 250;
  QpSettings cold;
  cold.warm_start = false;
  int polished = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    for (const QpSettings& settings : {QpSettings{}, early, cold}) {
      GrowingQp grow(seed * 7907, 25 + 5 * (seed % 4));
      const std::size_t first_cut = grow.problem.num_constraints();
      const QpSolver solver(settings);
      QpWarmState state;
      for (int round = 0; round < 4; ++round) {
        grow.append_cuts(10);
        if (round == 2) grow.retarget_cuts(first_cut, 0.8);
        const QpSolution sol = solver.solve_incremental(grow.problem, state);
        if (!sol.polished) continue;
        ++polished;
        const KktReport kkt = check_kkt(grow.problem, sol.x, sol.y);
        EXPECT_LT(kkt.stationarity, 1e-4) << seed << "/" << round;
        EXPECT_LT(kkt.primal_violation, 1e-4) << seed << "/" << round;
      }
    }
  }
  EXPECT_GT(polished, 50);
}

TEST(QpPolish, RepairDropsAWrongRowThenAddsAViolatedOne) {
  // min 1/2|x|^2 - x0 - 5 x1 over 0 <= x0 <= 2, -3 <= x1 <= 3: the optimum
  // (1, 3) holds only x1 at its upper bound.  The guess "x0 at its lower
  // bound, x1 free" is wrong twice: x0's multiplier has the wrong sign and
  // the polished x1 = 5 violates its bound.  Repair must drop row 0 (which
  // leaves the violation unchanged) and then add row 1.
  const QpProblem prob =
      box_qp({1.0, 1.0}, {-1.0, -5.0}, {0.0, -3.0}, {2.0, 3.0});
  const std::vector<unsigned char> at_lower{1, 0}, at_upper{0, 0};

  QpSolution plain;
  EXPECT_FALSE(polish_active_set(QpSettings{}, prob, at_lower, at_upper,
                                 plain, /*repair=*/false));
  EXPECT_FALSE(plain.polished);

  QpSolution sol;
  ASSERT_TRUE(polish_active_set(QpSettings{}, prob, at_lower, at_upper, sol,
                                /*repair=*/true));
  EXPECT_TRUE(sol.polished);
  EXPECT_EQ(sol.status, QpStatus::kSolved);
  // The polish regularizes P by 1e-9, hence the 1e-7 tolerances.
  EXPECT_NEAR(sol.x[0], 1.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 3.0, 1e-7);
  EXPECT_EQ(sol.y[0], 0.0);
  EXPECT_NEAR(sol.y[1], 2.0, 1e-7);
  EXPECT_TRUE(check_kkt(prob, sol.x, sol.y).passes(1e-7));
}

TEST(QpPolish, RepairGivesUpOnAnInfeasibleGuess) {
  // x <= -1 and x >= 1 with both rows guessed active: the equalities are
  // inconsistent, every multiplier has its right sign and no inactive row
  // is left to add, so the repair stops and leaves the solution untouched.
  la::TripletMatrix t(2, 1);
  t.add(0, 0, 1.0);
  t.add(1, 0, 1.0);
  QpProblem prob;
  prob.p_diag = {1.0};
  prob.q = {0.0};
  prob.a = la::CsrMatrix(t);
  prob.lower = {-kInfinity, 1.0};
  prob.upper = {-1.0, kInfinity};
  QpSolution sol;
  EXPECT_FALSE(polish_active_set(QpSettings{}, prob, {0, 1}, {1, 0}, sol,
                                 /*repair=*/true));
  EXPECT_FALSE(sol.polished);
  EXPECT_TRUE(sol.x.empty());
}

TEST(QpPolish, StallExitReturnsKktPoints) {
  // Tight tolerances and a one-check stall window send 51 of these 120
  // solves out through the stall exit, whose polish may repair the
  // clamp-detected guess by active-set steps.  Every solve must leave
  // polished, and every polished point must pass all four fields of the
  // independent KKT checker, multiplier signs included.  (Here the stalled
  // guesses happen to be right already; RepairDropsAWrongRowThenAddsAViolatedOne
  // and SolvePathTest in test_flow cover guesses that need repair.)
  QpSettings stall;
  stall.early_polish = false;
  stall.check_interval = 10;
  stall.stall_window = 10;
  stall.eps_abs = 1e-8;
  stall.eps_rel = 1e-8;
  int solves = 0, polished = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GrowingQp grow(seed * 7907, 25 + 5 * (seed % 4));
    const std::size_t first_cut = grow.problem.num_constraints();
    const QpSolver solver(stall);
    QpWarmState state;
    for (int round = 0; round < 4; ++round) {
      grow.append_cuts(10);
      if (round == 2) grow.retarget_cuts(first_cut, 0.8);
      const QpSolution sol = solver.solve_incremental(grow.problem, state);
      ++solves;
      if (!sol.polished) continue;
      ++polished;
      const KktReport kkt = check_kkt(grow.problem, sol.x, sol.y);
      EXPECT_LT(kkt.stationarity, 1e-4) << seed << "/" << round;
      EXPECT_LT(kkt.primal_violation, 1e-4) << seed << "/" << round;
      EXPECT_LT(kkt.complementarity, 1e-4) << seed << "/" << round;
      EXPECT_LT(kkt.dual_sign_violation, 1e-4) << seed << "/" << round;
    }
  }
  // Every probe of this family is feasible, so none may leave unpolished.
  EXPECT_EQ(polished, solves);
}

}  // namespace
}  // namespace doseopt::qp
