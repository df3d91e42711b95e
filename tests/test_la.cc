// Unit and property tests for src/la: dense kernels, sparse matrices,
// conjugate gradients, and the dense Cholesky / least-squares solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/cg.h"
#include "la/cholesky.h"
#include "la/dense.h"
#include "la/sparse.h"

namespace doseopt::la {
namespace {

TEST(Dense, DotAndNorm) {
  Vec a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7, 2}), 7.0);
}

TEST(Dense, DotSizeMismatchThrows) {
  Vec a = {1}, b = {1, 2};
  EXPECT_THROW(dot(a, b), Error);
}

TEST(Dense, Axpy) {
  Vec x = {1, 2}, y = {10, 20};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(Dense, ClampElementwise) {
  Vec lo = {0, 0}, hi = {1, 1}, x = {-5, 0.5};
  clamp(lo, hi, x);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

TEST(Sparse, TripletBoundsChecked) {
  TripletMatrix t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), Error);
  EXPECT_THROW(t.add(0, 2, 1.0), Error);
}

TEST(Sparse, DuplicatesSummed) {
  TripletMatrix t(2, 2);
  t.add(0, 1, 1.0);
  t.add(0, 1, 2.5);
  CsrMatrix m(t);
  EXPECT_EQ(m.nnz(), 1u);
  const Vec row = m.row_dense(0);
  EXPECT_DOUBLE_EQ(row[1], 3.5);
}

TEST(Sparse, MultiplyMatchesDense) {
  // A = [[1, 2], [0, 3], [4, 0]]
  TripletMatrix t(3, 2);
  t.add(0, 0, 1);
  t.add(0, 1, 2);
  t.add(1, 1, 3);
  t.add(2, 0, 4);
  CsrMatrix m(t);
  Vec y;
  m.multiply({1, 1}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  Vec yt;
  m.multiply_transpose({1, 1, 1}, yt);
  EXPECT_DOUBLE_EQ(yt[0], 5.0);
  EXPECT_DOUBLE_EQ(yt[1], 5.0);
}

TEST(Sparse, GramDiagonal) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 3);
  t.add(1, 0, 4);
  t.add(1, 1, 2);
  CsrMatrix m(t);
  const Vec d = m.gram().diagonal();
  EXPECT_DOUBLE_EQ(d[0], 25.0);
  EXPECT_DOUBLE_EQ(d[1], 4.0);
}

TEST(Sparse, GramProductConsistent) {
  Rng rng(5);
  TripletMatrix t(20, 10);
  for (int k = 0; k < 60; ++k)
    t.add(rng.uniform_index(20), rng.uniform_index(10),
          rng.uniform(-1.0, 1.0));
  CsrMatrix m(t);
  Vec x(10);
  for (auto& v : x) v = rng.uniform(-1, 1);
  // A'(A x) two ways.
  Vec ax, atax;
  m.multiply(x, ax);
  m.multiply_transpose(ax, atax);
  Vec gx;
  m.gram().multiply(x, gx);
  EXPECT_LT(max_abs_diff(gx, atax), 1e-12);
}

/// Random sparse matrix with planted empty rows, empty columns and
/// single-entry rows.
TripletMatrix irregular_triplets(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  Rng rng(seed);
  TripletMatrix t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t kind = r % 5;
    if (kind == 0) continue;  // empty row
    const std::size_t count = kind == 1 ? 1 : 1 + rng.uniform_index(6);
    for (std::size_t k = 0; k < count; ++k) {
      // Every third column stays empty.
      std::size_t c = rng.uniform_index(cols);
      if (c % 3 == 2) c -= 1;
      t.add(r, c, rng.uniform(-3.0, 3.0));
    }
  }
  return t;
}

TEST(Sparse, ProductsBitEqualNaiveRowLoops) {
  // The serial products interleave four rows; each output must still be
  // the one-row-at-a-time sum in ascending k.  Row counts 0-9 cover every
  // remainder mod 4 and matrices shorter than one group; 1001 rows put
  // empty, short and long rows side by side inside the groups.
  for (const std::size_t rows : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001}) {
    for (const std::size_t cols : {1, 7, 64}) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " cols=" + std::to_string(cols));
      Rng rng(rows * 31 + cols);
      TripletMatrix t(rows, cols);
      for (std::size_t r = 0; r < rows; ++r) {
        // 0-12 entries before duplicates merge; every seventh row empty.
        const std::size_t count = r % 7 == 3 ? 0 : rng.uniform_index(13);
        for (std::size_t k = 0; k < count; ++k)
          t.add(r, rng.uniform_index(cols), rng.uniform(-3.0, 3.0));
      }
      const CsrMatrix a(t);
      Vec x(cols), u(rows);
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
      for (double& v : u) v = rng.uniform(-2.0, 2.0);

      Vec ax_ref(rows, 0.0), atu_ref(cols, 0.0);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
          ax_ref[r] += a.values()[k] * x[a.col_idx()[k]];
      // A^T u gathers each column's entries in ascending row order.
      for (std::size_t c = 0; c < cols; ++c)
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
            if (a.col_idx()[k] == c) atu_ref[c] += a.values()[k] * u[r];

      // All of these sit below the fan-out threshold: the serial path.
      Vec ax, atu;
      a.multiply(x, ax);
      a.multiply_transpose(u, atu);
      ASSERT_EQ(ax.size(), rows);
      ASSERT_EQ(atu.size(), cols);
      for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(ax[r], ax_ref[r]) << "row " << r;
      for (std::size_t c = 0; c < cols; ++c)
        EXPECT_EQ(atu[c], atu_ref[c]) << "col " << c;
    }
  }
}

TEST(Sparse, GramMatchesDenseProduct) {
  for (const auto& [rows, cols, seed] :
       {std::tuple<std::size_t, std::size_t, std::uint64_t>{1, 1, 1},
        {7, 4, 2}, {40, 25, 3}, {300, 90, 4}, {60, 200, 5}}) {
    const CsrMatrix a(irregular_triplets(rows, cols, seed));
    // Dense reference G = A'A and its structure: (i, j) share a row.
    std::vector<Vec> dense(cols, Vec(cols, 0.0));
    std::vector<std::vector<char>> pattern(cols, std::vector<char>(cols, 0));
    for (std::size_t r = 0; r < rows; ++r) {
      const Vec row = a.row_dense(r);
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
        for (std::size_t l = a.row_ptr()[r]; l < a.row_ptr()[r + 1]; ++l)
          pattern[a.col_idx()[k]][a.col_idx()[l]] = 1;
      for (std::size_t i = 0; i < cols; ++i)
        for (std::size_t j = 0; j < cols; ++j) dense[i][j] += row[i] * row[j];
    }

    const CsrMatrix g = a.gram();
    ASSERT_EQ(g.rows(), cols);
    ASSERT_EQ(g.cols(), cols);
    for (std::size_t i = 0; i < cols; ++i) {
      std::vector<std::uint32_t> want;
      for (std::size_t j = 0; j < cols; ++j)
        if (pattern[i][j]) want.push_back(static_cast<std::uint32_t>(j));
      const std::vector<std::uint32_t> got(
          g.col_idx().begin() + g.row_ptr()[i],
          g.col_idx().begin() + g.row_ptr()[i + 1]);
      ASSERT_EQ(got, want) << "row " << i;
      for (std::size_t k = g.row_ptr()[i]; k < g.row_ptr()[i + 1]; ++k) {
        const double ref = dense[i][g.col_idx()[k]];
        EXPECT_NEAR(g.values()[k], ref, 1e-12 * std::abs(ref))
            << i << "," << g.col_idx()[k];
      }
    }
  }
}

TEST(Sparse, GramDiagonalBitEqualsColumnSumsOfSquares) {
  const CsrMatrix a(irregular_triplets(500, 120, 9));
  // Column sums of squares in row order (what the Jacobi preconditioner
  // summed before the Gram matrix was cached).
  Vec sums(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
      sums[a.col_idx()[k]] += a.values()[k] * a.values()[k];
  const Vec d = a.gram().diagonal();
  ASSERT_EQ(d.size(), sums.size());
  for (std::size_t c = 0; c < d.size(); ++c) EXPECT_EQ(d[c], sums[c]) << c;
}

TEST(Cholesky, SolvesSpdSystem) {
  // A = [[4, 1], [1, 3]], b = [1, 2] -> x = [1/11, 7/11]
  DenseMatrix a(2, 2);
  a.at(0, 0) = 4;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const Vec x = cholesky_solve(a, {1, 2});
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = -1;
  EXPECT_THROW(cholesky_solve(a, {1, 1}), Error);
}

TEST(Cholesky, LeastSquaresExactFit) {
  // y = 2x + 1 sampled exactly.
  DenseMatrix a(4, 2);
  Vec b(4);
  for (int i = 0; i < 4; ++i) {
    a.at(i, 0) = 1.0;
    a.at(i, 1) = i;
    b[static_cast<std::size_t>(i)] = 1.0 + 2.0 * i;
  }
  const Vec c = least_squares(a, b);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
}

class CgRandomSpd : public ::testing::TestWithParam<int> {};

TEST_P(CgRandomSpd, SolvesToTolerance) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 977 + 3);
  // SPD via A = B'B + I on a random sparse B.
  TripletMatrix t(static_cast<std::size_t>(2 * n), static_cast<std::size_t>(n));
  for (int k = 0; k < 6 * n; ++k)
    t.add(rng.uniform_index(static_cast<std::size_t>(2 * n)),
          rng.uniform_index(static_cast<std::size_t>(n)),
          rng.uniform(-1.0, 1.0));
  const CsrMatrix gram = CsrMatrix(t).gram();
  auto op = [&](const Vec& v, Vec& out) {
    gram.multiply(v, out);
    for (std::size_t i = 0; i < v.size(); ++i) out[i] += v[i];  // + I
  };
  Vec diag = gram.diagonal();
  for (auto& d : diag) d += 1.0;

  Vec rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.uniform(-1, 1);
  Vec x(static_cast<std::size_t>(n), 0.0);
  CgOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 10 * n;
  const CgResult r = conjugate_gradient(op, rhs, diag, x, opts);
  EXPECT_TRUE(r.converged);

  Vec ax(static_cast<std::size_t>(n));
  op(x, ax);
  axpy(-1.0, rhs, ax);
  EXPECT_LT(norm2(ax), 1e-8 * std::max(1.0, norm2(rhs)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgRandomSpd,
                         ::testing::Values(2, 5, 10, 25, 50, 100));

// ---------------------------------------------------------------------------
// Fused CG kernels: single-pass sweeps must match the naive multi-pass
// reference (values within fp tolerance; updated vectors bit-exact where the
// arithmetic per element is identical).
// ---------------------------------------------------------------------------

class FusedKernels : public ::testing::TestWithParam<int> {};

TEST_P(FusedKernels, MatchNaiveReferences) {
  // Sizes straddle the parallel-dispatch threshold, so both the serial
  // fallback and the chunked fan-out path are exercised.
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  Vec a(n), b(n), diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-2, 2);
    b[i] = rng.uniform(-2, 2);
    // A few non-positive diagonal entries exercise the pass-through branch.
    diag[i] = rng.uniform() < 0.05 ? 0.0 : rng.uniform(0.5, 2.0);
  }
  const double tol = 1e-12 * static_cast<double>(n);

  EXPECT_NEAR(fused_dot(a, b), dot(a, b), tol);

  Vec r(n);
  const double rr = fused_residual(b, a, r);
  double rr_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r[i], b[i] - a[i]);
    rr_ref += r[i] * r[i];
  }
  EXPECT_NEAR(rr, rr_ref, tol);

  Vec z(n);
  const double rz = fused_precond_dot(r, diag, z);
  double rz_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(z[i], diag[i] > 0.0 ? r[i] / diag[i] : r[i]);
    rz_ref += r[i] * z[i];
  }
  EXPECT_NEAR(rz, rz_ref, tol);

  const double alpha = 0.37, beta = -1.25;
  Vec x = a, x_ref = a, r2 = r, r2_ref = r;
  const double rr2 = fused_cg_update(alpha, b, z, x, r2);
  axpy(alpha, b, x_ref);
  axpy(-alpha, z, r2_ref);
  double rr2_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x[i], x_ref[i]);
    EXPECT_EQ(r2[i], r2_ref[i]);
    rr2_ref += r2_ref[i] * r2_ref[i];
  }
  EXPECT_NEAR(rr2, rr2_ref, tol);

  Vec p = b;
  fused_xpby(z, beta, p);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(p[i], z[i] + beta * b[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedKernels,
                         ::testing::Values(1, 7, 100, 5000, 50000));

TEST(Cg, ImmediateConvergenceOnExactGuess) {
  auto op = [](const Vec& v, Vec& out) { out = v; };
  Vec b = {1, 2, 3};
  Vec x = b;  // exact
  const CgResult r = conjugate_gradient(op, b, {1, 1, 1}, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Cg, WorkspaceReuseIsPureOptimization) {
  Rng rng(11);
  const std::size_t n = 300;
  TripletMatrix t(2 * n, n);
  for (std::size_t k = 0; k < 6 * n; ++k)
    t.add(rng.uniform_index(2 * n), rng.uniform_index(n),
          rng.uniform(-1.0, 1.0));
  const CsrMatrix gram = CsrMatrix(t).gram();
  auto op = [&](const Vec& v, Vec& out) {
    gram.multiply(v, out);
    for (std::size_t i = 0; i < v.size(); ++i) out[i] += v[i];
  };
  Vec diag = gram.diagonal();
  for (auto& d : diag) d += 1.0;
  Vec rhs(n);
  for (auto& v : rhs) v = rng.uniform(-1, 1);

  CgOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 2000;
  Vec x_plain(n, 0.0);
  const CgResult r_plain = conjugate_gradient(op, rhs, diag, x_plain, opts);
  CgWorkspace ws;
  Vec x_ws(n, 0.0);
  const CgResult r_ws = conjugate_gradient(op, rhs, diag, x_ws, opts, &ws);
  // A second solve through the same (now dirty) workspace.
  Vec x_ws2(n, 0.0);
  const CgResult r_ws2 = conjugate_gradient(op, rhs, diag, x_ws2, opts, &ws);

  EXPECT_EQ(r_plain.iterations, r_ws.iterations);
  EXPECT_EQ(r_ws.iterations, r_ws2.iterations);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x_plain[i], x_ws[i]);
    EXPECT_EQ(x_ws[i], x_ws2[i]);
  }
}

}  // namespace
}  // namespace doseopt::la
