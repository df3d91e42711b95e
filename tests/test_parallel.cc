// Tests for the thread pool and the determinism contract of everything that
// fans out over it: library characterization, Monte-Carlo yield analysis,
// and the CsrMatrix gather-based transpose products.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flow/context.h"
#include "la/cg.h"
#include "la/dense.h"
#include "la/sparse.h"
#include "liberty/characterizer.h"
#include "variation/yield.h"

namespace doseopt {
namespace {

TEST(ThreadPool, SerialPoolHasOneLane) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.lane_count(), 1);
}

TEST(ThreadPool, RequestedLaneCountHonored) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.lane_count(), 3);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (const int lanes : {1, 2, 8}) {
    ThreadPool pool(lanes);
    const std::size_t n = 10007;
    std::vector<int> hits(n, 0);
    pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPool, SlotIsolatedResultsMatchSerial) {
  const std::size_t n = 5000;
  std::vector<double> serial(n), parallel(n);
  const auto f = [](std::size_t i) {
    return std::sin(static_cast<double>(i) * 0.37) * 3.0 + 1.0;
  };
  for (std::size_t i = 0; i < n; ++i) serial[i] = f(i);
  ThreadPool pool(4);
  pool.parallel_for(n, [&](std::size_t i) { parallel[i] = f(i); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], parallel[i]);
}

TEST(ThreadPool, ZeroAndOneIterations) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, LaneIndicesInBounds) {
  ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<int> lane_of(n, -1);
  pool.parallel_for_lane(n, [&](int lane, std::size_t i) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, pool.lane_count());
    lane_of[i] = lane;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_GE(lane_of[i], 0) << i;
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 613) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  const std::size_t n = 64;
  std::vector<double> out(n, 0.0);
  pool.parallel_for(n, [&](std::size_t i) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // Nested loop must run inline (no deadlock, no re-fan-out).
    double s = 0.0;
    pool.parallel_for(10, [&](std::size_t j) {
      s += static_cast<double>(i * 10 + j);
    });
    out[i] = s;
  });
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 10; ++j) s += static_cast<double>(i * 10 + j);
    EXPECT_EQ(out[i], s);
  }
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, ConcurrentSubmittersMatchSerialPool) {
  // Several external threads submit index-ordered loops to one shared
  // 4-lane pool at once.  Whichever submitter owns the workers fans out;
  // the others run inline.  Either way every loop must cover each index
  // exactly once and produce the 1-lane pool's values.
  constexpr int kSubmitters = 6;
  constexpr int kRounds = 200;
  const std::size_t n = 3001;
  const auto f = [](int t, std::size_t i) {
    return std::sin(static_cast<double>(i) * 0.11 + t) * 7.0;
  };
  ThreadPool serial(1);
  std::vector<std::vector<double>> want(kSubmitters,
                                        std::vector<double>(n));
  for (int t = 0; t < kSubmitters; ++t)
    serial.parallel_for(n, [&](std::size_t i) { want[t][i] = f(t, i); });

  ThreadPool pool(4);
  std::vector<int> mismatches(kSubmitters, 0);
  std::atomic<bool> go{false};  // release all submitters at once
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> got(n);
      std::vector<int> hits(n);
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        std::fill(got.begin(), got.end(), 0.0);
        std::fill(hits.begin(), hits.end(), 0);
        pool.parallel_for_lane(n, [&](int lane, std::size_t i) {
          if (lane < 0 || lane >= pool.lane_count()) return;
          got[i] = f(t, i);
          ++hits[i];
        });
        for (std::size_t i = 0; i < n; ++i)
          if (got[i] != want[t][i] || hits[i] != 1) ++mismatches[t];
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  for (int t = 0; t < kSubmitters; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

// ---------------------------------------------------------------------------
// Determinism across thread counts.
// ---------------------------------------------------------------------------

void expect_library_identical(const liberty::Library& a,
                              const liberty::Library& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t i = 0; i < a.cell_count(); ++i) {
    const liberty::CharacterizedCell& ca = a.cell(i);
    const liberty::CharacterizedCell& cb = b.cell(i);
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.master_index, cb.master_index);
    EXPECT_EQ(ca.input_cap_ff, cb.input_cap_ff);
    EXPECT_EQ(ca.leakage_nw, cb.leakage_nw);
    EXPECT_TRUE(ca.arc.delay_rise == cb.arc.delay_rise);
    EXPECT_TRUE(ca.arc.delay_fall == cb.arc.delay_fall);
    EXPECT_TRUE(ca.arc.slew_rise == cb.arc.slew_rise);
    EXPECT_TRUE(ca.arc.slew_fall == cb.arc.slew_fall);
  }
}

TEST(Determinism, CharacterizationBitIdenticalAcrossThreadCounts) {
  const tech::TechNode node = tech::make_tech_65nm();
  const tech::DeviceModel device(node);
  const auto masters = liberty::make_standard_masters(node);

  ThreadPool p1(1), p2(2), p8(8);
  liberty::CharacterizeOptions o1, o2, o8;
  o1.pool = &p1;
  o2.pool = &p2;
  o8.pool = &p8;
  const liberty::Library l1 =
      liberty::characterize(device, masters, 1.5, -0.5, o1);
  const liberty::Library l2 =
      liberty::characterize(device, masters, 1.5, -0.5, o2);
  const liberty::Library l8 =
      liberty::characterize(device, masters, 1.5, -0.5, o8);
  expect_library_identical(l1, l2);
  expect_library_identical(l1, l8);
}

TEST(Determinism, YieldAnalysisBitIdenticalAcrossThreadCounts) {
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.03));
  variation::VariationModel model;
  model.monte_carlo_samples = 12;
  variation::YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(),
                                    &ctx.repo(), &ctx.timer(), model);
  sta::VariantAssignment base(ctx.netlist().cell_count());

  ThreadPool p1(1), p2(2), p8(8);
  const variation::YieldResult r1 = analyzer.analyze(base, &p1);
  const variation::YieldResult r2 = analyzer.analyze(base, &p2);
  const variation::YieldResult r8 = analyzer.analyze(base, &p8);
  ASSERT_EQ(r1.dies.size(), r2.dies.size());
  ASSERT_EQ(r1.dies.size(), r8.dies.size());
  for (std::size_t i = 0; i < r1.dies.size(); ++i) {
    EXPECT_EQ(r1.dies[i].mct_ns, r2.dies[i].mct_ns) << i;
    EXPECT_EQ(r1.dies[i].mct_ns, r8.dies[i].mct_ns) << i;
    EXPECT_EQ(r1.dies[i].leakage_uw, r2.dies[i].leakage_uw) << i;
    EXPECT_EQ(r1.dies[i].leakage_uw, r8.dies[i].leakage_uw) << i;
  }
  EXPECT_EQ(r1.mean_mct_ns, r2.mean_mct_ns);
  EXPECT_EQ(r1.mean_mct_ns, r8.mean_mct_ns);
  EXPECT_EQ(r1.p95_mct_ns, r8.p95_mct_ns);
  EXPECT_EQ(r1.mean_leakage_uw, r8.mean_leakage_uw);
}

TEST(Determinism, FusedCgKernelsBitIdenticalAcrossThreadCounts) {
  // Several chunks of 2048.  At 50000 elements only fused_cg_update (6
  // flops per element) crosses la::kParallelMinFlops and fans out, the
  // others run the same chunks serially; at kParallelMinFlops elements
  // every kernel fans out.
  // The fixed-chunk partials must make every kernel return the same
  // doubles at 1, 2, and 8 lanes.
  for (const std::size_t kN : {std::size_t{50000}, la::kParallelMinFlops}) {
    Rng rng(20260807);
    la::Vec a(kN), b(kN), diag(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = rng.uniform(-2, 2);
      b[i] = rng.uniform(-2, 2);
      diag[i] = rng.uniform(0.5, 2.0);
    }

    ThreadPool p1(1), p2(2), p8(8);
    ThreadPool* pools[] = {&p1, &p2, &p8};

    double dots[3], rrs[3], rzs[3], upds[3];
    la::Vec rs[3], zs[3], xs[3], ps[3];
    for (int k = 0; k < 3; ++k) {
      ThreadPool* pool = pools[k];
      rs[k].assign(kN, 0.0);
      zs[k].assign(kN, 0.0);
      xs[k] = a;
      ps[k] = b;
      dots[k] = la::fused_dot(a, b, pool);
      rrs[k] = la::fused_residual(b, a, rs[k], pool);
      rzs[k] = la::fused_precond_dot(rs[k], diag, zs[k], pool);
      upds[k] = la::fused_cg_update(0.37, b, zs[k], xs[k], rs[k], pool);
      la::fused_xpby(zs[k], -1.25, ps[k], pool);
    }
    for (int k = 1; k < 3; ++k) {
      EXPECT_EQ(dots[0], dots[k]);
      EXPECT_EQ(rrs[0], rrs[k]);
      EXPECT_EQ(rzs[0], rzs[k]);
      EXPECT_EQ(upds[0], upds[k]);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(rs[0][i], rs[k][i]) << i;
        ASSERT_EQ(zs[0][i], zs[k][i]) << i;
        ASSERT_EQ(xs[0][i], xs[k][i]) << i;
        ASSERT_EQ(ps[0][i], ps[k][i]) << i;
      }
    }
  }
}

TEST(Determinism, CgSolveBitIdenticalAcrossThreadCounts) {
  // Full preconditioned CG on a large SPD Gram system, pool passed through
  // CgOptions and to the Gram SpMV so the whole inner loop runs at each
  // lane count.
  constexpr std::size_t kN = 20000;
  Rng rng(97);
  la::TripletMatrix t(2 * kN, kN);
  for (std::size_t k = 0; k < 8 * kN; ++k)
    t.add(rng.uniform_index(2 * kN), rng.uniform_index(kN),
          rng.uniform(-1.0, 1.0));
  const la::CsrMatrix gram = la::CsrMatrix(t).gram();
  ASSERT_GE(2 * gram.nnz(), la::kParallelMinFlops);  // the SpMV fans out
  la::Vec diag = gram.diagonal();
  for (auto& d : diag) d += 1.0;
  la::Vec rhs(kN);
  for (auto& v : rhs) v = rng.uniform(-1, 1);

  ThreadPool p1(1), p2(2), p8(8);
  ThreadPool* pools[] = {&p1, &p2, &p8};
  la::CgResult results[3];
  la::Vec xs[3];
  for (int k = 0; k < 3; ++k) {
    auto op = [&](const la::Vec& v, la::Vec& out) {
      gram.multiply(v, out, pools[k]);
      for (std::size_t i = 0; i < kN; ++i) out[i] += v[i];
    };
    xs[k].assign(kN, 0.0);
    la::CgOptions opts;
    opts.tolerance = 1e-10;
    opts.max_iterations = 2000;
    opts.pool = pools[k];
    results[k] = la::conjugate_gradient(op, rhs, diag, xs[k], opts);
    EXPECT_TRUE(results[k].converged);
  }
  for (int k = 1; k < 3; ++k) {
    EXPECT_EQ(results[0].iterations, results[k].iterations);
    EXPECT_EQ(results[0].residual_norm, results[k].residual_norm);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(xs[0][i], xs[k][i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent lazy characterization in the repository.
// ---------------------------------------------------------------------------

TEST(Repository, ConcurrentVariantCharacterizesEachVariantExactlyOnce) {
  const tech::TechNode node = tech::make_tech_65nm();
  liberty::LibraryRepository repo(node);

  // Threads hammer a small key set in per-thread shuffled order, so every
  // variant sees racing first requests.
  const std::vector<std::pair<int, int>> keys = {
      {8, 10}, {9, 10}, {10, 10}, {11, 10}, {12, 10}, {10, 8}};
  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::vector<std::map<std::pair<int, int>, const liberty::Library*>> seen(
      kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<int, int>> order = keys;
        for (std::size_t i = order.size(); i > 1; --i)
          std::swap(order[i - 1], order[rng.uniform_index(i)]);
        for (const auto& key : order) {
          const liberty::Library& lib = repo.variant(key.first, key.second);
          const auto [it, inserted] = seen[t].emplace(key, &lib);
          // Pointer stability: repeated calls return the same object.
          EXPECT_EQ(it->second, &lib);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one characterization per distinct variant, no duplicates.
  EXPECT_EQ(repo.characterize_calls(), keys.size());
  EXPECT_EQ(repo.characterized_count(), keys.size());
  // All threads observed the same library object per key.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(Repository, WarmMatchesLazyCharacterizationBitForBit) {
  const tech::TechNode node = tech::make_tech_65nm();
  liberty::LibraryRepository lazy_repo(node);
  liberty::LibraryRepository warm_repo(node);

  const std::vector<std::pair<int, int>> keys = {{6, 10}, {10, 10}, {14, 10}};
  ThreadPool pool(4);
  warm_repo.warm(keys, &pool);
  EXPECT_EQ(warm_repo.characterized_count(), keys.size());
  for (const auto& [il, iw] : keys) {
    ASSERT_NE(warm_repo.find_variant(il, iw), nullptr);
    expect_library_identical(*warm_repo.find_variant(il, iw),
                             lazy_repo.variant(il, iw));
  }
}

// ---------------------------------------------------------------------------
// CsrMatrix transpose-gather products.
// ---------------------------------------------------------------------------

la::TripletMatrix random_triplets(std::size_t rows, std::size_t cols,
                                  std::size_t per_row, std::uint64_t seed) {
  Rng rng(seed);
  la::TripletMatrix t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < per_row; ++k)
      t.add(r, rng.uniform_index(cols), rng.uniform(-2.0, 2.0));
  return t;
}

/// Reference A^T x accumulated per column in row-ascending order -- the
/// exact order the gather index visits entries, so results must be
/// bit-identical.
la::Vec reference_multiply_transpose(const la::CsrMatrix& a, const la::Vec& x) {
  la::Vec y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
      y[a.col_idx()[k]] += a.values()[k] * x[r];
  return y;
}

TEST(CsrMatrix, TransposeGatherMatchesSerialReference) {
  // Small and mid-sized; the products fan out only above
  // la::kParallelMinFlops (see GramProductBitIdenticalAcrossThreadCounts).
  for (const auto& [rows, cols, per_row] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{40, 23, 4},
        std::tuple<std::size_t, std::size_t, std::size_t>{1500, 700, 16}}) {
    const la::CsrMatrix a(random_triplets(rows, cols, per_row, 7 * rows));
    Rng rng(5);
    la::Vec x(rows);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);

    la::Vec y;
    a.multiply_transpose(x, y);
    const la::Vec ref = reference_multiply_transpose(a, x);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(y[c], ref[c]) << c;

    // diag(A'A): column sums of squares in the same order.
    la::Vec gd_ref(cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
        gd_ref[a.col_idx()[k]] += a.values()[k] * a.values()[k];
    const la::Vec gd = a.gram().diagonal();
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_NEAR(gd[c], gd_ref[c], 1e-12 * (1.0 + std::abs(gd_ref[c]))) << c;
  }
}

TEST(CsrMatrix, GramProductMatchesComposition) {
  const la::CsrMatrix a(random_triplets(600, 512, 40, 31));
  Rng rng(17);
  la::Vec x(a.cols());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  la::Vec gx;
  a.gram().multiply(x, gx);

  // Reference: A'(A x) as a row-order scatter.
  la::Vec ax;
  a.multiply(x, ax);
  la::Vec ref(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
      ref[a.col_idx()[k]] += a.values()[k] * ax[r];
  for (std::size_t c = 0; c < a.cols(); ++c)
    EXPECT_NEAR(gx[c], ref[c], 1e-12 * (1.0 + std::abs(ref[c]))) << c;
}

TEST(CsrMatrix, GramProductBitIdenticalAcrossThreadCounts) {
  // Large enough that gram(), A x and A'y all fan out; every product must
  // return the same doubles at 1, 2 and 8 lanes.
  const la::CsrMatrix a(random_triplets(20000, 4000, 8, 43));
  const la::CsrMatrix g = a.gram();
  ASSERT_GE(2 * a.nnz(), la::kParallelMinFlops);
  ASSERT_GE(2 * g.nnz(), la::kParallelMinFlops);
  Rng rng(23);
  la::Vec x(a.cols()), y(a.rows());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.uniform(-1.0, 1.0);

  ThreadPool p1(1), p2(2), p8(8);
  la::Vec gx[3], ax[3], aty[3];
  ThreadPool* pools[] = {&p1, &p2, &p8};
  for (int k = 0; k < 3; ++k) {
    g.multiply(x, gx[k], pools[k]);
    a.multiply(x, ax[k], pools[k]);
    a.multiply_transpose(y, aty[k], pools[k]);
  }
  for (int k = 1; k < 3; ++k) {
    EXPECT_EQ(gx[0], gx[k]);
    EXPECT_EQ(ax[0], ax[k]);
    EXPECT_EQ(aty[0], aty[k]);
  }
}

TEST(CsrMatrix, ScaledMatchesTripletRebuild) {
  const std::size_t rows = 50, cols = 30;
  const la::TripletMatrix t = random_triplets(rows, cols, 5, 101);
  const la::CsrMatrix a(t);
  Rng rng(3);
  la::Vec d(rows), e(cols);
  for (auto& v : d) v = rng.uniform(0.1, 2.0);
  for (auto& v : e) v = rng.uniform(0.1, 2.0);

  const la::CsrMatrix s = a.scaled(d, e);

  la::TripletMatrix ts(rows, cols);
  for (std::size_t i = 0; i < t.nnz(); ++i)
    ts.add(t.row_indices()[i], t.col_indices()[i],
           t.values()[i] * d[t.row_indices()[i]] * e[t.col_indices()[i]]);
  const la::CsrMatrix s_ref(ts);

  ASSERT_EQ(s.nnz(), s_ref.nnz());
  ASSERT_EQ(s.row_ptr(), s_ref.row_ptr());
  for (std::size_t k = 0; k < s.nnz(); ++k) {
    EXPECT_EQ(s.col_idx()[k], s_ref.col_idx()[k]);
    EXPECT_NEAR(s.values()[k], s_ref.values()[k],
                1e-15 * (1.0 + std::abs(s_ref.values()[k])));
  }

  // The scaled matrix's own transpose index works too.
  la::Vec x(rows);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  la::Vec y;
  s.multiply_transpose(x, y);
  const la::Vec ref = reference_multiply_transpose(s, x);
  for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(y[c], ref[c]) << c;
}

}  // namespace
}  // namespace doseopt
