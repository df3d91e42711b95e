// Tests for the batched structure-of-arrays timing engine.
//
// The contract under test is *bitwise* equivalence: every lane of an
// analyze_batch() pass must equal an independent scalar Timer::analyze() of
// that lane's assignment down to the last bit, for every per-cell quantity
// and every design-level number.  EXPECT_EQ on doubles checks exact
// equality (all values compared here are finite; the arc-kernel tests check
// their NaN query with isnan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flow/context.h"
#include "la/dense.h"
#include "liberty/library.h"
#include "liberty/nldm.h"
#include "liberty/repository.h"
#include "sta/timer.h"
#include "variation/yield.h"

namespace doseopt::sta {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new flow::DesignContext(gen::aes65_spec().scaled(0.04));
  }
  static void TearDownTestSuite() { delete ctx_; }
  static flow::DesignContext* ctx_;
};
flow::DesignContext* BatchTest::ctx_ = nullptr;

void expect_lane_equals_scalar(const BatchTimingResult& br, int lane,
                               const TimingResult& ref) {
  EXPECT_EQ(br.mct_ns[lane], ref.mct_ns);
  EXPECT_EQ(br.clock_ns[lane], ref.clock_ns);
  EXPECT_EQ(br.worst_slack_ns[lane], ref.worst_slack_ns);
  EXPECT_EQ(br.worst_hold_slack_ns[lane], ref.worst_hold_slack_ns);
  EXPECT_TRUE(br.lane_ok[lane]);
  ASSERT_EQ(br.cell_count, ref.cells.size());
  const std::size_t base = static_cast<std::size_t>(lane) * br.cell_count;
  for (std::size_t c = 0; c < br.cell_count; ++c) {
    const CellTiming& b = br.cells[base + c];
    const CellTiming& s = ref.cells[c];
    ASSERT_EQ(b.arrival_ns, s.arrival_ns) << "cell " << c;
    ASSERT_EQ(b.min_arrival_ns, s.min_arrival_ns) << "cell " << c;
    ASSERT_EQ(b.required_ns, s.required_ns) << "cell " << c;
    ASSERT_EQ(b.slack_ns, s.slack_ns) << "cell " << c;
    ASSERT_EQ(b.gate_delay_ns, s.gate_delay_ns) << "cell " << c;
    ASSERT_EQ(b.input_slew_ns, s.input_slew_ns) << "cell " << c;
    ASSERT_EQ(b.output_slew_ns, s.output_slew_ns) << "cell " << c;
    ASSERT_EQ(b.load_ff, s.load_ff) << "cell " << c;
  }
}

TEST_F(BatchTest, Lane0BitIdenticalToScalarAnalyze) {
  VariantAssignment base(ctx_->netlist().cell_count());
  const TimingResult ref = ctx_->timer().analyze(base);
  BatchWorkspace ws;
  const BatchedTimer batched(&ctx_->timer());
  const BatchTimingResult br =
      batched.analyze_batch(base, {nullptr}, ws, /*want_cells=*/true);
  ASSERT_EQ(br.lanes, 1);
  expect_lane_equals_scalar(br, 0, ref);
  const TimingResult lr = br.lane_result(0);
  EXPECT_EQ(lr.mct_ns, ref.mct_ns);
  EXPECT_EQ(lr.cells.size(), ref.cells.size());
}

TEST_F(BatchTest, RandomizedLanesMatchIndependentScalarPasses) {
  const std::size_t cells = ctx_->netlist().cell_count();
  Rng rng(2024);
  // A non-nominal base assignment exercises the variant resolution per lane.
  VariantAssignment base(cells);
  for (std::size_t c = 0; c < cells; ++c)
    base.set(static_cast<netlist::CellId>(c),
             static_cast<int>(rng.next_u64() % liberty::kVariantsPerLayer),
             liberty::kVariantsPerLayer / 2);

  std::vector<std::vector<double>> dl(kBatchLanes);
  std::vector<const double*> ptrs(kBatchLanes);
  for (int l = 0; l < kBatchLanes; ++l) {
    dl[l].resize(cells);
    for (double& v : dl[l]) v = rng.normal(0.0, 1.5);
    ptrs[l] = dl[l].data();
  }

  BatchWorkspace ws;
  const BatchedTimer batched(&ctx_->timer());
  const BatchTimingResult br =
      batched.analyze_batch(base, ptrs, ws, /*want_cells=*/true);
  ASSERT_EQ(br.lanes, kBatchLanes);
  ASSERT_TRUE(br.all_ok());

  for (int l = 0; l < kBatchLanes; ++l) {
    VariantAssignment va = base;
    for (std::size_t c = 0; c < cells; ++c) {
      const auto id = static_cast<netlist::CellId>(c);
      const auto [il, iw] = base.get(id);
      va.set(id, liberty::shifted_poly_index(il, dl[l][c]), iw);
    }
    const TimingResult ref = ctx_->timer().analyze(va);
    expect_lane_equals_scalar(br, l, ref);
  }
}

TEST_F(BatchTest, RaggedBatchMatchesScalar) {
  const std::size_t cells = ctx_->netlist().cell_count();
  Rng rng(77);
  VariantAssignment base(cells);
  const int lanes = 3;  // < kBatchLanes: padding lanes must not leak
  std::vector<std::vector<double>> dl(lanes);
  std::vector<const double*> ptrs(lanes);
  for (int l = 0; l < lanes; ++l) {
    dl[l].resize(cells);
    for (double& v : dl[l]) v = rng.normal(0.0, 2.0);
    ptrs[l] = dl[l].data();
  }
  BatchWorkspace ws;
  const BatchedTimer batched(&ctx_->timer());
  const BatchTimingResult br =
      batched.analyze_batch(base, ptrs, ws, /*want_cells=*/true);
  ASSERT_EQ(br.lanes, lanes);
  for (int l = 0; l < lanes; ++l) {
    VariantAssignment va = base;
    for (std::size_t c = 0; c < cells; ++c) {
      const auto id = static_cast<netlist::CellId>(c);
      const auto [il, iw] = base.get(id);
      va.set(id, liberty::shifted_poly_index(il, dl[l][c]), iw);
    }
    expect_lane_equals_scalar(br, l, ctx_->timer().analyze(va));
  }
}

TEST_F(BatchTest, WorkspaceReuseAcrossCallsIsStable) {
  VariantAssignment base(ctx_->netlist().cell_count());
  BatchWorkspace ws;
  const BatchedTimer batched(&ctx_->timer());
  const BatchTimingResult a = batched.analyze_batch(base, {nullptr}, ws);
  const BatchTimingResult b = batched.analyze_batch(base, {nullptr}, ws);
  EXPECT_EQ(a.mct_ns[0], b.mct_ns[0]);
  EXPECT_EQ(a.worst_slack_ns[0], b.worst_slack_ns[0]);
  EXPECT_EQ(a.worst_hold_slack_ns[0], b.worst_hold_slack_ns[0]);
}

// --- the Monte-Carlo driver through the batched path -----------------------

variation::YieldResult run_yield(flow::DesignContext& ctx, int width,
                                 ThreadPool* pool = nullptr) {
  variation::VariationModel model;
  model.monte_carlo_samples = 11;  // 11 % 4 != 0 and 11 % 8 != 0: ragged
  model.sta_batch_width = width;
  variation::YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(),
                                    &ctx.repo(), &ctx.timer(), model);
  VariantAssignment base(ctx.netlist().cell_count());
  return analyzer.analyze(base, pool);
}

void expect_same_dies(const variation::YieldResult& a,
                      const variation::YieldResult& b) {
  ASSERT_EQ(a.dies.size(), b.dies.size());
  for (std::size_t i = 0; i < a.dies.size(); ++i) {
    ASSERT_EQ(a.dies[i].mct_ns, b.dies[i].mct_ns) << "die " << i;
    ASSERT_EQ(a.dies[i].leakage_uw, b.dies[i].leakage_uw) << "die " << i;
  }
  EXPECT_EQ(a.mean_mct_ns, b.mean_mct_ns);
  EXPECT_EQ(a.p95_mct_ns, b.p95_mct_ns);
  EXPECT_EQ(a.mean_leakage_uw, b.mean_leakage_uw);
}

TEST_F(BatchTest, YieldBatchWidthsBitStable) {
  const variation::YieldResult w8 = run_yield(*ctx_, 8);
  const variation::YieldResult w4 = run_yield(*ctx_, 4);
  const variation::YieldResult w1 = run_yield(*ctx_, 1);
  expect_same_dies(w8, w4);
  expect_same_dies(w8, w1);
  EXPECT_EQ(w8.scalar_fallback_dies, 0);
}

TEST_F(BatchTest, YieldBatchedMatchesScalarPath) {
  variation::VariationModel model;
  model.monte_carlo_samples = 11;
  variation::YieldAnalyzer analyzer(&ctx_->netlist(), &ctx_->placement(),
                                    &ctx_->repo(), &ctx_->timer(), model);
  VariantAssignment base(ctx_->netlist().cell_count());
  expect_same_dies(analyzer.analyze(base), analyzer.analyze_scalar(base));
}

TEST_F(BatchTest, YieldThreadCountBitStable) {
  ThreadPool p1(1), p2(2), p8(8);
  const variation::YieldResult r1 = run_yield(*ctx_, 8, &p1);
  const variation::YieldResult r2 = run_yield(*ctx_, 8, &p2);
  const variation::YieldResult r8 = run_yield(*ctx_, 8, &p8);
  expect_same_dies(r1, r2);
  expect_same_dies(r1, r8);
}

// --- kernel-level pieces ---------------------------------------------------

/// max-of-rise/fall over the four per-table NldmTable::evaluate() lookups:
/// the reference the arc kernel must equal bit for bit.
liberty::ArcTiming per_table_reference(const liberty::TimingArc& arc,
                                       double slew_ns, double load_ff) {
  return {std::max(arc.delay_rise.evaluate(slew_ns, load_ff),
                   arc.delay_fall.evaluate(slew_ns, load_ff)),
          std::max(arc.slew_rise.evaluate(slew_ns, load_ff),
                   arc.slew_fall.evaluate(slew_ns, load_ff))};
}

/// Random in-range points, every exact axis point, and out-of-range points
/// on both sides of both axes.
std::vector<std::pair<double, double>> kernel_queries(
    const liberty::TimingArc& arc, Rng& rng) {
  std::vector<std::pair<double, double>> q;
  for (int k = 0; k < 64; ++k)
    q.emplace_back(0.001 + 0.7 * rng.uniform(), 0.1 + 30.0 * rng.uniform());
  for (const liberty::NldmTable* t :
       {&arc.delay_rise, &arc.delay_fall, &arc.slew_rise, &arc.slew_fall})
    for (double s : t->slew_axis())
      for (double l : t->load_axis()) q.emplace_back(s, l);
  q.emplace_back(1e-6, 1e-6);      // below both axes
  q.emplace_back(10.0, 1000.0);    // above both axes
  q.emplace_back(-0.5, 1000.0);    // below one, above the other
  q.emplace_back(10.0, -3.0);
  return q;
}

void expect_kernel_matches_reference(const liberty::TimingArc& arc,
                                     Rng& rng) {
  for (const auto& [s, l] : kernel_queries(arc, rng)) {
    const liberty::ArcTiming got = arc.evaluate(s, l);
    const liberty::ArcTiming ref = per_table_reference(arc, s, l);
    EXPECT_EQ(got.delay_ns, ref.delay_ns) << "slew " << s << " load " << l;
    EXPECT_EQ(got.slew_ns, ref.slew_ns) << "slew " << s << " load " << l;
  }
  // A NaN query gives NaN out, without throwing or reading past an axis.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [s, l] : {std::pair{nan, 3.0}, std::pair{0.05, nan}}) {
    liberty::ArcTiming got;
    EXPECT_NO_THROW(got = arc.evaluate(s, l));
    EXPECT_TRUE(std::isnan(got.delay_ns));
    EXPECT_TRUE(std::isnan(got.slew_ns));
  }
}

TEST_F(BatchTest, ArcKernelMatchesPerTableReference) {
  // Characterized arcs share their axes, so this is the fused path.
  Rng rng(5);
  for (const liberty::Library* lib :
       {&ctx_->repo().nominal(), &ctx_->repo().variant(0, 20)})
    for (const liberty::CharacterizedCell& cell : lib->cells())
      expect_kernel_matches_reference(cell.arc, rng);
}

TEST(ArcKernel, MixedAxesFallBackToPerTable) {
  // Four tables over four different axis pairs, as a Liberty file may
  // carry them: the kernel must take the per-table path.
  Rng rng(7);
  auto table = [&rng](std::vector<double> slew, std::vector<double> load) {
    liberty::NldmTable t(std::move(slew), std::move(load));
    for (std::size_t i = 0; i < t.slew_points(); ++i)
      for (std::size_t j = 0; j < t.load_points(); ++j)
        t.at(i, j) = 0.01 + 0.3 * rng.uniform();
    return t;
  };
  liberty::TimingArc arc;
  arc.delay_rise = table(liberty::default_slew_axis_ns(),
                         liberty::default_load_axis_ff());
  arc.delay_fall = table({0.01, 0.05, 0.2, 0.6}, {0.5, 2.0, 8.0, 20.0, 40.0});
  arc.slew_rise = table({0.02, 0.3}, {1.0, 10.0});
  arc.slew_fall = table(liberty::default_slew_axis_ns(), {0.3, 3.0, 30.0});
  arc.finalize();
  expect_kernel_matches_reference(arc, rng);
}

TEST(LaneKernels, MatchScalarSemantics) {
  const double a[4] = {1.0, -2.0, 3.5, 0.0};
  const double b[4] = {0.5, 4.0, -1.0, 0.0};
  double acc[4] = {1.2, 1.2, 1.2, 1.2};
  la::lane_add_max_into(4, a, b, acc);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(acc[i], std::max(1.2, a[i] + b[i]));

  double mn[4] = {1.2, 1.2, 1.2, 1.2};
  la::lane_add_min_into(4, a, b, mn);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(mn[i], std::min(1.2, a[i] + b[i]));

  double y[4] = {1.0, 1.0, 1.0, 1.0};
  la::lane_axpby(4, 2.0, a, -1.0, y);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(y[i], 2.0 * a[i] - 1.0);

  // NaN visibility: max/min reductions drop NaN; the checksum keeps it.
  const double nan = std::nan("");
  const double withnan[2] = {nan, 1.0};
  double mx[2] = {0.0, 0.0};
  la::lane_max_into(2, withnan, mx);
  EXPECT_EQ(mx[0], 0.0);  // NaN silently dropped by std::max
  double chk[2] = {0.0, 0.0};
  la::lane_accumulate(2, withnan, chk);
  EXPECT_TRUE(std::isnan(chk[0]));  // ...but poisons the checksum
  EXPECT_EQ(chk[1], 1.0);
}

}  // namespace
}  // namespace doseopt::sta
