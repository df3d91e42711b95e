// End-to-end flow tests: DesignContext invariants and run_flow in both
// modes, with and without the dosePl stage (Fig. 7 of the paper).
#include <gtest/gtest.h>

#include "common/error.h"

#include <algorithm>
#include <cmath>

#include "flow/optimize.h"

namespace doseopt::flow {
namespace {

class FlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new DesignContext(gen::aes65_spec().scaled(0.04));
  }
  static void TearDownTestSuite() { delete ctx_; }
  static DesignContext* ctx_;
};
DesignContext* FlowTest::ctx_ = nullptr;

TEST_F(FlowTest, ContextBaselineConsistent) {
  EXPECT_GT(ctx_->nominal_mct_ns(), 0.0);
  EXPECT_GT(ctx_->nominal_leakage_uw(), 0.0);
  EXPECT_EQ(ctx_->nominal_timing().cells.size(),
            ctx_->netlist().cell_count());
  EXPECT_TRUE(ctx_->placement().is_legal());
}

TEST_F(FlowTest, CoefficientsCachedPerWidthSetting) {
  const auto& a = ctx_->coefficients(false);
  const auto& b = ctx_->coefficients(false);
  EXPECT_EQ(&a, &b);
  EXPECT_FALSE(a.width_fitted());
}

TEST_F(FlowTest, LeakageModeFlow) {
  FlowOptions opt;
  opt.mode = DmoptMode::kMinimizeLeakage;
  opt.dmopt.grid_um = 10.0;
  const FlowResult r = run_flow(*ctx_, opt);
  EXPECT_LT(r.final_leakage_uw, r.nominal_leakage_uw);
  EXPECT_LE(r.final_mct_ns, r.nominal_mct_ns * 1.004);
  EXPECT_FALSE(r.dosepl_run);
}

/// One warm-vs-cold input: a scaled design and the DMopt grid.
struct SolvePathCase {
  const char* name;
  gen::DesignSpec (*spec)();
  double scale;
  double grid_um;
};

class SolvePathTest : public ::testing::TestWithParam<SolvePathCase> {};

TEST_P(SolvePathTest, IncrementalAndColdSolvePathsBitIdentical) {
  // The incremental cutting-plane path (append-only assembly + warm-started
  // QP) is a pure performance change: with the flag off the solver takes
  // the historical cold path, and every golden result must come out as the
  // same doubles.  Cycle-time mode is the richest trajectory (bisection
  // probes on top of cutting-plane rounds).
  const SolvePathCase& pc = GetParam();
  DesignContext ctx(pc.spec().scaled(pc.scale));
  FlowOptions warm;
  warm.mode = DmoptMode::kMinimizeCycleTime;
  warm.dmopt.grid_um = pc.grid_um;
  FlowOptions cold = warm;
  cold.dmopt.incremental = false;
  const FlowResult w = run_flow(ctx, warm);
  const FlowResult c = run_flow(ctx, cold);

  // Golden (signoff) results are the flow's contract and must be the same
  // doubles.
  EXPECT_EQ(w.dmopt.golden_mct_ns, c.dmopt.golden_mct_ns);
  EXPECT_EQ(w.dmopt.golden_leakage_uw, c.dmopt.golden_leakage_uw);
  EXPECT_EQ(w.final_mct_ns, c.final_mct_ns);
  EXPECT_EQ(w.final_leakage_uw, c.final_leakage_uw);
  // Both modes walk the same cutting-plane trajectory (same cuts, same
  // rounds, same probes) -- only the per-round solver work differs.
  EXPECT_EQ(w.dmopt.telemetry.total_rounds, c.dmopt.telemetry.total_rounds);
  EXPECT_EQ(w.dmopt.telemetry.total_cuts, c.dmopt.telemetry.total_cuts);
  EXPECT_EQ(w.dmopt.bisection_probes, c.dmopt.bisection_probes);
  // Model-space values may differ at solver tolerance when a degenerate
  // probe resolves a weakly-active constraint differently (the active-set
  // polish equalizes the two paths only when the detected sets agree).
  EXPECT_NEAR(w.dmopt.model_mct_ns, c.dmopt.model_mct_ns, 1e-6);
  ASSERT_EQ(w.dmopt.poly_map.doses().size(), c.dmopt.poly_map.doses().size());
  double max_dose_diff = 0.0;
  for (std::size_t i = 0; i < w.dmopt.poly_map.doses().size(); ++i)
    max_dose_diff = std::max(
        max_dose_diff,
        std::fabs(w.dmopt.poly_map.doses()[i] - c.dmopt.poly_map.doses()[i]));
  // (1e-4 % dose is orders of magnitude below one characterized variant
  // step, so the snapped assignments -- and everything golden above --
  // remain the same doubles.)
  EXPECT_LT(max_dose_diff, 1e-4) << "max dose diff " << max_dose_diff;
}

// The identity is input-sensitive: JPEG-65 at 3 % on a 20 um grid has
// bisection probes where a warm-only seed (one the cold path never sees)
// lands on a different golden MCT.
INSTANTIATE_TEST_SUITE_P(
    Designs, SolvePathTest,
    ::testing::Values(SolvePathCase{"aes65_4pct_grid10", gen::aes65_spec,
                                    0.04, 10.0},
                      SolvePathCase{"jpeg65_3pct_grid20", gen::jpeg65_spec,
                                    0.03, 20.0}),
    [](const ::testing::TestParamInfo<SolvePathCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(FlowTest, CycleTimeModeWithDosePl) {
  FlowOptions opt;
  opt.mode = DmoptMode::kMinimizeCycleTime;
  opt.dmopt.grid_um = 10.0;
  opt.run_dose_placement = true;
  opt.dosepl.rounds = 3;
  opt.dosepl.top_k_paths = 400;
  const FlowResult r = run_flow(*ctx_, opt);
  EXPECT_TRUE(r.dosepl_run);
  // DMopt improves timing; dosePl must not undo it.
  EXPECT_LT(r.dmopt.golden_mct_ns, r.nominal_mct_ns);
  EXPECT_LE(r.final_mct_ns, r.dmopt.golden_mct_ns + 1e-9);
  EXPECT_LE(r.final_leakage_uw, r.nominal_leakage_uw * 1.02);
}

TEST(FlowHelpers, FastModeScaling) {
  // Without the env var set, full size.
  if (!fast_mode()) {
    EXPECT_DOUBLE_EQ(design_scale(), 1.0);
    EXPECT_EQ(scaled_spec(gen::aes65_spec()).target_cells,
              gen::aes65_spec().target_cells);
  } else {
    EXPECT_LT(scaled_spec(gen::aes65_spec()).target_cells,
              gen::aes65_spec().target_cells);
  }
}

}  // namespace
}  // namespace doseopt::flow
