// Integration tests for the core dose-map optimizer: the QP and QCP
// formulations on a small generated design, equipment-constraint
// feasibility, model consistency, the grid-granularity trend, and the
// SSTA bookkeeping of the yield-target loop.
#include <gtest/gtest.h>

#include "common/error.h"
#include "dmopt/dmopt.h"
#include "faultinject/fault.h"
#include "flow/context.h"
#include "ssta/ssta.h"

namespace doseopt::dmopt {
namespace {

class DmoptSmall : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::DesignSpec spec = gen::aes65_spec().scaled(0.05);
    ctx_ = new flow::DesignContext(spec);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  DoseMapOptimizer make_optimizer(double grid_um, bool width = false) {
    DmoptOptions opt;
    opt.grid_um = grid_um;
    opt.modulate_width = width;
    return DoseMapOptimizer(&ctx_->netlist(), &ctx_->placement(),
                            &ctx_->parasitics(), &ctx_->repo(),
                            &ctx_->coefficients(width), &ctx_->timer(),
                            &ctx_->nominal_timing(), opt);
  }

  static flow::DesignContext* ctx_;
};
flow::DesignContext* DmoptSmall::ctx_ = nullptr;

TEST_F(DmoptSmall, ModelMatchesGoldenAtZeroDose) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  EXPECT_NEAR(opt.model_mct_uniform(0.0, 0.0), ctx_->nominal_mct_ns(), 1e-9);
}

TEST_F(DmoptSmall, ModelMctMonotoneInUniformDose) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  double prev = 1e9;
  for (double dose = -5.0; dose <= 5.0; dose += 1.0) {
    const double m = opt.model_mct_uniform(dose, 0.0);
    EXPECT_LT(m, prev);  // more dose -> shorter gates -> faster
    prev = m;
  }
}

TEST_F(DmoptSmall, QpReducesLeakageWithoutTimingLoss) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  const DmoptResult r = opt.minimize_leakage();
  // Leakage strictly improves...
  EXPECT_LT(r.golden_leakage_uw, ctx_->nominal_leakage_uw());
  // ...and the golden MCT does not degrade beyond the correction tolerance.
  EXPECT_LE(r.golden_mct_ns, ctx_->nominal_mct_ns() * 1.004);
  // Equipment constraints hold.
  EXPECT_TRUE(r.poly_map.satisfies(-5.0, 5.0, 2.0, 1e-4));
  EXPECT_FALSE(r.active_map.has_value());
}

TEST_F(DmoptSmall, QcpImprovesTimingWithoutLeakageIncrease) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  const DmoptResult r = opt.minimize_cycle_time();
  EXPECT_LT(r.golden_mct_ns, ctx_->nominal_mct_ns());
  EXPECT_LE(r.golden_leakage_uw, ctx_->nominal_leakage_uw() + 1e-2);
  EXPECT_TRUE(r.poly_map.satisfies(-5.0, 5.0, 2.0, 1e-4));
  EXPECT_GE(r.bisection_probes, 2);
}

TEST_F(DmoptSmall, QcpWithLeakageBudgetImprovesMore) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  const DmoptResult tight = opt.minimize_cycle_time(0.0);
  const DmoptResult loose =
      opt.minimize_cycle_time(0.5 * ctx_->nominal_leakage_uw());
  EXPECT_LE(loose.golden_mct_ns, tight.golden_mct_ns + 1e-6);
}

TEST_F(DmoptSmall, TighterTimingBoundCostsLeakage) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  const DmoptResult relaxed =
      opt.minimize_leakage(1.05 * ctx_->nominal_mct_ns());
  const DmoptResult tight = opt.minimize_leakage(ctx_->nominal_mct_ns());
  EXPECT_LE(relaxed.golden_leakage_uw, tight.golden_leakage_uw + 1e-6);
}

TEST_F(DmoptSmall, FinerGridsDoNotHurtLeakage) {
  DoseMapOptimizer coarse = make_optimizer(30.0);
  DoseMapOptimizer fine = make_optimizer(8.0);
  EXPECT_GT(fine.grid_count(), coarse.grid_count());
  const DmoptResult rc = coarse.minimize_leakage();
  const DmoptResult rf = fine.minimize_leakage();
  // Finer grids give at least comparable leakage reduction (Table IV trend);
  // allow a small tolerance for golden-correction noise.
  EXPECT_LE(rf.golden_leakage_uw,
            rc.golden_leakage_uw + 0.02 * ctx_->nominal_leakage_uw());
}

TEST_F(DmoptSmall, BothLayerQcpAtLeastAsGoodAsPolyOnly) {
  DoseMapOptimizer poly = make_optimizer(10.0, /*width=*/false);
  DoseMapOptimizer both = make_optimizer(10.0, /*width=*/true);
  const DmoptResult rp = poly.minimize_cycle_time();
  const DmoptResult rb = both.minimize_cycle_time();
  ASSERT_TRUE(rb.active_map.has_value());
  EXPECT_TRUE(rb.active_map->satisfies(-5.0, 5.0, 2.0, 1e-4));
  // Table V: width modulation gives comparable-or-slightly-better timing.
  EXPECT_LE(rb.golden_mct_ns, rp.golden_mct_ns * 1.02);
}

TEST_F(DmoptSmall, WidthRequiresWidthFittedCoefficients) {
  DmoptOptions opt;
  opt.modulate_width = true;
  EXPECT_THROW(DoseMapOptimizer(&ctx_->netlist(), &ctx_->placement(),
                                &ctx_->parasitics(), &ctx_->repo(),
                                &ctx_->coefficients(false), &ctx_->timer(),
                                &ctx_->nominal_timing(), opt),
               Error);
}

TEST_F(DmoptSmall, VariantsMatchDoseMap) {
  DoseMapOptimizer opt = make_optimizer(10.0);
  const DmoptResult r = opt.minimize_leakage();
  // Every cell's assigned poly variant equals the snapped dose of its grid.
  for (std::size_t c = 0; c < ctx_->netlist().cell_count(); ++c) {
    const auto id = static_cast<netlist::CellId>(c);
    const std::size_t g = r.poly_map.grid_at(ctx_->placement().x_um(id),
                                             ctx_->placement().y_um(id));
    EXPECT_EQ(r.variants.get(id).first,
              liberty::dose_to_variant_index(r.poly_map.doses()[g]));
    EXPECT_EQ(r.variants.get(id).second, 10);  // active layer untouched
  }
}

TEST(DmoptYieldTarget, AnalyzesEachProbeOnce) {
  // Every probe of the yield-target loop is steered on an SSTA analysis of
  // its snapped variants, but each distinct assignment is analyzed once:
  // probes that revisit one, and the MC verification of the finalized
  // recipe, reuse the memoized result.  A never-firing arm on ssta.nan
  // counts the analyses actually run.
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
  DmoptOptions options;
  options.grid_um = 10.0;
  options.yield_target = 0.9;
  DoseMapOptimizer opt(&ctx.netlist(), &ctx.placement(), &ctx.parasitics(),
                       &ctx.repo(), &ctx.coefficients(false), &ctx.timer(),
                       &ctx.nominal_timing(), options);
  DmoptResult r;
  std::uint64_t analyses = 0;
  {
    faultinject::ArmScope count("ssta.nan", "nth=1000000000");
    r = opt.minimize_leakage();
    analyses = count.point().hits();
  }
  EXPECT_EQ(analyses, static_cast<std::uint64_t>(r.ssta_analyses));
  EXPECT_LT(r.ssta_analyses, r.bisection_probes);

  // The reported analytic yield is exactly a fresh engine's analysis of
  // the final variants.
  const ssta::SstaTimer fresh(&ctx.timer(), &ctx.placement(),
                              &ctx.coefficients(false),
                              options.yield_variation);
  const ssta::SstaResult sr = fresh.analyze(r.variants);
  ASSERT_TRUE(sr.healthy);
  EXPECT_EQ(r.ssta_yield, sr.yield_at(r.yield_tau_ns));
  EXPECT_GE(r.mc_yield, options.yield_target);
}

}  // namespace
}  // namespace doseopt::dmopt
