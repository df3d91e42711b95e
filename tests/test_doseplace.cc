// Tests for the dosePl cell-swapping heuristic (Algorithm 1): timing never
// degrades, the placement stays legal, and the filters are honored.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

#include "dmopt/dmopt.h"
#include "doseplace/doseplace.h"
#include "flow/context.h"

namespace doseopt::doseplace {
namespace {

class DosePlTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new flow::DesignContext(gen::aes65_spec().scaled(0.05));
    dmopt::DmoptOptions opt;
    opt.grid_um = 10.0;
    dmopt::DoseMapOptimizer optimizer(
        &ctx_->netlist(), &ctx_->placement(), &ctx_->parasitics(),
        &ctx_->repo(), &ctx_->coefficients(false), &ctx_->timer(),
        &ctx_->nominal_timing(), opt);
    dm_result_ = new dmopt::DmoptResult(optimizer.minimize_cycle_time());
  }
  static void TearDownTestSuite() {
    delete dm_result_;
    delete ctx_;
  }
  static flow::DesignContext* ctx_;
  static dmopt::DmoptResult* dm_result_;
};
flow::DesignContext* DosePlTest::ctx_ = nullptr;
dmopt::DmoptResult* DosePlTest::dm_result_ = nullptr;

TEST_F(DosePlTest, NeverDegradesTiming) {
  sta::VariantAssignment variants = dm_result_->variants;
  DosePlOptions opt;
  opt.rounds = 4;
  opt.top_k_paths = 500;
  DosePlacer placer(&ctx_->netlist(), &ctx_->placement(), &ctx_->parasitics(),
                    &ctx_->repo(), &ctx_->timer(), opt);
  const DosePlResult r =
      placer.run(dm_result_->poly_map, nullptr, variants);
  EXPECT_LE(r.final_mct_ns, r.initial_mct_ns + 1e-9);
  EXPECT_LE(r.rounds_run, 4);
  EXPECT_GE(r.rounds_accepted, 0);
  // Placement survived all the ECO churn.
  EXPECT_TRUE(ctx_->placement().is_legal());
  // Golden state of the variant assignment matches the final report.
  const double mct = ctx_->timer().analyze(variants).mct_ns;
  EXPECT_NEAR(mct, r.final_mct_ns, 1e-9);
}

TEST_F(DosePlTest, LeakageStaysBounded) {
  sta::VariantAssignment variants = dm_result_->variants;
  DosePlOptions opt;
  opt.rounds = 3;
  opt.top_k_paths = 500;
  opt.leak_increase_limit = 0.10;
  DosePlacer placer(&ctx_->netlist(), &ctx_->placement(), &ctx_->parasitics(),
                    &ctx_->repo(), &ctx_->timer(), opt);
  const DosePlResult r =
      placer.run(dm_result_->poly_map, nullptr, variants);
  // A handful of 1-for-1 swaps cannot blow leakage up; allow 2%.
  EXPECT_LE(r.final_leakage_uw, r.initial_leakage_uw * 1.02);
}

TEST_F(DosePlTest, ZeroRoundsIsIdentity) {
  sta::VariantAssignment variants = dm_result_->variants;
  DosePlOptions opt;
  opt.rounds = 0;
  DosePlacer placer(&ctx_->netlist(), &ctx_->placement(), &ctx_->parasitics(),
                    &ctx_->repo(), &ctx_->timer(), opt);
  const DosePlResult r =
      placer.run(dm_result_->poly_map, nullptr, variants);
  EXPECT_EQ(r.rounds_run, 0);
  EXPECT_EQ(r.swaps_accepted, 0);
  EXPECT_DOUBLE_EQ(r.final_mct_ns, r.initial_mct_ns);
}

TEST_F(DosePlTest, MultipleSwapsPerRoundAllowed) {
  sta::VariantAssignment variants = dm_result_->variants;
  DosePlOptions opt;
  opt.rounds = 2;
  opt.max_swaps_per_round = 4;
  opt.top_k_paths = 500;
  DosePlacer placer(&ctx_->netlist(), &ctx_->placement(), &ctx_->parasitics(),
                    &ctx_->repo(), &ctx_->timer(), opt);
  const DosePlResult r =
      placer.run(dm_result_->poly_map, nullptr, variants);
  EXPECT_LE(r.final_mct_ns, r.initial_mct_ns + 1e-9);
  EXPECT_TRUE(ctx_->placement().is_legal());
}

TEST(DosePlWidth, LeakageFilterPricesTheActiveVariants) {
  // A width-modulated recipe gives cells active indices other than the
  // nominal 10.  The gamma4 filter prices each cell at its own poly and
  // active variant before the swap and at the other cell's after it (both
  // maps are per location).  Pricing every cell at active index 10, the
  // rule this replaced, accepts 2 rounds and 8 swaps on this input.
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.03));
  dmopt::DmoptOptions dm_opt;
  dm_opt.grid_um = 10.0;
  dm_opt.modulate_width = true;
  dmopt::DoseMapOptimizer optimizer(
      &ctx.netlist(), &ctx.placement(), &ctx.parasitics(), &ctx.repo(),
      &ctx.coefficients(true), &ctx.timer(), &ctx.nominal_timing(), dm_opt);
  const dmopt::DmoptResult dm = optimizer.minimize_leakage();
  ASSERT_TRUE(dm.active_map.has_value());

  sta::VariantAssignment variants = dm.variants;
  DosePlOptions opt;
  opt.rounds = 4;
  opt.top_k_paths = 500;
  opt.leak_increase_limit = 0.0;
  opt.max_swaps_per_round = 4;
  DosePlacer placer(&ctx.netlist(), &ctx.placement(), &ctx.parasitics(),
                    &ctx.repo(), &ctx.timer(), opt);
  const DosePlResult r = placer.run(dm.poly_map, &*dm.active_map, variants);
  EXPECT_EQ(r.rounds_accepted, 3);
  EXPECT_EQ(r.swaps_accepted, 12);
  EXPECT_LE(r.final_mct_ns, r.initial_mct_ns + 1e-9);
  EXPECT_TRUE(ctx.placement().is_legal());
}

TEST(DosePlRollback, RestoredParasiticsEqualAFreshExtraction) {
  // A rolled-back round swaps the pre-ECO parasitics back in instead of
  // re-extracting the restored placement.  Runs with more rounds extend
  // runs with fewer, so the first round count that rolls anything back
  // ends on that rollback; its parasitics must equal a fresh extraction
  // field for field.
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.05));
  dmopt::DmoptOptions dm_opt;
  dm_opt.grid_um = 10.0;
  dmopt::DoseMapOptimizer optimizer(
      &ctx.netlist(), &ctx.placement(), &ctx.parasitics(), &ctx.repo(),
      &ctx.coefficients(false), &ctx.timer(), &ctx.nominal_timing(), dm_opt);
  const dmopt::DmoptResult dm = optimizer.minimize_cycle_time();
  const place::Placement placement0 = ctx.placement();
  const extract::Parasitics parasitics0 = ctx.parasitics();

  bool rolled_back = false;
  for (int rounds = 1; rounds <= 8 && !rolled_back; ++rounds) {
    ctx.placement() = placement0;
    ctx.parasitics() = parasitics0;
    sta::VariantAssignment variants = dm.variants;
    DosePlOptions opt;
    opt.rounds = rounds;
    opt.top_k_paths = 500;
    opt.max_swaps_per_round = 4;
    DosePlacer placer(&ctx.netlist(), &ctx.placement(), &ctx.parasitics(),
                      &ctx.repo(), &ctx.timer(), opt);
    const DosePlResult r = placer.run(dm.poly_map, nullptr, variants);
    if (r.rounds_rolled_back == 0) continue;
    rolled_back = true;
    SCOPED_TRACE("rounds=" + std::to_string(rounds));
    ASSERT_EQ(r.rounds_rolled_back, 1);
    ASSERT_EQ(r.rounds_run, rounds);

    const extract::Parasitics fresh =
        extract::extract(ctx.placement(), ctx.node());
    ASSERT_EQ(ctx.parasitics().net_count(), fresh.net_count());
    for (std::size_t n = 0; n < fresh.net_count(); ++n) {
      const auto id = static_cast<netlist::NetId>(n);
      EXPECT_EQ(ctx.parasitics().net(id).length_um, fresh.net(id).length_um)
          << "net " << n;
      EXPECT_EQ(ctx.parasitics().net(id).wire_cap_ff, fresh.net(id).wire_cap_ff)
          << "net " << n;
      EXPECT_EQ(ctx.parasitics().net(id).wire_res_kohm,
                fresh.net(id).wire_res_kohm)
          << "net " << n;
    }
    // The restored state times like the best state the run reports.
    EXPECT_NEAR(ctx.timer().analyze(variants).mct_ns, r.final_mct_ns, 1e-9);
  }
  EXPECT_TRUE(rolled_back) << "no round rolled back within 8 rounds";
}

}  // namespace
}  // namespace doseopt::doseplace
