// Tests for the timing-yield / CD-variation module.
#include <gtest/gtest.h>

#include "common/error.h"

#include <cmath>

#include "flow/context.h"
#include "test_helpers.h"
#include "variation/yield.h"

namespace doseopt::variation {
namespace {

class YieldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new flow::DesignContext(gen::aes65_spec().scaled(0.04));
  }
  static void TearDownTestSuite() { delete ctx_; }
  static flow::DesignContext* ctx_;
};
flow::DesignContext* YieldTest::ctx_ = nullptr;

TEST_F(YieldTest, ZeroVariationReproducesNominal) {
  VariationModel model;
  model.systematic_sigma_nm = 0.0;
  model.random_sigma_nm = 0.0;
  model.monte_carlo_samples = 3;
  YieldAnalyzer analyzer(&ctx_->netlist(), &ctx_->placement(), &ctx_->repo(),
                         &ctx_->timer(), model);
  sta::VariantAssignment base(ctx_->netlist().cell_count());
  const YieldResult r = analyzer.analyze(base);
  EXPECT_NEAR(r.mean_mct_ns, ctx_->nominal_mct_ns(), 1e-9);
  EXPECT_NEAR(r.std_mct_ns, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.yield_at(ctx_->nominal_mct_ns() + 1e-6), 1.0);
  EXPECT_DOUBLE_EQ(r.yield_at(ctx_->nominal_mct_ns() * 0.5), 0.0);
}

TEST_F(YieldTest, VariationWidensTheDistribution) {
  VariationModel model;
  model.monte_carlo_samples = 24;
  YieldAnalyzer analyzer(&ctx_->netlist(), &ctx_->placement(), &ctx_->repo(),
                         &ctx_->timer(), model);
  sta::VariantAssignment base(ctx_->netlist().cell_count());
  const YieldResult r = analyzer.analyze(base);
  EXPECT_GT(r.std_mct_ns, 0.0);
  EXPECT_GE(r.p95_mct_ns, r.mean_mct_ns);
  // Yield is monotone in the clock.
  EXPECT_LE(r.yield_at(r.mean_mct_ns), r.yield_at(r.p95_mct_ns) + 1e-12);
}

TEST_F(YieldTest, SampledFieldHasRequestedScale) {
  VariationModel model;
  model.systematic_sigma_nm = 2.0;
  model.random_sigma_nm = 0.0;
  YieldAnalyzer analyzer(&ctx_->netlist(), &ctx_->placement(), &ctx_->repo(),
                         &ctx_->timer(), model);
  // RMS over many samples approaches systematic_sigma.
  double sq = 0.0;
  std::size_t count = 0;
  for (std::uint64_t s = 1; s <= 20; ++s) {
    const auto dl = analyzer.sample_delta_l_nm(s);
    for (const double v : dl) {
      sq += v * v;
      ++count;
    }
  }
  EXPECT_NEAR(std::sqrt(sq / count), 2.0, 0.6);
}

TEST_F(YieldTest, SpatialCorrelationPresent) {
  VariationModel model;
  model.systematic_sigma_nm = 2.0;
  model.random_sigma_nm = 0.0;
  YieldAnalyzer analyzer(&ctx_->netlist(), &ctx_->placement(), &ctx_->repo(),
                         &ctx_->timer(), model);
  const auto dl = analyzer.sample_delta_l_nm(7);
  // Nearby cells (consecutive ids share locality by construction) must be
  // much more similar than random pairs: compare neighbor-delta RMS to the
  // field RMS.
  double neighbor_sq = 0.0, field_sq = 0.0;
  std::size_t n = 0;
  for (std::size_t c = 1; c < dl.size(); ++c) {
    const auto a = static_cast<netlist::CellId>(c);
    const auto b = static_cast<netlist::CellId>(c - 1);
    const double dx =
        std::abs(ctx_->placement().x_um(a) - ctx_->placement().x_um(b));
    const double dy =
        std::abs(ctx_->placement().y_um(a) - ctx_->placement().y_um(b));
    if (dx > 3.0 || dy > 3.0) continue;  // only genuinely close pairs
    neighbor_sq += (dl[c] - dl[c - 1]) * (dl[c] - dl[c - 1]);
    field_sq += dl[c] * dl[c];
    ++n;
  }
  ASSERT_GT(n, 10u);
  EXPECT_LT(neighbor_sq / n, 0.5 * field_sq / n);
}

TEST_F(YieldTest, DeterministicForSameSeed) {
  VariationModel model;
  model.monte_carlo_samples = 5;
  YieldAnalyzer a(&ctx_->netlist(), &ctx_->placement(), &ctx_->repo(),
                  &ctx_->timer(), model);
  sta::VariantAssignment base(ctx_->netlist().cell_count());
  const YieldResult r1 = a.analyze(base);
  const YieldResult r2 = a.analyze(base);
  ASSERT_EQ(r1.dies.size(), r2.dies.size());
  for (std::size_t i = 0; i < r1.dies.size(); ++i)
    EXPECT_DOUBLE_EQ(r1.dies[i].mct_ns, r2.dies[i].mct_ns);
}

TEST(YieldModel, DiesArePinned) {
  // 64 dies of AES-65 at 2 %, recorded before the per-cell draw moved to
  // the polar method (now the block sampler): the stream must not move.
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
  VariationModel model;
  model.monte_carlo_samples = 64;
  const YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(), &ctx.repo(),
                               &ctx.timer(), model);
  const YieldResult r =
      analyzer.analyze(sta::VariantAssignment(ctx.netlist().cell_count()));
  ASSERT_EQ(r.dies.size(), 64u);
  testing_support::Fnv1a h;
  for (const DieSample& d : r.dies) {
    h.add(d.mct_ns);
    h.add(d.leakage_uw);
  }
  EXPECT_EQ(h.value(), 0x28844F2F442B989FULL);
}

TEST(YieldModel, Validation) {
  VariationModel model;
  model.monte_carlo_samples = 0;
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
  EXPECT_THROW(YieldAnalyzer(&ctx.netlist(), &ctx.placement(), &ctx.repo(),
                             &ctx.timer(), model),
               Error);
}

}  // namespace
}  // namespace doseopt::variation
