// Tests for the Liberty substrate: NLDM tables, the master inventory, the
// characterizer's monotonicity properties, the variant repository, the
// coefficient fits, and the Liberty text round trip.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "liberty/characterizer.h"
#include "liberty/coeff_fit.h"
#include "liberty/liberty_io.h"
#include "liberty/repository.h"

namespace doseopt::liberty {
namespace {

TEST(Nldm, ExactOnGridPoints) {
  NldmTable t({0.01, 0.1}, {1.0, 2.0, 4.0});
  t.at(0, 0) = 1.0;
  t.at(0, 2) = 3.0;
  t.at(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(t.evaluate(0.01, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(t.evaluate(0.01, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(t.evaluate(0.1, 2.0), 7.0);
}

TEST(Nldm, BilinearBetweenPoints) {
  NldmTable t({0.0, 1.0}, {0.0, 1.0});
  t.at(0, 0) = 0.0;
  t.at(0, 1) = 1.0;
  t.at(1, 0) = 2.0;
  t.at(1, 1) = 3.0;  // value = 2*slew + load
  EXPECT_DOUBLE_EQ(t.evaluate(0.5, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(t.evaluate(0.25, 0.75), 1.25);
}

TEST(Nldm, LinearExtrapolationOutsideAxes) {
  NldmTable t({0.0, 1.0}, {0.0, 1.0});
  t.at(0, 0) = 0.0;
  t.at(0, 1) = 1.0;
  t.at(1, 0) = 2.0;
  t.at(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(t.evaluate(2.0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(t.evaluate(0.0, -1.0), -1.0);
}

TEST(Nldm, NaNQueryReturnsNaN) {
  // NaN fails every axis comparison; the lookup must still pick a real
  // segment (the first) rather than index one past the axis.
  NldmTable t({0.0, 1.0, 4.0}, {0.0, 10.0});
  t.at(2, 1) = 5.0;
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(t.evaluate(nan, 1.0)));
  EXPECT_TRUE(std::isnan(t.evaluate(0.5, nan)));
  EXPECT_LT(t.nearest_slew_index(nan), t.slew_points());
  EXPECT_LT(t.nearest_load_index(nan), t.load_points());
}

TEST(Nldm, NearestIndex) {
  NldmTable t({0.0, 1.0, 4.0}, {0.0, 10.0});
  EXPECT_EQ(t.nearest_slew_index(0.4), 0u);
  EXPECT_EQ(t.nearest_slew_index(0.6), 1u);
  EXPECT_EQ(t.nearest_slew_index(100.0), 2u);
  EXPECT_EQ(t.nearest_load_index(4.0), 0u);
  EXPECT_EQ(t.nearest_load_index(6.0), 1u);
}

TEST(Nldm, RejectsBadAxes) {
  EXPECT_THROW(NldmTable({1.0}, {0.0, 1.0}), doseopt::Error);
  EXPECT_THROW(NldmTable({1.0, 1.0}, {0.0, 1.0}), doseopt::Error);
}

TEST(Masters, InventoryMatchesPaper) {
  const auto masters = make_standard_masters(tech::make_tech_65nm());
  std::size_t comb = 0, seq = 0;
  for (const auto& m : masters) (m.sequential ? seq : comb)++;
  EXPECT_EQ(comb, 36u);  // "36 combinational cells"
  EXPECT_EQ(seq, 9u);    // "nine sequential cells"
}

TEST(Masters, LookupAndProperties) {
  const auto masters = make_standard_masters(tech::make_tech_65nm());
  const CellMaster& inv = master_by_name(masters, "INVX1");
  EXPECT_EQ(inv.num_inputs, 1);
  EXPECT_FALSE(inv.sequential);
  const CellMaster& nand4 = master_by_name(masters, "NAND4X1");
  EXPECT_EQ(nand4.num_inputs, 4);
  const CellMaster& dff = master_by_name(masters, "DFFX1");
  EXPECT_TRUE(dff.sequential);
  EXPECT_GT(dff.setup_ns, 0.0);
  EXPECT_THROW(master_by_name(masters, "NOPE"), doseopt::Error);
}

TEST(Masters, DriveScalesWidths) {
  const auto masters = make_standard_masters(tech::make_tech_65nm());
  const CellMaster& x1 = master_by_name(masters, "INVX1");
  const CellMaster& x4 = master_by_name(masters, "INVX4");
  EXPECT_NEAR(x4.stages[0].wn_nm / x1.stages[0].wn_nm, 4.0, 1e-9);
}

class Characterized : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new LibraryRepository(tech::make_tech_65nm());
  }
  static void TearDownTestSuite() {
    delete repo_;
    repo_ = nullptr;
  }
  static LibraryRepository* repo_;
};
LibraryRepository* Characterized::repo_ = nullptr;

double delay(const CharacterizedCell& c, double slew_ns, double load_ff) {
  return c.arc.evaluate(slew_ns, load_ff).delay_ns;
}

double out_slew(const CharacterizedCell& c, double slew_ns, double load_ff) {
  return c.arc.evaluate(slew_ns, load_ff).slew_ns;
}

TEST_F(Characterized, NominalLibraryComplete) {
  const Library& lib = repo_->nominal();
  EXPECT_EQ(lib.cell_count(), 45u);
  EXPECT_TRUE(lib.has_cell("NAND2X1"));
  EXPECT_FALSE(lib.has_cell("NAND9X9"));
  EXPECT_THROW(lib.cell_by_name("NAND9X9"), doseopt::Error);
}

TEST_F(Characterized, DelayMonotoneInLoad) {
  const auto& c = repo_->nominal().cell_by_name("NAND2X1");
  double prev = 0.0;
  for (double load = 0.5; load < 20.0; load *= 2.0) {
    const double d = delay(c, 0.05, load);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(Characterized, DelayMonotoneInSlew) {
  const auto& c = repo_->nominal().cell_by_name("NOR2X1");
  EXPECT_LT(delay(c, 0.01, 3.0), delay(c, 0.3, 3.0));
}

TEST_F(Characterized, HigherDriveIsFasterUnderLoad) {
  const auto& x1 = repo_->nominal().cell_by_name("INVX1");
  const auto& x4 = repo_->nominal().cell_by_name("INVX4");
  EXPECT_GT(delay(x1, 0.05, 10.0), delay(x4, 0.05, 10.0));
}

TEST_F(Characterized, PolyDoseSpeedsUpAndLeaksMore) {
  // Higher poly dose -> shorter gate -> faster and leakier (Section I).
  const auto& nominal = repo_->nominal().cell_by_name("INVX1");
  const auto& plus5 = repo_->variant(20, 10).cell_by_name("INVX1");
  const auto& minus5 = repo_->variant(0, 10).cell_by_name("INVX1");
  EXPECT_LT(delay(plus5, 0.05, 3.0), delay(nominal, 0.05, 3.0));
  EXPECT_GT(delay(minus5, 0.05, 3.0), delay(nominal, 0.05, 3.0));
  EXPECT_GT(plus5.leakage_nw, nominal.leakage_nw);
  EXPECT_LT(minus5.leakage_nw, nominal.leakage_nw);
}

TEST_F(Characterized, ActiveDoseNarrowsAndSlowsDevice) {
  // Higher active dose -> narrower gate -> slower and less leaky.
  const auto& nominal = repo_->nominal().cell_by_name("INVX1");
  const auto& plus5 = repo_->variant(10, 20).cell_by_name("INVX1");
  EXPECT_GT(delay(plus5, 0.05, 3.0), delay(nominal, 0.05, 3.0));
  EXPECT_LT(plus5.leakage_nw, nominal.leakage_nw);
}

TEST_F(Characterized, LeakageRatiosMatchTableII) {
  // Table II shape: +5% dose multiplies leakage ~2.5x; -5% gives ~0.62x.
  const double nom = repo_->nominal().cell_by_name("INVX1").leakage_nw;
  const double hot = repo_->variant(20, 10).cell_by_name("INVX1").leakage_nw;
  const double cold = repo_->variant(0, 10).cell_by_name("INVX1").leakage_nw;
  EXPECT_NEAR(hot / nom, 2.55, 0.35);
  EXPECT_NEAR(cold / nom, 0.62, 0.08);
}

TEST_F(Characterized, LazyCaching) {
  const std::size_t before = repo_->characterized_count();
  repo_->variant(3, 10);
  repo_->variant(3, 10);
  EXPECT_LE(repo_->characterized_count(), before + 1);
}

TEST(Repository, DoseVariantRoundTrip) {
  EXPECT_EQ(dose_to_variant_index(0.0), 10);
  EXPECT_EQ(dose_to_variant_index(-5.0), 0);
  EXPECT_EQ(dose_to_variant_index(5.0), 20);
  EXPECT_EQ(dose_to_variant_index(7.0), 20);    // clamped
  EXPECT_EQ(dose_to_variant_index(0.26), 11);   // snaps to 0.5
  EXPECT_DOUBLE_EQ(variant_index_to_dose_pct(10), 0.0);
  for (int i = 0; i < kVariantsPerLayer; ++i)
    EXPECT_EQ(dose_to_variant_index(variant_index_to_dose_pct(i)), i);
}

TEST(Repository, DoseToCd) {
  EXPECT_DOUBLE_EQ(dose_to_delta_cd_nm(5.0), -10.0);
  EXPECT_DOUBLE_EQ(dose_to_delta_cd_nm(-2.5), 5.0);
}

TEST(CoeffFit, SignsAndQuality) {
  LibraryRepository repo(tech::make_tech_65nm());
  const CoefficientSet coeffs(repo, /*fit_width=*/false);
  const auto& masters = repo.masters();
  for (std::size_t mi = 0; mi < masters.size(); ++mi) {
    // Delay grows with L: A > 0 at every table entry we sample.
    EXPECT_GT(coeffs.a_length(mi, 0.05, 3.0), 0.0) << masters[mi].name;
    const LeakageCoeffs& lk = coeffs.leakage_coeffs(mi);
    EXPECT_GE(lk.alpha_nw_per_nm2, 0.0) << masters[mi].name;  // convex
    EXPECT_LT(lk.beta_nw_per_nm, 0.0) << masters[mi].name;  // leak falls w/ L
    EXPECT_GT(lk.nominal_nw, 0.0);
  }
  // Without width fitting, B is zero.
  EXPECT_DOUBLE_EQ(coeffs.b_width(0, 0.05, 3.0), 0.0);
  EXPECT_FALSE(coeffs.width_fitted());
  // The L-only delay fits are tight (paper: max SSR 0.0005).
  EXPECT_LT(coeffs.quality().length_only.max_ssr, 0.01);
  EXPECT_GT(coeffs.quality().length_only.fit_count, 1000u);
}

TEST(CoeffFit, LeakageModelTracksGolden) {
  LibraryRepository repo(tech::make_tech_65nm());
  const CoefficientSet coeffs(repo, /*fit_width=*/false);
  const std::size_t mi = repo.nominal().cell_index("INVX1");
  const LeakageCoeffs& lk = coeffs.leakage_coeffs(mi);
  for (int v : {0, 5, 15, 20}) {
    const double dl = dose_to_delta_cd_nm(variant_index_to_dose_pct(v));
    const double golden =
        repo.variant(v, 10).cell(mi).leakage_nw - lk.nominal_nw;
    const double model = lk.delta_leak_nw(dl, 0.0);
    EXPECT_NEAR(model, golden, 0.25 * std::abs(golden) + 0.3);
  }
}

TEST(LibertyIo, RoundTripPreservesTables) {
  LibraryRepository repo(tech::make_tech_65nm());
  const Library& lib = repo.variant(12, 10);
  const std::string text = to_liberty_string(lib);
  EXPECT_NE(text.find("library ("), std::string::npos);
  EXPECT_NE(text.find("cell (INVX1)"), std::string::npos);

  const Library parsed = parse_liberty_string(lib.node(), text);
  EXPECT_EQ(parsed.cell_count(), lib.cell_count());
  EXPECT_NEAR(parsed.delta_l_nm(), lib.delta_l_nm(), 1e-9);
  for (std::size_t i = 0; i < lib.cell_count(); ++i) {
    const auto& a = lib.cell(i);
    const auto& b = parsed.cell_by_name(a.name);
    EXPECT_NEAR(a.input_cap_ff, b.input_cap_ff, 1e-5);
    EXPECT_NEAR(a.leakage_nw, b.leakage_nw, 1e-5);
    EXPECT_NEAR(delay(a, 0.05, 3.0), delay(b, 0.05, 3.0), 1e-5);
    EXPECT_NEAR(out_slew(a, 0.05, 3.0), out_slew(b, 0.05, 3.0),
                1e-5);
  }
}

TEST(LibertyIo, ParserRejectsGarbage) {
  EXPECT_THROW(parse_liberty_string(tech::make_tech_65nm(), "not liberty"),
               doseopt::Error);
}

}  // namespace
}  // namespace doseopt::liberty
