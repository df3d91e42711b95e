// Integration tests for the core dose-map optimizer: the QP and QCP
// formulations on a small generated design, equipment-constraint
// feasibility, model consistency, the grid-granularity trend, the tau
// retarget search on synthetic gap functions and on designs where the
// plain step rule oscillates, and the SSTA bookkeeping of the yield-target
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "dmopt/dmopt.h"
#include "dmopt/retarget.h"
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

// ---------------------------------------------------------------------------
// The tau retarget search on synthetic signoff functions.

/// The step rule without a bracket: tighten by the gap, relax by 0.6 x the
/// gap, stop in band, at most kMaxRetargetProbes probes, and return the
/// last probe.  Returns the probed taus.
std::vector<double> plain_rule_taus(double start, double floor,
                                    double ceiling, double target, double tol,
                                    const std::function<double(double)>& f) {
  std::vector<double> taus;
  double tau = start;
  for (int it = 0; it < kMaxRetargetProbes; ++it) {
    taus.push_back(tau);
    const double gap = f(tau) - target;
    if (gap > tol && tau > floor) {
      tau = std::max(floor, tau - gap);
    } else if (gap < -2.0 * tol && tau < ceiling) {
      tau = std::min(ceiling, tau - 0.6 * gap);
    } else {
      break;
    }
  }
  return taus;
}

struct SearchRun {
  std::vector<double> taus;
  std::size_t pick = 0;
};

SearchRun run_search(TauRetarget& rt, const std::function<double(double)>& f) {
  SearchRun run;
  run.pick = rt.search([&](double tau) {
    run.taus.push_back(tau);
    return f(tau);
  });
  return run;
}

// Bounds shaped like AES-65 at 5 %: target 1.3929 ns, tol 1.39 ps, model
// floor 1.20 ns.
constexpr double kTarget = 1.392863;
constexpr double kFloor = 1.20;
const double kTol = retarget_tolerance_ns(kTarget);

TEST(TauRetarget, SmoothMonotoneGapsMakeThePlainRulesProbes) {
  for (const double slope : {0.3, 0.7, 1.0, 1.4, 1.9}) {
    for (const double tau_star : {1.25, 1.29, 1.33}) {
      // Monotone: a positive slope plus a cubic term.
      const auto f = [&](double tau) {
        const double d = tau - tau_star;
        return kTarget + slope * d + 4.0 * d * d * d;
      };
      const std::vector<double> want =
          plain_rule_taus(kTarget, kFloor, kTarget, kTarget, kTol, f);
      TauRetarget rt(kTarget, kFloor, kTarget, kTarget, kTol);
      const SearchRun got = run_search(rt, f);
      EXPECT_EQ(got.taus, want) << "slope " << slope << " tau* " << tau_star;
      const double last_gap = f(want.back()) - kTarget;
      if (last_gap <= kTol && last_gap >= -2.0 * kTol) {
        EXPECT_EQ(got.pick, want.size() - 1);
      }
    }
  }
}

TEST(TauRetarget, JumpWiderThanTheBandReturnsTheFeasibleEnd) {
  // The analytic quantile of AES-65 at 5 % jumps from -8.7 to +3.2 ps
  // around tau = 1.2880 ns: no tau lands in the 4.2-ps band.
  const double jump = 1.2880;
  const auto f = [&](double tau) {
    return kTarget + (tau - jump) + (tau < jump ? -8.7e-3 : 3.2e-3);
  };
  const std::vector<double> plain =
      plain_rule_taus(kTarget, kFloor, kTarget, kTarget, kTol, f);
  EXPECT_EQ(plain.size(), static_cast<std::size_t>(kMaxRetargetProbes));

  TauRetarget rt(kTarget, kFloor, kTarget, kTarget, kTol);
  const SearchRun got = run_search(rt, f);
  EXPECT_LT(got.taus.size(), plain.size());
  const TauProbe& pick = rt.probes()[got.pick];
  EXPECT_LE(pick.value_ns - kTarget, kTol);
  for (const TauProbe& p : rt.probes()) {
    if (p.value_ns - kTarget <= kTol) {
      EXPECT_LE(p.tau_ns, pick.tau_ns);
    }
  }
}

TEST(TauRetarget, NeverReturnsAnInfeasibleProbeWhileAFeasibleOneExists) {
  // Random staircases: each step of tau shifts the signoff value by a
  // random jump, up to 5x the band.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const double width = rng.uniform(2e-4, 6e-3);
    const double jump = rng.uniform(0.0, 20e-3);
    const double tau_star = rng.uniform(1.22, 1.36);
    const double slope = rng.uniform(0.2, 3.0);
    const auto f = [&](double tau) {
      const double step = std::floor((tau - tau_star) / width);
      return kTarget + slope * step * width + jump * std::sin(step);
    };
    TauRetarget rt(kTarget, kFloor, kTarget, kTarget, kTol);
    const SearchRun got = run_search(rt, f);
    ASSERT_LE(got.taus.size(), static_cast<std::size_t>(kMaxRetargetProbes));
    bool any_feasible = false;
    for (const TauProbe& p : rt.probes()) {
      EXPECT_GE(p.tau_ns, kFloor);
      EXPECT_LE(p.tau_ns, kTarget);
      any_feasible = any_feasible || p.value_ns - kTarget <= kTol;
    }
    if (any_feasible) {
      EXPECT_LE(rt.probes()[got.pick].value_ns - kTarget, kTol)
          << "seed " << seed;
    }
  }
}

TEST(TauRetarget, RejectedProbeIsNotReturnedAgain) {
  // After a rejection the target moves down and the search replays from
  // the start probe with every probe made so far.
  const auto f = [](double tau) { return kTarget + (tau - 1.29); };
  TauRetarget rt(kTarget, kFloor, kTarget, kTarget, kTol);
  const SearchRun first = run_search(rt, f);
  const std::size_t made = rt.probes().size();
  rt.reject(first.pick, kTol);
  const SearchRun second = run_search(rt, f);
  EXPECT_NE(second.pick, first.pick);
  EXPECT_FALSE(rt.probes()[second.pick].rejected);
  EXPECT_LE(rt.probes()[second.pick].value_ns - (kTarget - kTol), kTol);
  EXPECT_LT(rt.probes()[second.pick].tau_ns, rt.probes()[first.pick].tau_ns);
  // The start probe is replayed, not measured again.
  EXPECT_EQ(rt.probes().size(), made + second.taus.size());
  for (const double tau : second.taus) EXPECT_NE(tau, kTarget);
}

// ---------------------------------------------------------------------------
// Leakage mode on inputs where the plain step rule oscillated to its cap
// and ended above the bound (+7.7 and +32.8 ps).

void expect_bound_kept(const gen::DesignSpec& spec, double grid_um,
                       double delta) {
  flow::DesignContext ctx(spec);
  DmoptOptions options;
  options.grid_um = grid_um;
  options.smoothness_delta = delta;
  DoseMapOptimizer opt(&ctx.netlist(), &ctx.placement(), &ctx.parasitics(),
                       &ctx.repo(), &ctx.coefficients(false), &ctx.timer(),
                       &ctx.nominal_timing(), options);
  const DmoptResult r = opt.minimize_leakage();
  const double nominal = ctx.nominal_mct_ns();
  EXPECT_LE(r.golden_mct_ns, nominal + retarget_tolerance_ns(nominal));
  EXPECT_LT(r.bisection_probes, kMaxRetargetProbes);
  EXPECT_LT(r.golden_leakage_uw, ctx.nominal_leakage_uw());
}

TEST(DmoptRetarget, Aes65LeakageModeKeepsItsTimingBound) {
  expect_bound_kept(gen::aes65_spec().scaled(0.10), 12.5, 1.0);
}

TEST(DmoptRetarget, Jpeg65LeakageModeKeepsItsTimingBound) {
  expect_bound_kept(gen::jpeg65_spec().scaled(0.028), 15.0, 1.0);
}

TEST(DmoptYieldTarget, MeetsTheTargetAcrossVariationSeeds) {
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.05));
  for (const std::uint64_t seed : {1, 2, 3}) {
    DmoptOptions options;
    options.grid_um = 10.0;
    options.yield_target = 0.9;
    options.yield_variation.seed = seed;
    DoseMapOptimizer opt(&ctx.netlist(), &ctx.placement(), &ctx.parasitics(),
                         &ctx.repo(), &ctx.coefficients(false), &ctx.timer(),
                         &ctx.nominal_timing(), options);
    const DmoptResult r = opt.minimize_leakage();
    EXPECT_FALSE(r.degraded) << "seed " << seed << ": " << r.fallback;
    EXPECT_GE(r.mc_yield, options.yield_target) << "seed " << seed;
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
