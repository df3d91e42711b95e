// Tests for block-based SSTA (src/ssta): canonical-form algebra, the
// tightness-probability max operator, and cross-validation of the analytic
// endpoint/MCT distributions against the golden Monte-Carlo sampler.
//
// Validation discipline:
//   * property tests on form_max (commutativity, associativity tolerance,
//     dominance) and on yield_at/tau_at_yield (monotonicity, round-trip);
//   * EXACT (bitwise) agreement with the scalar Timer when every
//     sensitivity is zero -- the degenerate max must reproduce std::max's
//     fold order;
//   * per-endpoint mean/sigma agreement against a 10k-sample Monte-Carlo
//     that snaps each sampled delta-L to the 1 nm variant grid, exactly
//     like variation::YieldAnalyzer (the SSTA residual folds the matching
//     quantization sigma);
//   * the endpoint panel's quantiles of a single Gaussian form against
//     mean + sigma * Phi^-1(p), within sampling error;
//   * bitwise determinism of the level-scheduled propagation and pooled
//     panel under 1/2/4/8-lane pools and when as many SstaTimers analyze
//     concurrently (AES, chain and random reconvergent netlists), and of
//     the endpoint panel under 1/2/4-lane pools, pinned by checksum.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flow/context.h"
#include "liberty/coeff_fit.h"
#include "liberty/repository.h"
#include "ssta/ssta.h"
#include "sta/timer.h"
#include "test_helpers.h"
#include "variation/yield.h"

namespace doseopt::ssta {
namespace {

CanonicalForm make_form(double mean, std::array<double, kSources> a,
                        double r) {
  CanonicalForm f;
  f.mean = mean;
  f.a = a;
  f.r = r;
  return f;
}

CanonicalForm random_form(Rng& rng, double mean_scale = 1.0) {
  CanonicalForm f;
  f.mean = rng.normal(0.5, 0.3) * mean_scale;
  for (double& ak : f.a) ak = rng.normal(0.0, 0.02);
  f.r = std::fabs(rng.normal(0.0, 0.02));
  return f;
}

// Monte-Carlo moments of max(x, y, ...) under the shared-source model, the
// ground truth the Clark operator approximates.
struct Moments {
  double mean = 0.0;
  double sigma = 0.0;
};

Moments mc_max_moments(const std::vector<CanonicalForm>& forms, int samples,
                       std::uint64_t seed) {
  // Union of per-cell residual supports: one shared Z per distinct cell.
  std::map<std::uint32_t, double> z;
  for (const CanonicalForm& f : forms)
    for (const ResidualTerm& t : f.rc) z[t.cell] = 0.0;

  Rng rng(seed);
  double sum = 0.0, sq = 0.0;
  for (int s = 0; s < samples; ++s) {
    std::array<double, kSources> x;
    for (double& v : x) v = rng.normal();
    for (auto& [cell, draw] : z) draw = rng.normal();
    double worst = -1e300;
    for (const CanonicalForm& f : forms) {
      double d = f.mean + f.r * rng.normal();
      for (int k = 0; k < kSources; ++k) d += f.a[k] * x[k];
      for (const ResidualTerm& t : f.rc) d += t.coef * z[t.cell];
      worst = std::max(worst, d);
    }
    sum += worst;
    sq += worst * worst;
  }
  Moments m;
  m.mean = sum / samples;
  m.sigma = std::sqrt(std::max(0.0, sq / samples - m.mean * m.mean));
  return m;
}

// --- canonical-form algebra ------------------------------------------------

TEST(CanonicalFormTest, AddIsExact) {
  const CanonicalForm x = make_form(1.0, {0.1, -0.2, 0.0, 0.3, 0.0}, 0.05);
  const CanonicalForm y = make_form(0.5, {0.2, 0.1, -0.1, 0.0, 0.4}, 0.12);
  const CanonicalForm s = form_add(x, y);
  EXPECT_EQ(s.mean, 1.5);
  for (int k = 0; k < kSources; ++k) EXPECT_EQ(s.a[k], x.a[k] + y.a[k]);
  EXPECT_EQ(s.r, std::hypot(0.05, 0.12));
  // Variance of a sum of jointly-Gaussian forms: (a_x + a_y)^2 + rx^2+ry^2.
  EXPECT_NEAR(s.variance(),
              x.variance() + y.variance() +
                  2.0 * (0.1 * 0.2 - 0.2 * 0.1 + 0.0 + 0.0 + 0.0),
              1e-15);
}

TEST(CanonicalFormTest, ShiftMovesOnlyTheMean) {
  const CanonicalForm x = make_form(1.0, {0.1, 0.0, 0.0, 0.0, 0.0}, 0.3);
  const CanonicalForm s = form_shift(x, 0.25);
  EXPECT_EQ(s.mean, 1.25);
  EXPECT_EQ(s.a, x.a);
  EXPECT_EQ(s.r, x.r);
}

TEST(MaxOperatorTest, DegenerateMaxIsExactAndFirstWinsTies) {
  // Zero-variance difference: both deterministic.
  const CanonicalForm lo = make_form(1.0, {}, 0.0);
  const CanonicalForm hi = make_form(2.0, {}, 0.0);
  EXPECT_EQ(form_max(lo, hi).mean, 2.0);
  EXPECT_EQ(form_max(hi, lo).mean, 2.0);

  // Perfectly correlated operands (same sensitivities, no residual): the
  // difference is deterministic even though each operand is random.
  const std::array<double, kSources> a = {0.1, 0.2, 0.0, -0.1, 0.05};
  const CanonicalForm x = make_form(1.5, a, 0.0);
  const CanonicalForm y = make_form(1.2, a, 0.0);
  const CanonicalForm m = form_max(x, y);
  EXPECT_EQ(m.mean, x.mean);
  EXPECT_EQ(m.a, x.a);

  // Ties keep the FIRST argument (std::max semantics), so the scalar fold
  // order is reproduced bit-for-bit in the all-deterministic case.
  CanonicalForm t1 = make_form(1.0, {}, 0.0);
  CanonicalForm t2 = make_form(1.0, {}, 0.0);
  t1.a[0] = 0.0;  // distinguishable only by identity
  const CanonicalForm tied = form_max(t1, t2);
  EXPECT_EQ(tied.mean, 1.0);
}

TEST(MaxOperatorTest, CommutativeWithinRoundoff) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const CanonicalForm x = random_form(rng);
    const CanonicalForm y = random_form(rng);
    const CanonicalForm xy = form_max(x, y);
    const CanonicalForm yx = form_max(y, x);
    EXPECT_NEAR(xy.mean, yx.mean, 1e-12) << "trial " << trial;
    EXPECT_NEAR(xy.variance(), yx.variance(), 1e-12) << "trial " << trial;
    for (int k = 0; k < kSources; ++k)
      EXPECT_NEAR(xy.a[k], yx.a[k], 1e-12) << "trial " << trial;
  }
}

TEST(MaxOperatorTest, AssociativeWithinClarkTolerance) {
  // Clark's operator is not exactly associative -- the moment-matched
  // Gaussian loses the skew of the pairwise max.  The discrepancy must
  // stay a small fraction of the distribution sigma.
  Rng rng(7);
  double worst_mean = 0.0, worst_sigma = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    const CanonicalForm x = random_form(rng);
    const CanonicalForm y = random_form(rng);
    const CanonicalForm z = random_form(rng);
    const CanonicalForm l = form_max(form_max(x, y), z);
    const CanonicalForm r = form_max(x, form_max(y, z));
    const double s = std::max({l.sigma(), r.sigma(), 1e-9});
    worst_mean = std::max(worst_mean, std::fabs(l.mean - r.mean) / s);
    worst_sigma = std::max(worst_sigma, std::fabs(l.sigma() - r.sigma()) / s);
  }
  EXPECT_LT(worst_mean, 0.12);
  EXPECT_LT(worst_sigma, 0.12);
}

TEST(MaxOperatorTest, MatchesMonteCarloMoments) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const CanonicalForm x = random_form(rng);
    const CanonicalForm y = random_form(rng);
    const CanonicalForm m = form_max(x, y);
    const Moments mc = mc_max_moments({x, y}, 200000, 1000 + trial);
    const double s = std::max(m.sigma(), 1e-6);
    EXPECT_NEAR(m.mean, mc.mean, 0.02 * s + 5e-4) << "trial " << trial;
    EXPECT_NEAR(m.sigma(), mc.sigma, 0.05 * s + 5e-4) << "trial " << trial;
  }
}

TEST(MaxOperatorTest, DominatesOperandMeans) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const CanonicalForm x = random_form(rng);
    const CanonicalForm y = random_form(rng);
    const CanonicalForm m = form_max(x, y);
    // E[max(X, Y)] >= max(E[X], E[Y]) for any joint distribution.
    EXPECT_GE(m.mean, std::max(x.mean, y.mean) - 1e-12) << "trial " << trial;
    EXPECT_TRUE(m.finite());
    EXPECT_GE(m.r, 0.0);
  }
}

// --- yield_at / tau_at_yield ----------------------------------------------

TEST(YieldCurveTest, QuantileInvertsCdf) {
  for (double z = -5.0; z <= 5.0; z += 0.25)
    EXPECT_NEAR(normal_quantile(normal_cdf(z)), z, 2e-9) << "z = " << z;
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
}

TEST(YieldCurveTest, YieldMonotonicAndRoundTrips) {
  SstaResult sr;
  sr.mean_mct_ns = 1.25;
  sr.sigma_mct_ns = 0.04;

  double prev = -1.0;
  for (double tau = 1.0; tau <= 1.5; tau += 0.01) {
    const double y = sr.yield_at(tau);
    EXPECT_GE(y, prev) << "tau = " << tau;  // monotone nondecreasing
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
    prev = y;
  }

  // tau -> yield -> tau round-trip within the well-conditioned range.
  for (double tau = sr.mean_mct_ns - 3.0 * sr.sigma_mct_ns;
       tau <= sr.mean_mct_ns + 3.0 * sr.sigma_mct_ns;
       tau += 0.1 * sr.sigma_mct_ns)
    EXPECT_NEAR(sr.tau_at_yield(sr.yield_at(tau)), tau, 1e-8)
        << "tau = " << tau;

  // yield -> tau -> yield round-trip.
  for (double p = 0.01; p < 1.0; p += 0.05)
    EXPECT_NEAR(sr.yield_at(sr.tau_at_yield(p)), p, 1e-9) << "p = " << p;

  // Degenerate (deterministic) distribution: step function at the mean.
  SstaResult det;
  det.mean_mct_ns = 2.0;
  det.sigma_mct_ns = 0.0;
  EXPECT_EQ(det.yield_at(1.999), 0.0);
  EXPECT_EQ(det.yield_at(2.0), 1.0);
  EXPECT_EQ(det.tau_at_yield(0.9), 2.0);
}

TEST(YieldCurveTest, PanelQuantilesOfOneGaussianForm) {
  // One endpoint with mean >> sigma: max(0, d) = d ~ N(mean, sigma^2), so
  // the panel's p-quantile must sit within sampling error of
  // mean + sigma * Phi^-1(p).  The standard error of an iid sample
  // quantile, sqrt(p (1 - p) / n) / phi(z_p) * sigma, bounds the antithetic
  // panel's (whose symmetric sample only adds information); 4 of them.
  CanonicalForm ep = make_form(10.0, {0.02, -0.01, 0.015, 0.0, -0.02}, 0.03);
  ep.rc = {ResidualTerm{5, 0.01}, ResidualTerm{9, -0.025},
           ResidualTerm{200, 0.02}};
  double var = ep.r * ep.r;
  for (const double ak : ep.a) var += ak * ak;
  for (const ResidualTerm& t : ep.rc) var += t.coef * t.coef;
  const double sigma = std::sqrt(var);

  constexpr int kSamples = 65536;
  ThreadPool pool(2);
  SstaResult sr;
  sr.mct_samples = sample_endpoint_panel({ep}, kSamples, 7, pool);
  ASSERT_EQ(sr.mct_samples.size(), static_cast<std::size_t>(kSamples));
  ASSERT_TRUE(std::is_sorted(sr.mct_samples.begin(), sr.mct_samples.end()));

  struct Point {
    double p, z;  // z = Phi^-1(p)
  };
  for (const Point q : {Point{0.5, 0.0}, Point{0.9, 1.2815515655446004},
                        Point{0.99, 2.3263478740408408}}) {
    const double phi = std::exp(-0.5 * q.z * q.z) / std::sqrt(2.0 * M_PI);
    const double se = std::sqrt(q.p * (1.0 - q.p) / kSamples) / phi * sigma;
    EXPECT_NEAR(sr.tau_at_yield(q.p), ep.mean + sigma * q.z, 4.0 * se)
        << "p = " << q.p;
  }
}

// --- exact agreement with the scalar Timer at zero sensitivity -------------

TEST(SstaTimerTest, ZeroSensitivityIsBitwiseScalarSta) {
  testing_support::TinyDesign d = testing_support::make_chain_design(6);
  const sta::Timer timer(d.netlist.get(), &d.parasitics, d.repo.get());
  liberty::CoefficientSet coeffs(*d.repo, /*fit_width=*/false);

  variation::VariationModel model;
  model.systematic_sigma_nm = 0.0;
  model.random_sigma_nm = 0.0;
  SstaOptions opt;
  opt.quantization_sigma_nm = 0.0;

  Rng rng(3);
  for (int trial = 0; trial < 4; ++trial) {
    sta::VariantAssignment base(d.netlist->cell_count());
    if (trial > 0)  // trial 0 checks the nominal die
      for (std::size_t c = 0; c < d.netlist->cell_count(); ++c)
        base.set(static_cast<netlist::CellId>(c), rng.uniform_int(3, 17),
                 liberty::kVariantsPerLayer / 2);

    const sta::TimingResult ref = timer.analyze(base);
    for (const bool slew_coupling : {false, true}) {
      SstaOptions o = opt;
      o.slew_coupling = slew_coupling;
      const SstaTimer engine(&timer, d.placement.get(), &coeffs, model, o);
      const SstaResult sr = engine.analyze(base);

      ASSERT_TRUE(sr.healthy);
      // Every form is degenerate, so the statistical max collapses to
      // std::max and the means must equal the scalar pass bit-for-bit.
      EXPECT_EQ(sr.mean_mct_ns, ref.mct_ns)
          << "trial " << trial << " slew_coupling " << slew_coupling;
      EXPECT_EQ(sr.sigma_mct_ns, 0.0);
      EXPECT_EQ(sr.mct.r, 0.0);
      for (int k = 0; k < kSources; ++k) EXPECT_EQ(sr.mct.a[k], 0.0);

      // Endpoint means equal the concrete endpoint delays of the same die.
      const std::vector<double> delays = engine.endpoint_delays(base);
      ASSERT_EQ(sr.endpoints.size(), delays.size());
      ASSERT_EQ(sr.endpoints.size(), engine.endpoint_count());
      for (std::size_t i = 0; i < delays.size(); ++i) {
        EXPECT_EQ(sr.endpoints[i].mean, delays[i]) << "endpoint " << i;
        EXPECT_EQ(sr.endpoints[i].sigma(), 0.0) << "endpoint " << i;
      }
    }
  }
}

// --- Monte-Carlo cross-validation ------------------------------------------

struct McStats {
  std::vector<double> ep_mean, ep_sigma;  // per endpoint
  double mct_mean = 0.0, mct_sigma = 0.0;
  std::vector<double> mct;  // per die, sorted
};

/// 10k-die Monte-Carlo reference: sample the SAME delta-L fields the
/// YieldAnalyzer draws, snap them to the 1 nm variant grid exactly like
/// the batched MC does, and re-time each die.
McStats run_monte_carlo(const SstaTimer& engine,
                        const variation::YieldAnalyzer& analyzer,
                        const sta::VariantAssignment& base, int samples) {
  const std::size_t eps = engine.endpoint_count();
  McStats st;
  st.ep_mean.assign(eps, 0.0);
  st.ep_sigma.assign(eps, 0.0);
  std::vector<double> sum(eps, 0.0), sq(eps, 0.0);
  st.mct.reserve(samples);

  const std::size_t cells = base.size();
  for (int s = 0; s < samples; ++s) {
    const std::vector<double> dl =
        analyzer.sample_delta_l_nm(static_cast<std::uint64_t>(s + 1));
    sta::VariantAssignment va = base;
    for (std::size_t c = 0; c < cells; ++c) {
      const auto id = static_cast<netlist::CellId>(c);
      const auto [il, iw] = base.get(id);
      va.set(id, liberty::shifted_poly_index(il, dl[c]), iw);
    }
    const std::vector<double> delays = engine.endpoint_delays(va);
    double worst = 0.0;
    for (std::size_t i = 0; i < eps; ++i) {
      sum[i] += delays[i];
      sq[i] += delays[i] * delays[i];
      worst = std::max(worst, delays[i]);
    }
    st.mct.push_back(worst);
  }

  double msum = 0.0, msq = 0.0;
  for (const double v : st.mct) {
    msum += v;
    msq += v * v;
  }
  st.mct_mean = msum / samples;
  st.mct_sigma = std::sqrt(std::max(0.0, msq / samples -
                                             st.mct_mean * st.mct_mean));
  for (std::size_t i = 0; i < eps; ++i) {
    st.ep_mean[i] = sum[i] / samples;
    st.ep_sigma[i] = std::sqrt(
        std::max(0.0, sq[i] / samples - st.ep_mean[i] * st.ep_mean[i]));
  }
  std::sort(st.mct.begin(), st.mct.end());
  return st;
}

void cross_validate(flow::DesignContext& ctx, std::uint64_t base_seed,
                    int samples, double yield_tol = 0.05) {
  const liberty::CoefficientSet& coeffs = ctx.coefficients(false);
  variation::VariationModel model;
  const variation::YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(),
                                          &ctx.repo(), &ctx.timer(), model);

  // A randomized non-nominal base dose field (kept away from the variant
  // grid edges so the +-3 sigma sampling cone stays unclamped).
  Rng rng(base_seed);
  sta::VariantAssignment base(ctx.netlist().cell_count());
  for (std::size_t c = 0; c < base.size(); ++c)
    base.set(static_cast<netlist::CellId>(c), rng.uniform_int(7, 13),
             liberty::kVariantsPerLayer / 2);

  const SstaTimer engine(&ctx.timer(), &ctx.placement(), &coeffs, model);
  const SstaResult sr = engine.analyze(base);
  ASSERT_TRUE(sr.healthy);

  const McStats mc = run_monte_carlo(engine, analyzer, base, samples);
  ASSERT_EQ(sr.endpoints.size(), mc.ep_mean.size());

  // Per-endpoint first moments.  The mean error is second-order (NLDM
  // curvature the linear form cannot see); the sigma error is first-order
  // model mismatch plus MC sampling noise.
  for (std::size_t i = 0; i < sr.endpoints.size(); ++i) {
    const double s = std::max(mc.ep_sigma[i], 1e-6);
    EXPECT_NEAR(sr.endpoints[i].mean, mc.ep_mean[i], 0.25 * s + 1e-3)
        << "endpoint " << i << " of " << sr.endpoints.size();
    EXPECT_NEAR(sr.endpoints[i].sigma(), mc.ep_sigma[i], 0.20 * s + 5e-4)
        << "endpoint " << i << " of " << sr.endpoints.size();
  }

  // MCT distribution: mean/sigma and the yield curve itself.
  EXPECT_NEAR(sr.mean_mct_ns, mc.mct_mean, 0.25 * mc.mct_sigma + 1e-3);
  EXPECT_NEAR(sr.sigma_mct_ns, mc.mct_sigma, 0.25 * mc.mct_sigma + 5e-4);
  const int n = static_cast<int>(mc.mct.size());
  for (const double p : {0.5, 0.9, 0.95}) {
    const int k = std::min(n, std::max(1, static_cast<int>(
                                              std::ceil(p * n))));
    const double tau = mc.mct[k - 1];
    double empirical =
        static_cast<double>(std::upper_bound(mc.mct.begin(), mc.mct.end(),
                                             tau) -
                            mc.mct.begin()) /
        n;
    EXPECT_NEAR(sr.yield_at(tau), empirical, yield_tol) << "p = " << p;
  }
}

TEST(SstaTimerTest, EndpointMomentsMatchMonteCarloAes) {
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
  cross_validate(ctx, /*base_seed=*/17, /*samples=*/10000);
}

TEST(SstaTimerTest, EndpointMomentsMatchMonteCarloRandomNetlists) {
  // Distinct generator seeds give structurally different random netlists.
  // At this aggressive down-scaling there is far less path averaging than
  // on the full block, so the residual second-order linearization bias is
  // a larger fraction of sigma; the yield tolerance scales accordingly
  // (the tight 0.05 bound is enforced on the AES testcase above).
  for (const std::uint64_t seed : {21u, 22u}) {
    gen::DesignSpec spec = gen::aes65_spec().scaled(0.012);
    spec.seed = seed;
    flow::DesignContext ctx(spec);
    cross_validate(ctx, /*base_seed=*/seed + 100, /*samples=*/4000,
                   /*yield_tol=*/0.12);
  }
}

TEST(SstaTimerTest, EndpointMomentsMatchMonteCarloChain) {
  testing_support::TinyDesign d = testing_support::make_chain_design(8);
  const sta::Timer timer(d.netlist.get(), &d.parasitics, d.repo.get());
  liberty::CoefficientSet coeffs(*d.repo, /*fit_width=*/false);
  variation::VariationModel model;
  const variation::YieldAnalyzer analyzer(d.netlist.get(), d.placement.get(),
                                          d.repo.get(), &timer, model);
  sta::VariantAssignment base(d.netlist->cell_count());
  const SstaTimer engine(&timer, d.placement.get(), &coeffs, model);
  const SstaResult sr = engine.analyze(base);
  ASSERT_TRUE(sr.healthy);

  const McStats mc = run_monte_carlo(engine, analyzer, base, 10000);
  ASSERT_EQ(sr.endpoints.size(), mc.ep_mean.size());
  for (std::size_t i = 0; i < sr.endpoints.size(); ++i) {
    const double s = std::max(mc.ep_sigma[i], 1e-6);
    EXPECT_NEAR(sr.endpoints[i].mean, mc.ep_mean[i], 0.25 * s + 1e-3)
        << "endpoint " << i;
    EXPECT_NEAR(sr.endpoints[i].sigma(), mc.ep_sigma[i], 0.20 * s + 5e-4)
        << "endpoint " << i;
  }
  EXPECT_NEAR(sr.mean_mct_ns, mc.mct_mean, 0.25 * mc.mct_sigma + 1e-3);
  EXPECT_NEAR(sr.sigma_mct_ns, mc.mct_sigma, 0.25 * mc.mct_sigma + 5e-4);
}

// --- thread determinism ----------------------------------------------------

void expect_same_result(const SstaResult& a, const SstaResult& b) {
  EXPECT_EQ(a.mean_mct_ns, b.mean_mct_ns);
  EXPECT_EQ(a.sigma_mct_ns, b.sigma_mct_ns);
  EXPECT_EQ(a.mct.r, b.mct.r);
  EXPECT_EQ(a.mct.a, b.mct.a);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    ASSERT_EQ(a.endpoints[i].mean, b.endpoints[i].mean) << "endpoint " << i;
    ASSERT_EQ(a.endpoints[i].r, b.endpoints[i].r) << "endpoint " << i;
    ASSERT_EQ(a.endpoints[i].a, b.endpoints[i].a) << "endpoint " << i;
  }
  // The panel samples behind yield_at/tau_at_yield must be bitwise stable
  // too, or served yield numbers would drift between replicas.
  EXPECT_TRUE(a.mct_samples == b.mct_samples);
}

/// Every lane count must reproduce the one-lane reference bit for bit,
/// both as a pool behind one SstaTimer (level-parallel form propagation and
/// pooled panel) and as concurrent SstaTimers sharing the process pool (the
/// documented one-SstaTimer-per-lane contract).
void expect_deterministic_across_lanes(const sta::Timer& timer,
                                       const place::Placement& placement,
                                       const liberty::CoefficientSet& coeffs,
                                       const sta::VariantAssignment& base) {
  const variation::VariationModel model;
  const SstaTimer reference(&timer, &placement, &coeffs, model);
  ThreadPool serial(1);
  const SstaResult ref = reference.analyze(base, &serial);
  ASSERT_TRUE(ref.healthy);

  for (const int lanes : {1, 2, 4, 8}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ThreadPool pool(lanes);
    expect_same_result(ref, reference.analyze(base, &pool));

    std::vector<SstaResult> results(lanes);
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (int t = 0; t < lanes; ++t)
      threads.emplace_back([&, t] {
        const SstaTimer lane(&timer, &placement, &coeffs, model);
        results[t] = lane.analyze(base);
      });
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < lanes; ++t) {
      SCOPED_TRACE("concurrent timer " + std::to_string(t));
      expect_same_result(ref, results[t]);
    }
  }
}

TEST(SstaTimerTest, BitwiseDeterministicAcrossThreadCounts) {
  {
    SCOPED_TRACE("aes65 2 %");
    flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
    expect_deterministic_across_lanes(
        ctx.timer(), ctx.placement(), ctx.coefficients(false),
        sta::VariantAssignment(ctx.netlist().cell_count()));
  }
  {
    // One cell per level: every level propagates inline.
    SCOPED_TRACE("chain");
    testing_support::TinyDesign d = testing_support::make_chain_design(8);
    const sta::Timer timer(d.netlist.get(), &d.parasitics, d.repo.get());
    const liberty::CoefficientSet coeffs(*d.repo, /*fit_width=*/false);
    expect_deterministic_across_lanes(
        timer, *d.placement, coeffs,
        sta::VariantAssignment(d.netlist->cell_count()));
  }
  for (const std::uint64_t seed : {21u, 22u}) {
    // Random reconvergent netlists around a randomized base assignment.
    SCOPED_TRACE("random netlist seed " + std::to_string(seed));
    gen::DesignSpec spec = gen::aes65_spec().scaled(0.012);
    spec.seed = seed;
    flow::DesignContext ctx(spec);
    Rng rng(seed + 100);
    sta::VariantAssignment base(ctx.netlist().cell_count());
    for (std::size_t c = 0; c < base.size(); ++c)
      base.set(static_cast<netlist::CellId>(c), rng.uniform_int(7, 13),
               liberty::kVariantsPerLayer / 2);
    expect_deterministic_across_lanes(ctx.timer(), ctx.placement(),
                                      ctx.coefficients(false), base);
  }
}


std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(SstaTimerTest, EndpointPanelBitIdenticalAcrossPools) {
  // The panel runs in fixed chunks of antithetic pairs on a pool, each
  // chunk drawing from its own stream seeded from (seed, chunk index).  The
  // checksums pin the samples, and every pool must reproduce them
  // bit-for-bit.  1 sample is an odd count; 33 gives a partial last block.
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
  const liberty::CoefficientSet& coeffs = ctx.coefficients(false);
  variation::VariationModel model;
  sta::VariantAssignment base(ctx.netlist().cell_count());

  struct Case {
    int samples;
    std::uint64_t checksum;
  };
  for (const Case c : {Case{1, 0x668E02CA63FF0142ULL},
                       Case{33, 0x2416E76FB205A743ULL},
                       Case{32768, 0x1A2DA8E53995DE1AULL}}) {
    SCOPED_TRACE("yield_samples=" + std::to_string(c.samples));
    SstaOptions opt;
    opt.yield_samples = c.samples;
    const SstaTimer engine(&ctx.timer(), &ctx.placement(), &coeffs, model,
                           opt);
    ThreadPool serial(1);
    const SstaResult ref = engine.analyze(base, &serial);
    ASSERT_TRUE(ref.healthy);
    ASSERT_EQ(ref.mct_samples.size(),
              2 * ((static_cast<std::size_t>(c.samples) + 1) / 2));
    testing_support::Fnv1a h;
    for (const double x : ref.mct_samples) h.add(x);
    EXPECT_EQ(h.value(), c.checksum);

    for (const int lanes : {2, 4}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      ThreadPool pool(lanes);
      const SstaResult r = engine.analyze(base, &pool);
      ASSERT_TRUE(r.healthy);
      ASSERT_EQ(r.mct_samples.size(), ref.mct_samples.size());
      for (std::size_t i = 0; i < r.mct_samples.size(); ++i)
        ASSERT_EQ(bits(r.mct_samples[i]), bits(ref.mct_samples[i]))
            << "sample " << i;
      EXPECT_EQ(bits(r.mean_mct_ns), bits(ref.mean_mct_ns));
      EXPECT_EQ(bits(r.sigma_mct_ns), bits(ref.sigma_mct_ns));
      for (const double p : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(bits(r.tau_at_yield(p)), bits(ref.tau_at_yield(p)));
        EXPECT_EQ(bits(r.yield_at(ref.tau_at_yield(p))),
                  bits(ref.yield_at(ref.tau_at_yield(p))));
      }
    }
  }
}

}  // namespace
}  // namespace doseopt::ssta
