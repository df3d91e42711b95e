// Block-based statistical static timing analysis (SSTA).
//
// The Monte-Carlo yield path (src/variation) answers "what fraction of dies
// meets tau?" by re-timing thousands of sampled dies -- exact per die, but
// thousands of graph traversals per estimate.  This module answers the same
// question analytically in TWO traversals (one scalar base pass + one
// canonical-form pass) by propagating first-order delay forms through the
// very same levelized timing graph:
//
//   d  =  mean  +  sum_k a_k X_k  +  sum_i c_i Z_i  +  r R
//
// where the X_k are the kSystematicSources standard-normal coefficients of
// the ACLV polynomial field (the EXACT sources the Monte-Carlo sampler
// draws, see variation::systematic_basis), the Z_i are per-CELL standard
// normals (cell i's random CD variation + 1 nm variant-grid quantization,
// independent across cells but SHARED by every form that references cell
// i), and R is an independent remainder.  The sparse c_i support is what
// keeps reconvergent and sibling paths correlated through the cells they
// share -- with a single pooled residual the statistical max treats
// overlapping paths as independent, which both inflates E[max] and cancels
// the common variance (pooled, the endpoint sigmas of test_ssta's
// reconvergent netlists read ~27 % low against Monte-Carlo).  Forms prune
// their support to the largest |c_i| terms (SstaOptions::
// max_residual_terms), folding the dropped tail into R.
//
// Sums of forms are exact (means add, sensitivities add componentwise --
// shared-cell terms add linearly, remainders in quadrature).  The max of
// two forms uses the classic tightness-probability (Clark) moment-matching
// operator with the full covariance (systematic + shared-cell); a
// degenerate max (both operands deterministic or perfectly correlated)
// reduces to picking the larger mean, which is what makes SSTA collapse to
// the scalar Timer bit-for-bit when every sensitivity is zero.
//
// Cross-validation discipline: SSTA shares one parameterization with the
// golden Monte-Carlo (same basis, same scale, same per-cell sigma), so
// tests/test_ssta can assert per-endpoint mean/sigma agreement against a
// 10k-sample batched MC, and bench_ssta can chart the accuracy/speed
// frontier (BENCH_ssta.json).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "liberty/coeff_fit.h"
#include "place/placement.h"
#include "sta/timer.h"
#include "variation/yield.h"

namespace doseopt::ssta {

/// Number of shared (die-global) variation sources; see variation::
/// kSystematicSources.  Every canonical form carries one sensitivity per
/// source plus one independent residual.
inline constexpr int kSources = variation::kSystematicSources;

/// Standard normal CDF, Phi(z).
double normal_cdf(double z);

/// Standard normal quantile, Phi^-1(p); p is clamped away from {0, 1}.
double normal_quantile(double p);

/// One sparse per-cell residual term: coef * Z_cell, where Z_cell is a
/// standard normal independent across cells but shared by every form that
/// references the same cell (signed coef -- correlation bookkeeping).
struct ResidualTerm {
  std::uint32_t cell = 0;
  double coef = 0.0;
};

/// First-order canonical delay form: mean + sum_k a[k] X_k
/// + sum_i rc[i].coef Z_rc[i].cell + r R.  rc is sorted by cell id and
/// holds only nonzero coefficients; R is independent per form.
struct CanonicalForm {
  double mean = 0.0;
  std::array<double, kSources> a{};  ///< shared-source sensitivities
  std::vector<ResidualTerm> rc;      ///< per-cell residual support
  double r = 0.0;                    ///< folded independent remainder

  double variance() const {
    double v = r * r;
    for (double ak : a) v += ak * ak;
    for (const ResidualTerm& t : rc) v += t.coef * t.coef;
    return v;
  }
  double sigma() const;
  bool finite() const;
};

/// Sum of two forms (exact: shared sources and shared-cell terms add
/// componentwise, remainders add in quadrature).  Mean is computed as
/// x.mean + y.mean in that order.
CanonicalForm form_add(const CanonicalForm& x, const CanonicalForm& y);

/// Form plus a deterministic delay (wire, setup).
CanonicalForm form_shift(const CanonicalForm& x, double delta);

/// Bound the per-cell residual support to the `max_terms` largest-|coef|
/// entries, folding the dropped tail into the independent remainder r
/// (in quadrature).  Deterministic: ties keep the lower cell id.
void form_prune(CanonicalForm& x, std::size_t max_terms);

/// Tightness-probability (Clark) max.  When the variance of x - y is
/// numerically zero the operands are deterministic or perfectly
/// correlated and the exact max is whichever has the larger mean; ties
/// keep x, matching std::max's "first argument wins" so the scalar fold
/// order is reproduced exactly.
CanonicalForm form_max(const CanonicalForm& x, const CanonicalForm& y);

/// SSTA engine knobs.
struct SstaOptions {
  /// Sigma (nm) of the 1 nm variant-grid snap the Monte-Carlo reference
  /// applies to every sampled delta-L: round-to-grid error is
  /// Uniform(-0.5, 0.5) nm, sigma = sqrt(1/12).  Folded into each cell's
  /// independent residual so the analytic sigma matches what MC actually
  /// times.  Set to 0 for the idealized (unsnapped) model.
  double quantization_sigma_nm = 0.28867513459481287;
  /// Propagate first-order slew deviations alongside arrivals (gate delay
  /// responds to upstream CD variation through the input slew as well as
  /// through its own gate length).  Costs one extra form per net; buys the
  /// few-percent sigma accuracy the 1%-absolute yield target needs.
  bool slew_coupling = true;
  /// Cap on the sparse per-cell residual support carried by each form;
  /// the smallest-|coef| tail folds into the independent remainder.  The
  /// accuracy/speed knob of the engine (bench_ssta sweeps it): 0 degrades
  /// to the classic pooled-residual canonical form.
  std::size_t max_residual_terms = 64;
  /// Sample count of the endpoint-panel integration behind yield_at /
  /// tau_at_yield: the max of the endpoint FORMS (no graph traversals) is
  /// re-sampled deterministically with antithetic pairs, capturing the
  /// right-skew of the max that a single Gaussian MCT form cannot.  0
  /// falls back to the Gaussian mct-form yield curve.
  int yield_samples = 32768;
};

/// Analytic timing-yield result: the MCT distribution as a canonical form
/// plus the per-endpoint arrival-time forms (finish()-scan order: flop D
/// edges by ascending capture cell, then primary outputs).
struct SstaResult {
  CanonicalForm mct;
  std::vector<CanonicalForm> endpoints;
  /// MCT moments: from the endpoint-panel samples when they were drawn
  /// (the iterated Clark fold accumulates moment-matching bias over many
  /// correlated endpoints), else from the mct form.
  double mean_mct_ns = 0.0;
  double sigma_mct_ns = 0.0;
  /// Sorted MCT samples of the endpoint-panel integration (empty when
  /// SstaOptions::yield_samples == 0 or the result is unhealthy).
  std::vector<double> mct_samples;
  /// False when the propagated forms picked up a NaN/Inf (fault injection,
  /// corrupt tables); callers degrade to the Monte-Carlo path.
  bool healthy = true;

  /// P(MCT <= tau): the empirical CDF of the endpoint-panel samples, or
  /// the Gaussian mct-form CDF when no samples were drawn.
  double yield_at(double tau_ns) const;
  /// Smallest tau with yield_at(tau) >= p (panel quantile, or the
  /// Gaussian quantile when no samples were drawn).
  double tau_at_yield(double p) const;
};

/// Deterministic antithetic sampling of max(0, max_i d_i) over endpoint
/// forms -- the yield-curve integrator behind SstaResult::yield_at().  The
/// max of jointly-Gaussian arrivals is right-skewed, which a single
/// moment-matched Gaussian MCT form cannot represent; re-sampling the FORMS
/// (shared systematic sources + shared per-cell terms + independent
/// remainders) costs no graph traversals and nails the skew.  Endpoints
/// that cannot plausibly set the maximum (mean + 4.5 sigma below the
/// critical endpoint's 4.5-sigma lower bound) are dropped.
///
/// Returns 2 * ceil(samples / 2) sorted samples (empty for samples <= 0 or
/// no endpoints).  The pairs split into fixed chunks, each drawing polar
/// normals from its own stream seeded from (seed, chunk index), and fan out
/// over `pool`; the result is bit-identical for any lane count.
std::vector<double> sample_endpoint_panel(
    const std::vector<CanonicalForm>& endpoints, int samples,
    std::uint64_t seed, ThreadPool& pool);

/// The SSTA engine: bound to a Timer (whose CSR structure and scalar base
/// analysis it shares), a placement (die coordinates -> basis arguments),
/// and the fitted dose-sensitivity coefficients (d(delay)/dL).  Holds
/// persistent TimingStates, so one SstaTimer serves one worker lane (not
/// thread-safe); parallel consumers build one per lane -- results are
/// bit-identical for any lane count because analyze() is a pure function
/// of (base, model, options).
class SstaTimer {
 public:
  SstaTimer(const sta::Timer* timer, const place::Placement* placement,
            const liberty::CoefficientSet* coeffs,
            variation::VariationModel model, SstaOptions options = {});

  /// Propagate canonical forms around the nominal assignment `base`.
  /// Exactly one scalar base pass (incremental off the held state) plus
  /// one canonical-form traversal, level by level, with wide levels fanned
  /// out over `pool` (nullptr = the process pool); the endpoint-panel
  /// integration fans out over the same pool.  The result is bit-identical
  /// for any lane count.
  SstaResult analyze(const sta::VariantAssignment& base,
                     ThreadPool* pool = nullptr) const;

  /// Scalar endpoint delays (arrival + setup / PO wire) of one concrete
  /// die, in the same endpoint order as SstaResult::endpoints -- the
  /// Monte-Carlo cross-validation hook for per-endpoint tests.
  std::vector<double> endpoint_delays(const sta::VariantAssignment& va) const;

  /// Number of capture endpoints (flop D edges + primary outputs).
  std::size_t endpoint_count() const;

  const variation::VariationModel& model() const { return model_; }
  const SstaOptions& options() const { return options_; }

 private:
  const sta::Timer* timer_;
  const place::Placement* placement_;
  const liberty::CoefficientSet* coeffs_;
  variation::VariationModel model_;
  SstaOptions options_;

  // Persistent scalar states: base_state_ carries the analyzed base die the
  // forms linearize around; mc_state_ serves endpoint_delays() so repeated
  // MC cross-validation passes pay incremental cost.
  mutable sta::TimingState base_state_;
  mutable sta::TimingState mc_state_;

  // Level schedule of the form propagation, CSR over levels: the cells of
  // level l are level_cells_[level_ptr_[l] .. level_ptr_[l + 1]), and each
  // reads only forms written on lower levels.
  std::vector<std::size_t> level_ptr_;
  std::vector<netlist::CellId> level_cells_;
};

}  // namespace doseopt::ssta
