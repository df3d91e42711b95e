// Timing-yield analysis under CD variation.
//
// The paper's title metric is "timing yield": the fraction of manufactured
// dies that meet a target clock period.  Dose-map optimization shifts the
// *systematic* component of each cell's gate-length distribution; what
// remains is residual variation -- ACLV left after DoseMapper correction
// (spatially correlated across the die) plus local random variation.
//
// This module samples that residual on top of a dose-map assignment and
// estimates the MCT distribution and the yield at a target period, using
// the same golden STA and characterized variant libraries as the rest of
// the flow.  The spatially correlated component is modeled as a smooth
// low-frequency field over the die (quadratic in x/y with random
// coefficients, the classic ACLV signature); the random component is
// i.i.d. per cell.  Both are snapped to the characterized 1 nm CD steps.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dose/dose_map.h"
#include "sta/timer.h"

namespace doseopt::variation {

/// Number of shared systematic variation sources: the random coefficients
/// of the low-order ACLV polynomial field.  The Monte-Carlo sampler draws
/// one standard normal per source per die; the SSTA engine carries one
/// first-order sensitivity per source per delay form.  Both views of a
/// die's variation are parameterized by exactly these sources (plus the
/// i.i.d. per-cell random residual), which is what makes the analytic
/// distribution directly comparable to the sampled one.
inline constexpr int kSystematicSources = 5;

/// RMS of the systematic polynomial basis over the unit die with N(0,1)
/// coefficients: sqrt(1/3 + 1/3 + 4/45 + 4/45 + 1/9) ~ 0.977.  The field
/// is scaled by systematic_sigma_nm / kSystematicBasisRms so its die-RMS
/// equals systematic_sigma_nm.
inline constexpr double kSystematicBasisRms = 0.977;

/// The systematic basis functions at normalized die coordinates (u, v) in
/// [-1, 1], in the order the sampler draws their coefficients:
///   f(u, v) = a u + b v + c (u^2 - 1/3) + d (v^2 - 1/3) + e u v.
inline std::array<double, kSystematicSources> systematic_basis(double u,
                                                               double v) {
  return {u, v, u * u - 1.0 / 3.0, v * v - 1.0 / 3.0, u * v};
}

/// Residual CD-variation model parameters.
struct VariationModel {
  double systematic_sigma_nm = 1.5;  ///< amplitude of the correlated field
  double random_sigma_nm = 0.8;      ///< per-cell random CD sigma
  int monte_carlo_samples = 200;
  std::uint64_t seed = 12345;
  /// Dies timed per batched-STA traversal (1..sta::kBatchLanes).  Any width
  /// produces bit-identical dies -- every lane is bitwise-equal to a scalar
  /// pass -- so this is a pure throughput knob.
  int sta_batch_width = sta::kBatchLanes;
};

/// Per-source field amplitude implied by the model (nm per unit of basis).
inline double systematic_scale(const VariationModel& model) {
  return model.systematic_sigma_nm / kSystematicBasisRms;
}

/// Normalized die coordinates (u, v) in [-1, 1] per cell -- the argument of
/// systematic_basis().  Invariant across dies; shared by the Monte-Carlo
/// sampler and the SSTA sensitivity builder.
std::vector<std::pair<double, double>> normalized_die_uv(
    const netlist::Netlist& nl, const place::Placement& placement);

/// One sampled die's analysis.
struct DieSample {
  double mct_ns = 0.0;
  double leakage_uw = 0.0;
};

/// Monte-Carlo yield analysis result.
struct YieldResult {
  std::vector<DieSample> dies;   ///< per-sample results, unsorted
  double mean_mct_ns = 0.0;
  double std_mct_ns = 0.0;
  double p95_mct_ns = 0.0;       ///< 95th-percentile MCT
  double mean_leakage_uw = 0.0;
  /// Dies the batched path flagged unhealthy (lane_ok == false, e.g. under
  /// `sta.batch_nan` fault injection) and transparently re-timed through
  /// the scalar engine.  0 in a fault-free run.
  int scalar_fallback_dies = 0;

  /// Fraction of dies with MCT <= clock.
  double yield_at(double clock_ns) const;
};

/// The analyzer: bound to a placed, timed design.
class YieldAnalyzer {
 public:
  YieldAnalyzer(const netlist::Netlist* nl, const place::Placement* placement,
                liberty::LibraryRepository* repo, const sta::Timer* timer,
                VariationModel model);

  /// Sample `model.monte_carlo_samples` dies around the nominal assignment
  /// `base` (e.g. the output of DMopt) and analyze each with golden STA.
  /// Dies are packed into batches of `model.sta_batch_width` and each batch
  /// is timed in ONE structure-of-arrays traversal (sta::BatchedTimer);
  /// batches fan out over `pool` (nullptr = the process pool).  Per-die
  /// seeds are drawn serially and each die is a pure function of its seed,
  /// so the output is bit-identical for any thread count and any batch
  /// width -- and bit-identical to analyze_scalar().  A die whose lane
  /// fails the batched engine's health validation is re-timed through the
  /// scalar path (counted in YieldResult::scalar_fallback_dies).
  YieldResult analyze(const sta::VariantAssignment& base,
                      ThreadPool* pool = nullptr) const;

  /// The scalar reference path: one incremental STA pass per die off a
  /// persistent per-worker TimingState.  Kept as the measured baseline for
  /// the batched engine (bench_yield reports both) and as the degradation
  /// target when a batch lane is poisoned.
  YieldResult analyze_scalar(const sta::VariantAssignment& base,
                             ThreadPool* pool = nullptr) const;

  /// One sampled per-cell delta-L field (nm), for tests/visualization.
  std::vector<double> sample_delta_l_nm(std::uint64_t sample_seed) const;

 private:
  /// Normalized die coordinates (u, v) in [-1, 1] per cell -- invariant
  /// across dies, computed once per analyze() and shared by every sample.
  std::vector<std::pair<double, double>> die_uv() const;

  /// Sample one die's delta-L field into a caller-provided buffer (resized
  /// to cell_count) with a caller-provided normal sampler, so a worker lane
  /// reuses both across dies; bitwise-identical to sample_delta_l_nm().
  void sample_delta_l_into(std::uint64_t sample_seed,
                           const std::vector<std::pair<double, double>>& uv,
                           std::vector<double>& out,
                           PolarSampler& sampler) const;

  std::vector<std::uint64_t> die_seeds(std::size_t samples) const;
  void warm_repo(const sta::VariantAssignment& base, ThreadPool& p) const;

  const netlist::Netlist* nl_;
  const place::Placement* placement_;
  liberty::LibraryRepository* repo_;
  const sta::Timer* timer_;
  VariationModel model_;
};

}  // namespace doseopt::variation
