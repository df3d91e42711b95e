// Design-aware dose map optimization (DMopt) -- the paper's core
// contribution (Section III).
//
// Given a placed, timed design, partition the exposure field into an M x N
// grid and choose a per-grid dose delta on the poly layer (and optionally
// the active layer) to either
//
//   * QP:  minimize the change in total leakage power subject to a cycle-
//     time bound (linear timing constraints, quadratic objective), or
//   * QCP: minimize the cycle time subject to a leakage budget (solved as a
//     bisection over the cycle-time bound, each probe being one QP).
//
// Both respect the equipment constraints: per-grid dose correction range
// (eq. (3)/(8)) and neighbor smoothness (eq. (4)/(9)).
//
// Solver strategy: the paper writes the timing constraints with explicit
// per-node arrival-time variables (eq. (5)/(10)) and hands the program to
// CPLEX.  We solve the *projection of that system onto the dose variables*:
// the arrival constraints are equivalent to one linear constraint per
// launch-to-capture path, and violated path constraints are generated
// lazily (Kelley cutting planes) from fast model-timing passes.  The two
// formulations have identical optima; the dose-space form keeps the ADMM
// inner solver well conditioned independent of logic depth.
//
// After solving, per-grid doses are snapped to the characterized library
// variants (the paper's "rounding step"), the netlist's variant assignment
// is updated, and golden STA / leakage analysis evaluate the result.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "dmopt/incremental_problem.h"
#include "dmopt/retarget.h"
#include "dose/dose_map.h"
#include "liberty/coeff_fit.h"
#include "qp/qp_solver.h"
#include "sta/timer.h"
#include "variation/yield.h"

namespace doseopt::dmopt {

/// Optimization controls.
struct DmoptOptions {
  double grid_um = 5.0;            ///< G: max grid side (um)
  double smoothness_delta = 2.0;   ///< delta: max neighbor dose difference (%)
  double dose_lower_pct = -5.0;    ///< L (eq. (3))
  double dose_upper_pct = 5.0;     ///< U (eq. (3))
  bool modulate_width = false;     ///< also optimize the active layer
  /// Incremental cutting-plane solve path: static constraint rows built
  /// once, cut rows appended, QP scaling/dual warm-started across rounds
  /// and bisection probes.  false forces the historical per-round rebuild
  /// + cold solve (A/B reference); golden results are bit-identical either
  /// way (doses agree to solver tolerance and are snapped to characterized
  /// variants before signoff).
  bool incremental = true;
  /// Yield-percentile constraint mode (0 = off).  When set in (0, 1),
  /// minimize_leakage constrains the SSTA tau_at_yield(yield_target) --
  /// not the nominal golden MCT -- at the timing bound: the cutting-plane
  /// loop retargets the model tau by the analytic yield gap, and the
  /// accepted recipe is verified against golden Monte-Carlo re-timing with
  /// up to three calibrated rollbacks when the sampled yield misses the
  /// target (then flagged degraded, fallback = "yield_target_missed").
  double yield_target = 0.0;
  /// Variation model shared by the SSTA forms and the MC verifier.
  variation::VariationModel yield_variation;
};

/// Cutting-plane telemetry aggregated over every round and bisection
/// probe of one optimization run; surfaced through flow results and the
/// server metrics endpoint.
struct CutTelemetry {
  int total_rounds = 0;
  int total_admm_iterations = 0;
  std::size_t total_cuts = 0;     ///< violated paths added as rows
  std::uint64_t assembly_ns = 0;  ///< problem build/append + tau retarget
  std::uint64_t solve_ns = 0;     ///< ADMM solves
  std::uint64_t extract_ns = 0;   ///< violated-path extraction
  /// Warm incremental solves that failed acceptance (divergence / KKT
  /// rejection) and recovered through the cold re-solve ladder.
  int qp_cold_fallbacks = 0;
};

/// Result of one optimization run.
struct DmoptResult {
  dose::DoseMap poly_map;                    ///< optimized poly dose map
  std::optional<dose::DoseMap> active_map;   ///< present when width modulated

  // Fitted-model view (what the optimizer saw).
  double model_mct_ns = 0.0;
  double model_delta_leakage_uw = 0.0;

  // Golden signoff view after snapping doses to characterized variants.
  sta::VariantAssignment variants{0};
  double golden_mct_ns = 0.0;
  double golden_leakage_uw = 0.0;

  qp::QpStatus solver_status = qp::QpStatus::kMaxIterations;
  int total_qp_iterations = 0;
  int bisection_probes = 0;
  /// SSTA analyses the yield-target loop ran (0 elsewhere); fewer than the
  /// probes when probes revisit an already analyzed assignment.
  int ssta_analyses = 0;
  double runtime_s = 0.0;
  CutTelemetry telemetry;  ///< cutting-plane counters, summed over rounds

  /// Degraded-mode bookkeeping.  `degraded` marks a result produced by a
  /// fallback ladder rather than the requested formulation; `fallback`
  /// names the ladder ("qcp_to_qp"), and for that ladder
  /// `leakage_slack_uw` reports how far the fallback's golden leakage sits
  /// above the leakage budget the infeasible QCP asked for (<= 0 when the
  /// budget happens to be met anyway).
  bool degraded = false;
  std::string fallback;
  double leakage_slack_uw = 0.0;

  // Yield-percentile mode bookkeeping (meaningful when yield_target > 0).
  double yield_target = 0.0;   ///< requested percentile p
  double yield_tau_ns = 0.0;   ///< tau the yields below are evaluated at
  double ssta_yield = 0.0;     ///< analytic P(MCT <= tau) of the recipe
  double mc_yield = 0.0;       ///< golden Monte-Carlo yield of the recipe
  int yield_rollbacks = 0;     ///< MC-triggered re-entered searches
};

/// One timing-graph edge with its dose-independent delay contribution
/// (nominal gate delay of `to` plus wire delay from `from` to `to`).
struct CellTimingEdgeData {
  netlist::CellId to;    ///< consuming cell (owns the gate delay)
  netlist::CellId from;  ///< driving cell, kNoCell for a PI / clock launch
  double base_delay_ns;
};

/// The optimizer: bound to one analyzed design.
class DoseMapOptimizer {
 public:
  /// `nominal_timing` must be an analyze() result at the all-nominal variant
  /// assignment; per-instance slews/loads from it select the fitted delay
  /// coefficients (Section IV-B).
  DoseMapOptimizer(const netlist::Netlist* nl,
                   const place::Placement* placement,
                   const extract::Parasitics* parasitics,
                   liberty::LibraryRepository* repo,
                   const liberty::CoefficientSet* coeffs,
                   const sta::Timer* timer,
                   const sta::TimingResult* nominal_timing,
                   DmoptOptions options);

  /// QP: minimize delta leakage subject to model MCT <= `timing_bound_ns`.
  /// Pass 0 to bound at the nominal MCT -- "no timing degradation".
  DmoptResult minimize_leakage(double timing_bound_ns = 0.0);

  /// QCP: minimize cycle time subject to delta leakage <=
  /// `leakage_budget_uw` (0 = no leakage increase, the paper's headline
  /// setting).
  DmoptResult minimize_cycle_time(double leakage_budget_uw = 0.0);

  /// Model MCT (longest path under fitted linear delays) for a uniform dose
  /// on the poly/active layers; used for bisection bounds and diagnostics.
  double model_mct_uniform(double dose_poly_pct, double dose_active_pct) const;

  const DmoptOptions& options() const { return options_; }
  std::size_t grid_count() const { return poly_template_.grid_count(); }

 private:
  /// Working set shared across cutting-plane rounds and bisection probes.
  /// Also carries the incremental assembly + QP warm state so the matrix,
  /// scaling, and dual survive tau retargets (the bisection reuses every
  /// row it has already paid for).
  struct WorkingSet {
    std::vector<PathConstraint> paths;
    std::unordered_set<std::uint64_t> seen;
    std::unique_ptr<IncrementalProblem> problem;
    std::size_t paths_assembled = 0;  ///< rows already appended to problem
    qp::QpWarmState qp_state;
  };

  /// One leakage-QP solve at a fixed timing bound.
  struct SolveOutcome {
    la::Vec poly;    ///< per-grid poly doses (%)
    la::Vec active;  ///< per-grid active doses (%); zero when not modulated
    double objective_nw = 0.0;  ///< model delta leakage
    bool feasible = false;      ///< all path constraints satisfied
    qp::QpStatus status = qp::QpStatus::kMaxIterations;
    int qp_iterations = 0;
  };

  double cell_delay_delta(std::size_t cell, const la::Vec& poly,
                          const la::Vec& active) const;
  void model_arrivals(const la::Vec& poly, const la::Vec& active,
                      la::Vec& arrival) const;
  double model_mct(const la::Vec& poly, const la::Vec& active) const;
  std::vector<PathConstraint> extract_violated_paths(const la::Vec& poly,
                                                     const la::Vec& active,
                                                     double tau,
                                                     std::size_t max_paths)
      const;
  double path_base_delay(const PathConstraint& pc) const;
  /// Fresh IncrementalProblem for the current configuration (static rows
  /// materialized, no path rows yet).
  std::unique_ptr<IncrementalProblem> make_problem() const;
  /// One cutting-plane solve; counters accumulate into telemetry_.
  SolveOutcome solve_leakage_qp(double tau, WorkingSet& working_set);
  sta::VariantAssignment snap_variants(const SolveOutcome& outcome) const;
  void golden_eval(const SolveOutcome& outcome, double* mct_ns,
                   double* leakage_uw) const;
  DmoptResult finalize(const SolveOutcome& outcome, int probes) const;
  /// Retarget search toward `tau_target`, between the largest-uniform-dose
  /// model MCT and the bound itself.
  TauRetarget make_retarget(double tau_target) const;
  /// minimize_leakage with options_.yield_target > 0: SSTA-retargeted
  /// cutting-plane loop + golden MC verification/rollback.
  DmoptResult minimize_leakage_yield(double timing_bound_ns);

  const netlist::Netlist* nl_;
  const place::Placement* placement_;
  const extract::Parasitics* parasitics_;
  liberty::LibraryRepository* repo_;
  const liberty::CoefficientSet* coeffs_;
  const sta::Timer* timer_;
  const sta::TimingResult* nominal_timing_;
  DmoptOptions options_;
  /// Persistent incremental-STA state for golden_eval()/finalize() probes
  /// (mutable: caching only -- results are bit-identical to full analyze).
  mutable sta::TimingState golden_state_;

  double nominal_leakage_uw_ = 0.0;     ///< golden leakage at zero dose
  dose::DoseMap poly_template_;         ///< grid geometry (doses unset)
  std::vector<std::size_t> cell_grid_;  ///< flat grid index per cell
  std::vector<double> cell_a_coeff_;    ///< A_p (ns/nm) per cell
  std::vector<double> cell_b_coeff_;    ///< B_p (ns/nm) per cell
  std::vector<CellTimingEdgeData> edges_;
  std::vector<CellTimingEdgeData> endpoint_edges_;
  /// Worst endpoint-edge base delay per driving cell (0 when a cell drives
  /// no endpoint), indexed once at construction so path_base_delay avoids
  /// the O(paths x endpoint_edges) scan.
  std::vector<double> endpoint_base_by_cell_;
  std::vector<netlist::CellId> topo_order_;
  std::vector<std::vector<std::size_t>> incoming_;  ///< edge ids per cell
  CutTelemetry telemetry_;  ///< accumulated by solve_leakage_qp
};

}  // namespace doseopt::dmopt
