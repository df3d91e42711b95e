#include "dmopt/dmopt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <queue>

#include "common/error.h"
#include "faultinject/fault.h"
#include "power/leakage.h"
#include "ssta/ssta.h"
#include "variation/yield.h"

namespace doseopt::dmopt {

using netlist::CellId;
using netlist::kNoCell;
using netlist::NetId;

namespace {
constexpr double kDs = liberty::kDoseSensitivityNmPerPct;
// A path counts as violated if its model delay exceeds tau by this much.
constexpr double kPathTolNs = 2e-4;
}  // namespace

DoseMapOptimizer::DoseMapOptimizer(
    const netlist::Netlist* nl, const place::Placement* placement,
    const extract::Parasitics* parasitics, liberty::LibraryRepository* repo,
    const liberty::CoefficientSet* coeffs, const sta::Timer* timer,
    const sta::TimingResult* nominal_timing, DmoptOptions options)
    : nl_(nl), placement_(placement), parasitics_(parasitics), repo_(repo),
      coeffs_(coeffs), timer_(timer), nominal_timing_(nominal_timing),
      options_(options),
      poly_template_(placement->die().width_um, placement->die().height_um,
                     options.grid_um) {
  DOSEOPT_CHECK(nl_ && placement_ && parasitics_ && repo_ && coeffs_ &&
                    timer_ && nominal_timing_,
                "DoseMapOptimizer: null dependency");
  DOSEOPT_CHECK(nominal_timing_->cells.size() == nl_->cell_count(),
                "DoseMapOptimizer: timing result mismatch");
  DOSEOPT_CHECK(!options_.modulate_width || coeffs_->width_fitted(),
                "DoseMapOptimizer: width modulation requires width-fitted "
                "coefficients");
  DOSEOPT_CHECK(options_.dose_lower_pct <= options_.dose_upper_pct,
                "DoseMapOptimizer: crossed dose bounds");

  cell_grid_ = dose::bin_cells(poly_template_, *placement_);

  const liberty::Library& nominal = repo_->nominal();
  // Per-cell fitted delay coefficients at the analyzed slew/load point
  // ("nearest entry, or entries with interpolation" -- we interpolate).
  cell_a_coeff_.resize(nl_->cell_count());
  cell_b_coeff_.assign(nl_->cell_count(), 0.0);
  for (std::size_t c = 0; c < nl_->cell_count(); ++c) {
    const sta::CellTiming& ct = nominal_timing_->cells[c];
    const std::size_t master = nl_->cell(static_cast<CellId>(c)).master_index;
    cell_a_coeff_[c] = coeffs_->a_length(master, ct.input_slew_ns, ct.load_ff);
    if (options_.modulate_width)
      cell_b_coeff_[c] =
          coeffs_->b_width(master, ct.input_slew_ns, ct.load_ff);
  }

  // Timing edges (eq. (5)): the dose-independent delay contribution of each
  // (fanin -> cell) pair.
  for (std::size_t ci = 0; ci < nl_->cell_count(); ++ci) {
    const auto c = static_cast<CellId>(ci);
    const netlist::Cell& cell = nl_->cell(c);
    const double gate_delay = nominal_timing_->cells[ci].gate_delay_ns;
    const double pin_cap = nominal.cell(cell.master_index).input_cap_ff;

    if (cell.sequential) {
      // Launch edge: a_c >= clk->Q(c).
      edges_.push_back({c, kNoCell, gate_delay});
      // Capture endpoints: a_driver + wire + setup <= T.
      const double setup = nl_->master_of(c).setup_ns;
      std::vector<NetId> seen;
      for (NetId n : cell.input_nets) {
        if (std::find(seen.begin(), seen.end(), n) != seen.end()) continue;
        seen.push_back(n);
        const CellId drv = nl_->net(n).driver;
        if (drv == kNoCell) continue;
        endpoint_edges_.push_back(
            {kNoCell, drv, parasitics_->wire_delay_ns(n, pin_cap) + setup});
      }
      continue;
    }

    std::vector<NetId> seen;
    for (NetId n : cell.input_nets) {
      if (std::find(seen.begin(), seen.end(), n) != seen.end()) continue;
      seen.push_back(n);
      const CellId drv = nl_->net(n).driver;
      edges_.push_back(
          {c, drv, gate_delay + parasitics_->wire_delay_ns(n, pin_cap)});
    }
  }
  for (NetId n : nl_->primary_outputs()) {
    const CellId drv = nl_->net(n).driver;
    if (drv == kNoCell) continue;
    endpoint_edges_.push_back(
        {kNoCell, drv, parasitics_->wire_delay_ns(n, sta::kOutputLoadFf)});
  }
  endpoint_base_by_cell_.assign(nl_->cell_count(), 0.0);
  for (const CellTimingEdgeData& e : endpoint_edges_)
    endpoint_base_by_cell_[e.from] =
        std::max(endpoint_base_by_cell_[e.from], e.base_delay_ns);

  // Nominal golden leakage, the reference for delta-leakage budgets.
  {
    sta::VariantAssignment nominal_va(nl_->cell_count());
    nominal_leakage_uw_ = power::total_leakage_uw(*nl_, *repo_, nominal_va);
  }

  // Incoming-edge adjacency and topological order, reused by every model
  // timing pass.
  topo_order_ = nl_->topological_order();
  incoming_.assign(nl_->cell_count(), {});
  for (std::size_t e = 0; e < edges_.size(); ++e)
    incoming_[edges_[e].to].push_back(e);
}

double DoseMapOptimizer::cell_delay_delta(std::size_t cell,
                                          const la::Vec& poly,
                                          const la::Vec& active) const {
  const std::size_t g = cell_grid_[cell];
  double delta = cell_a_coeff_[cell] * kDs * poly[g];
  if (options_.modulate_width) delta += cell_b_coeff_[cell] * kDs * active[g];
  return delta;
}

void DoseMapOptimizer::model_arrivals(const la::Vec& poly,
                                      const la::Vec& active,
                                      la::Vec& arrival) const {
  arrival.assign(nl_->cell_count(), 0.0);
  for (CellId c : topo_order_) {
    double a = 0.0;
    const double delta = cell_delay_delta(c, poly, active);
    for (std::size_t ei : incoming_[c]) {
      const CellTimingEdgeData& e = edges_[ei];
      const double from_a = e.from == kNoCell ? 0.0 : arrival[e.from];
      a = std::max(a, from_a + e.base_delay_ns + delta);
    }
    arrival[c] = a;
  }
}

double DoseMapOptimizer::model_mct(const la::Vec& poly,
                                   const la::Vec& active) const {
  la::Vec arrival;
  model_arrivals(poly, active, arrival);
  double mct = 0.0;
  for (const CellTimingEdgeData& e : endpoint_edges_)
    mct = std::max(mct, arrival[e.from] + e.base_delay_ns);
  return mct;
}

double DoseMapOptimizer::model_mct_uniform(double dose_poly_pct,
                                           double dose_active_pct) const {
  la::Vec poly(poly_template_.grid_count(), dose_poly_pct);
  la::Vec active(poly_template_.grid_count(), dose_active_pct);
  return model_mct(poly, active);
}

std::vector<PathConstraint> DoseMapOptimizer::extract_violated_paths(
    const la::Vec& poly, const la::Vec& active, double tau,
    std::size_t max_paths) const {
  la::Vec arrival;
  model_arrivals(poly, active, arrival);

  // Best-first backward enumeration over the model graph; identical scheme
  // to sta::Timer::top_paths but with fitted linear delays.
  struct Partial {
    double bound;
    CellId cell;
    std::int32_t parent;
    bool complete;
  };
  std::vector<Partial> arena;
  using QEntry = std::pair<double, std::size_t>;
  std::priority_queue<QEntry> queue;
  auto push = [&](double bound, CellId cell, std::int32_t parent,
                  bool complete) {
    arena.push_back({bound, cell, parent, complete});
    queue.emplace(bound, arena.size() - 1);
  };
  for (const CellTimingEdgeData& e : endpoint_edges_) {
    const double bound = arrival[e.from] + e.base_delay_ns;
    if (bound > tau + kPathTolNs) push(bound, e.from, -1, false);
  }

  std::vector<PathConstraint> out;
  while (out.size() < max_paths && !queue.empty()) {
    const auto [bound, idx] = queue.top();
    queue.pop();
    if (bound <= tau + kPathTolNs) break;
    const Partial part = arena[idx];
    const netlist::Cell& cell = nl_->cell(part.cell);

    if (part.complete || cell.sequential) {
      // Complete path: unwind the chain.  The arena root is the endpoint
      // driver, so the unwound order is launch side first.
      PathConstraint pc;
      for (std::int32_t i = static_cast<std::int32_t>(idx); i >= 0;
           i = arena[static_cast<std::size_t>(i)].parent)
        pc.cells.push_back(arena[static_cast<std::size_t>(i)].cell);
      out.push_back(std::move(pc));
      continue;
    }

    const double suffix = bound - arrival[part.cell];
    const double delta = cell_delay_delta(part.cell, poly, active);
    double best_launch = -1e30;
    for (std::size_t ei : incoming_[part.cell]) {
      const CellTimingEdgeData& e = edges_[ei];
      const double stage = e.base_delay_ns + delta + suffix;
      if (e.from == kNoCell) {
        best_launch = std::max(best_launch, stage);
      } else {
        const double nb = arrival[e.from] + stage;
        if (nb > tau + kPathTolNs)
          push(nb, e.from, static_cast<std::int32_t>(idx), false);
      }
    }
    if (best_launch > tau + kPathTolNs)
      push(best_launch, part.cell, part.parent, true);
  }
  return out;
}

namespace {

/// Dose-space variable layout: poly grid doses first, then (optionally)
/// active grid doses.
struct VarLayout {
  std::size_t n_grids = 0;
  bool width = false;
  std::size_t poly(std::size_t g) const { return g; }
  std::size_t active(std::size_t g) const { return n_grids + g; }
  std::size_t count() const { return width ? 2 * n_grids : n_grids; }
};

}  // namespace

std::unique_ptr<IncrementalProblem> DoseMapOptimizer::make_problem() const {
  VarLayout vars{poly_template_.grid_count(), options_.modulate_width};
  const std::size_t n = vars.count();

  la::Vec p_diag(n, 0.0), q(n, 0.0);
  for (std::size_t c = 0; c < nl_->cell_count(); ++c) {
    const liberty::LeakageCoeffs& lc = coeffs_->leakage_coeffs(
        nl_->cell(static_cast<CellId>(c)).master_index);
    const std::size_t g = cell_grid_[c];
    p_diag[vars.poly(g)] += 2.0 * lc.alpha_nw_per_nm2 * kDs * kDs;
    q[vars.poly(g)] += lc.beta_nw_per_nm * kDs;
    if (options_.modulate_width)
      q[vars.active(g)] += lc.gamma_nw_per_nm * kDs;
  }

  // Path rows appended later are the projection of the arrival-time system
  // (eq. (5)/(6)) onto the dose variables: sum over path cells of
  // (A_c Ds dP(g) + B_c Ds dA(g)) <= tau - base(path).
  return std::make_unique<IncrementalProblem>(
      vars.n_grids, options_.modulate_width, poly_template_.neighbor_pairs(),
      options_.dose_lower_pct, options_.dose_upper_pct,
      options_.smoothness_delta, std::move(p_diag), std::move(q));
}

double DoseMapOptimizer::path_base_delay(const PathConstraint& pc) const {
  // Base delay of a path: launch edge + internal edges + endpoint edge.
  // pc.cells runs launch side first; the edge between consecutive cells k
  // and k+1 goes *into* cells[k+1] from cells[k].  Parallel edges between
  // the same pair take the worst (max) base, which matches the model
  // arrival computation.
  DOSEOPT_CHECK(!pc.cells.empty(), "path_base_delay: empty path");
  double base = 0.0;
  const CellId launch = pc.cells.front();
  double launch_base = -1e30;
  for (std::size_t ei : incoming_[launch]) {
    if (edges_[ei].from == kNoCell)
      launch_base = std::max(launch_base, edges_[ei].base_delay_ns);
  }
  if (launch_base > -1e30) base += launch_base;
  for (std::size_t k = 0; k + 1 < pc.cells.size(); ++k) {
    const CellId from = pc.cells[k];
    const CellId to = pc.cells[k + 1];
    double best = -1e30;
    for (std::size_t ei : incoming_[to]) {
      if (edges_[ei].from == from)
        best = std::max(best, edges_[ei].base_delay_ns);
    }
    DOSEOPT_CHECK(best > -1e30, "path_base_delay: broken chain");
    base += best;
  }
  base += endpoint_base_by_cell_[pc.cells.back()];
  return base;
}

DoseMapOptimizer::SolveOutcome DoseMapOptimizer::solve_leakage_qp(
    double tau, WorkingSet& working_set) {
  using Clock = std::chrono::steady_clock;
  auto elapsed_ns = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };

  VarLayout vars{poly_template_.grid_count(), options_.modulate_width};
  SolveOutcome outcome;
  outcome.poly.assign(vars.n_grids, 0.0);
  outcome.active.assign(vars.n_grids, 0.0);

  qp::QpSettings settings;
  settings.warm_start = options_.incremental;
  if (options_.incremental) {
    // The incremental package: exit through the active-set polish as soon
    // as a stable/plateau set passes KKT, and stop burning iterations on
    // near-infeasible probes once the residuals flatline.  The cold A/B
    // reference keeps the historical polish-at-termination semantics.
    settings.early_polish = true;
    settings.stall_window = 250;
    settings.check_interval = 20;
  }
  qp::QpSolver solver(settings);

  auto path_hash = [](const PathConstraint& pc) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const CellId c : pc.cells) {
      h ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };

  constexpr int kMaxRounds = 40;
  constexpr std::size_t kBatch = 300;
  for (int round = 0; round < kMaxRounds; ++round) {
    ++telemetry_.total_rounds;
    const auto ta0 = Clock::now();
    if (options_.incremental) {
      // Static rows persist; only fresh cuts are appended, and a tau
      // retarget touches only the path-row uppers.
      if (!working_set.problem) working_set.problem = make_problem();
      working_set.problem->set_tau(tau);
      working_set.problem->append_paths(working_set.paths,
                                        working_set.paths_assembled,
                                        cell_grid_, cell_a_coeff_,
                                        cell_b_coeff_, kDs);
    } else {
      // Historical A/B reference: full rebuild every round.  Same canonical
      // assembly routine, so the matrix is bit-identical to the incremental
      // path's.
      working_set.problem = make_problem();
      working_set.problem->set_tau(tau);
      working_set.problem->append_paths(working_set.paths, 0, cell_grid_,
                                        cell_a_coeff_, cell_b_coeff_, kDs);
    }
    working_set.paths_assembled = working_set.paths.size();
    const auto ta1 = Clock::now();
    telemetry_.assembly_ns += elapsed_ns(ta0, ta1);

    const qp::QpSolution sol = solver.solve_incremental(
        working_set.problem->problem(), working_set.qp_state);
    if (sol.cold_fallback) ++telemetry_.qp_cold_fallbacks;
    const auto ta2 = Clock::now();
    telemetry_.solve_ns += elapsed_ns(ta1, ta2);
    telemetry_.total_admm_iterations += sol.iterations;
    outcome.status = sol.status;
    outcome.qp_iterations += sol.iterations;
    if (sol.status == qp::QpStatus::kPrimalInfeasible) break;

    for (std::size_t g = 0; g < vars.n_grids; ++g) {
      outcome.poly[g] = std::clamp(sol.x[vars.poly(g)],
                                   options_.dose_lower_pct,
                                   options_.dose_upper_pct);
      outcome.active[g] =
          options_.modulate_width
              ? std::clamp(sol.x[vars.active(g)], options_.dose_lower_pct,
                           options_.dose_upper_pct)
              : 0.0;
    }

    std::vector<PathConstraint> fresh =
        extract_violated_paths(outcome.poly, outcome.active, tau, kBatch);
    telemetry_.extract_ns += elapsed_ns(ta2, Clock::now());
    if (fresh.empty()) {
      outcome.feasible = true;
      break;
    }
    std::size_t added = 0;
    for (PathConstraint& pc : fresh) {
      const std::uint64_t h = path_hash(pc);
      if (!working_set.seen.insert(h).second) continue;
      pc.base_ns = path_base_delay(pc);
      working_set.paths.push_back(std::move(pc));
      ++added;
    }
    telemetry_.total_cuts += added;
    if (added == 0) {
      // No new cuts: remaining violations are at solver-tolerance level.
      outcome.feasible =
          model_mct(outcome.poly, outcome.active) <= tau + 10 * kPathTolNs;
      break;
    }
  }

  outcome.objective_nw = 0.0;
  for (std::size_t c = 0; c < nl_->cell_count(); ++c) {
    const liberty::LeakageCoeffs& lc = coeffs_->leakage_coeffs(
        nl_->cell(static_cast<CellId>(c)).master_index);
    const std::size_t g = cell_grid_[c];
    outcome.objective_nw += lc.delta_leak_nw(
        kDs * outcome.poly[g],
        options_.modulate_width ? kDs * outcome.active[g] : 0.0);
  }
  return outcome;
}

sta::VariantAssignment DoseMapOptimizer::snap_variants(
    const SolveOutcome& outcome) const {
  sta::VariantAssignment variants(nl_->cell_count());
  for (std::size_t c = 0; c < nl_->cell_count(); ++c) {
    const std::size_t g = cell_grid_[c];
    variants.set(
        static_cast<CellId>(c), liberty::dose_to_variant_index(outcome.poly[g]),
        liberty::dose_to_variant_index(
            options_.modulate_width ? outcome.active[g] : 0.0));
  }
  return variants;
}

void DoseMapOptimizer::golden_eval(const SolveOutcome& outcome,
                                   double* mct_ns, double* leakage_uw) const {
  // Successive golden-correction probes snap to nearly identical variant
  // assignments (only cells in grids whose snapped dose moved differ), so
  // re-timing incrementally off the persistent state touches a small cone.
  // Parasitics never change under dose-only optimization.
  const sta::VariantAssignment variants = snap_variants(outcome);
  *mct_ns = timer_->update(golden_state_, variants).mct_ns;
  *leakage_uw = power::total_leakage_uw(*nl_, *repo_, variants);
}

namespace {

faultinject::FaultPoint g_fault_qcp_infeasible("dmopt.qcp_infeasible");

/// Repair solver-tolerance-level violations of the smoothness bound by
/// pulling violated neighbor pairs toward each other (projection sweeps).
/// The adjustments are at the solver's residual scale (<< one dose step),
/// so optimality is unaffected while the recipe becomes exactly
/// equipment-feasible.
void repair_smoothness(la::Vec& dose,
                       const std::vector<std::pair<std::size_t, std::size_t>>&
                           pairs,
                       double lo, double hi, double delta) {
  for (int sweep = 0; sweep < 200; ++sweep) {
    double worst = 0.0;
    for (const auto& [a, b] : pairs) {
      const double diff = dose[a] - dose[b];
      const double excess = std::abs(diff) - delta;
      if (excess > 0.0) {
        const double shift = 0.5 * excess * (diff > 0 ? 1.0 : -1.0);
        dose[a] = std::clamp(dose[a] - shift, lo, hi);
        dose[b] = std::clamp(dose[b] + shift, lo, hi);
        worst = std::max(worst, excess);
      }
    }
    if (worst <= 1e-9) break;
  }
}

}  // namespace

DmoptResult DoseMapOptimizer::finalize(const SolveOutcome& outcome,
                                       int probes) const {
  DmoptResult result;
  result.solver_status = outcome.status;
  result.total_qp_iterations = outcome.qp_iterations;
  result.bisection_probes = probes;

  const auto pairs = poly_template_.neighbor_pairs();
  la::Vec poly = outcome.poly;
  la::Vec active = outcome.active;
  repair_smoothness(poly, pairs, options_.dose_lower_pct,
                    options_.dose_upper_pct, options_.smoothness_delta);
  result.poly_map = poly_template_;
  result.poly_map.set_doses(poly);
  if (options_.modulate_width) {
    repair_smoothness(active, pairs, options_.dose_lower_pct,
                      options_.dose_upper_pct, options_.smoothness_delta);
    result.active_map = poly_template_;
    result.active_map->set_doses(active);
  }

  result.model_delta_leakage_uw = outcome.objective_nw * 1e-3;
  result.model_mct_ns = model_mct(poly, active);

  // Snap to characterized variants and run golden signoff.
  SolveOutcome repaired = outcome;
  repaired.poly = poly;
  repaired.active = active;
  result.variants = snap_variants(repaired);
  const sta::TimingResult& golden = timer_->update(golden_state_,
                                                   result.variants);
  result.golden_mct_ns = golden.mct_ns;
  result.golden_leakage_uw =
      power::total_leakage_uw(*nl_, *repo_, result.variants);
  return result;
}

TauRetarget DoseMapOptimizer::make_retarget(double tau_target) const {
  // The search starts at the bound itself (or the zero-dose model MCT when
  // that is tighter) and never tightens past the largest uniform dose.
  const double tau_floor =
      model_mct_uniform(options_.dose_upper_pct,
                        options_.modulate_width ? options_.dose_lower_pct
                                                : 0.0);
  return TauRetarget(std::min(tau_target, model_mct_uniform(0.0, 0.0)),
                     tau_floor, tau_target, tau_target,
                     retarget_tolerance_ns(tau_target));
}

DmoptResult DoseMapOptimizer::minimize_leakage(double timing_bound_ns) {
  if (options_.yield_target > 0.0)
    return minimize_leakage_yield(timing_bound_ns);
  const auto t0 = std::chrono::steady_clock::now();
  const double tau_target = timing_bound_ns > 0.0
                                ? timing_bound_ns
                                : nominal_timing_->mct_ns;
  WorkingSet working_set;
  telemetry_ = CutTelemetry();

  // Golden-corrected outer loop: the model bound is retargeted by the
  // golden-signoff gap of each probe (retarget.h).
  TauRetarget retarget = make_retarget(tau_target);
  std::vector<SolveOutcome> outcomes;
  const std::size_t pick = retarget.search([&](double tau) {
    outcomes.push_back(solve_leakage_qp(tau, working_set));
    double golden_mct = 0.0, golden_leak = 0.0;
    golden_eval(outcomes.back(), &golden_mct, &golden_leak);
    return golden_mct;
  });

  DmoptResult result =
      finalize(outcomes[pick], static_cast<int>(outcomes.size()));
  result.telemetry = telemetry_;
  result.runtime_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return result;
}

DmoptResult DoseMapOptimizer::minimize_leakage_yield(double timing_bound_ns) {
  const auto t0 = std::chrono::steady_clock::now();
  const double tau_target = timing_bound_ns > 0.0
                                ? timing_bound_ns
                                : nominal_timing_->mct_ns;
  const double p = options_.yield_target;
  DOSEOPT_CHECK(p > 0.0 && p < 1.0,
                "minimize_leakage_yield: yield_target must be in (0, 1)");
  WorkingSet working_set;
  telemetry_ = CutTelemetry();

  // The analytic yield engine and the golden MC verifier share one
  // variation model (same systematic sources, same per-cell sigma), which
  // is the whole point: SSTA steers the loop, MC has the final word.
  ssta::SstaTimer ssta_timer(timer_, placement_, coeffs_,
                             options_.yield_variation);

  // Healthy SSTA analyses memoized by snapped assignment: analyze() is a
  // pure function of it, so a probe or a verification that revisits an
  // assignment reuses the two numbers the loop reads.  Unhealthy results
  // are never stored, so a poisoned analysis is retried as before.
  struct SstaPoint {
    double tau_at_yield;  ///< analytic p-quantile of the MCT
    double yield;         ///< analytic P(MCT <= tau_target)
  };
  std::vector<std::pair<sta::VariantAssignment, SstaPoint>> analyzed;
  int analyses = 0;
  auto ssta_point =
      [&](const sta::VariantAssignment& va) -> std::optional<SstaPoint> {
    for (const auto& [seen, point] : analyzed)
      if (seen == va) return point;
    ++analyses;
    const ssta::SstaResult sr = ssta_timer.analyze(va);
    if (!sr.healthy) return std::nullopt;
    const SstaPoint point{sr.tau_at_yield(p), sr.yield_at(tau_target)};
    analyzed.emplace_back(va, point);
    return point;
  };

  // The retarget of the mean-targeted path, but each probe's signoff value
  // is the ANALYTIC p-quantile of the MCT distribution, so the dose recipe
  // tightens until the distribution -- not just its mean -- fits under the
  // bound.
  TauRetarget retarget = make_retarget(tau_target);
  std::vector<SolveOutcome> outcomes;
  const auto measure = [&](double tau) {
    outcomes.push_back(solve_leakage_qp(tau, working_set));
    if (const std::optional<SstaPoint> sp =
            ssta_point(snap_variants(outcomes.back())))
      return sp->tau_at_yield;
    // Poisoned forms (fault injection): steer on the golden mean this
    // probe; the MC verification below still enforces the target.
    double golden_mct = 0.0, golden_leak = 0.0;
    golden_eval(outcomes.back(), &golden_mct, &golden_leak);
    return golden_mct;
  };
  std::size_t pick = retarget.search(measure);

  // Golden MC verification with calibrated rollbacks: when the sampled
  // yield misses the target, the MC p-quantile of the finalized recipe
  // exceeds its analytic one by the model's error there.  The analytic
  // target moves down by that error (at least tol) and the search replays
  // from its first probe with every probe already made (bounded; stored
  // probes and the SSTA memo make revisits free).
  variation::YieldAnalyzer verifier(nl_, placement_, repo_, timer_,
                                    options_.yield_variation);
  DmoptResult result;
  int rollbacks = 0;
  for (;;) {
    result = finalize(outcomes[pick], static_cast<int>(outcomes.size()));
    std::optional<SstaPoint> sp = ssta_point(result.variants);
    if (!sp) sp = ssta_point(result.variants);  // once-faults
    const variation::YieldResult mc = verifier.analyze(result.variants);
    result.yield_target = p;
    result.yield_tau_ns = tau_target;
    result.mc_yield = mc.yield_at(tau_target);
    result.ssta_yield = sp ? sp->yield : result.mc_yield;
    result.yield_rollbacks = rollbacks;
    if (result.mc_yield >= p || rollbacks >= 3) break;

    std::vector<double> mcts;
    mcts.reserve(mc.dies.size());
    for (const variation::DieSample& d : mc.dies) mcts.push_back(d.mct_ns);
    std::sort(mcts.begin(), mcts.end());
    const std::size_t n = mcts.size();
    const std::size_t k = std::min(
        n, std::max<std::size_t>(
               1, static_cast<std::size_t>(
                      std::ceil(p * static_cast<double>(n)))));
    const double q_mc = mcts[k - 1];  // empirical p-quantile
    const double q_model =
        sp ? sp->tau_at_yield : retarget.probes()[pick].value_ns;
    retarget.reject(pick, std::max(retarget_tolerance_ns(tau_target),
                                   q_mc - q_model));
    const std::size_t next = retarget.search(measure);
    // Pinned at the floor with nothing feasible left: no tighter recipe.
    if (retarget.probes()[next].rejected) break;
    pick = next;
    ++rollbacks;
  }
  result.bisection_probes = static_cast<int>(outcomes.size());
  result.ssta_analyses = analyses;
  if (result.mc_yield < p) {
    result.degraded = true;
    result.fallback = "yield_target_missed";
  }

  result.telemetry = telemetry_;
  result.runtime_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return result;
}

DmoptResult DoseMapOptimizer::minimize_cycle_time(double leakage_budget_uw) {
  const auto t0 = std::chrono::steady_clock::now();

  double tau_hi = model_mct_uniform(0.0, 0.0);
  double tau_lo = model_mct_uniform(options_.dose_upper_pct,
                                    options_.modulate_width
                                        ? options_.dose_lower_pct
                                        : 0.0);
  DOSEOPT_CHECK(tau_lo <= tau_hi, "minimize_cycle_time: inverted bounds");

  // Feasibility of a probe is judged on *golden* leakage after variant
  // snapping, so the reported result always honors the budget (up to
  // kLeakageToleranceUw of slack).  At most kBisectionIterations probes
  // follow the relaxed end.
  constexpr int kBisectionIterations = 8;
  constexpr double kLeakageToleranceUw = 1e-3;
  const double leak_budget_uw = nominal_leakage_uw_ + leakage_budget_uw;
  WorkingSet working_set;  // shared across probes
  telemetry_ = CutTelemetry();

  // The relaxed end of the bisection must itself be feasible *and* honor
  // the leakage budget, or no tau can: the QCP is infeasible as posed.
  // Instead of aborting, degrade to the QP formulation ("no timing
  // degradation, minimum leakage") and report the budget slack -- the
  // graceful ladder for a budget the design cannot meet.
  SolveOutcome best = solve_leakage_qp(tau_hi, working_set);
  bool tau_hi_ok = best.feasible && !g_fault_qcp_infeasible.should_fire();
  if (tau_hi_ok) {
    double golden_mct = 0.0, golden_leak = 0.0;
    golden_eval(best, &golden_mct, &golden_leak);
    tau_hi_ok = golden_leak <= leak_budget_uw + kLeakageToleranceUw;
  }
  if (!tau_hi_ok) {
    DmoptResult result = minimize_leakage(0.0);
    result.degraded = true;
    result.fallback = "qcp_to_qp";
    result.leakage_slack_uw = result.golden_leakage_uw - leak_budget_uw;
    result.runtime_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    return result;
  }
  int probes = 1;
  int total_iters = best.qp_iterations;
  double feasible_tau = tau_hi;

  for (int it = 0; it < kBisectionIterations; ++it) {
    if (feasible_tau - tau_lo < 1e-4) break;
    const double tau = 0.5 * (tau_lo + feasible_tau);
    SolveOutcome probe = solve_leakage_qp(tau, working_set);
    ++probes;
    total_iters += probe.qp_iterations;
    bool ok = probe.feasible;
    if (ok) {
      double golden_mct = 0.0, golden_leak = 0.0;
      golden_eval(probe, &golden_mct, &golden_leak);
      ok = golden_leak <= leak_budget_uw + kLeakageToleranceUw;
    }
    if (ok) {
      feasible_tau = tau;
      best = std::move(probe);
    } else {
      tau_lo = tau;
    }
  }

  DmoptResult result = finalize(best, probes);
  result.telemetry = telemetry_;
  result.total_qp_iterations = total_iters;
  result.runtime_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return result;
}

}  // namespace doseopt::dmopt
