// Reproduces Table IV: dose map optimization on the poly layer (gate-length
// modulation) for all four designs, with both formulations --
//   QP:  minimize leakage under the nominal timing constraint, and
//   QCP: minimize cycle time under a no-leakage-increase constraint --
// at three grid granularities (5x5, 10x10, and 30x30 um^2 for 65 nm /
// 50x50 um^2 for 90 nm), smoothness bound delta = 2, correction range +/-5%.
//
// Exits 1 when a QP row breaks the paper's "no timing degradation" bound:
// golden MCT above nominal by more than the retarget tolerance.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "dmopt/dmopt.h"
#include "dmopt/retarget.h"

using namespace doseopt;

namespace {

struct PaperEntry {
  // (QP leak imp %, QCP MCT imp %) per grid size, in Table IV's order.
  double qp_leak[3];
  double qcp_mct[3];
};

}  // namespace

int main() {
  bench::banner(
      "Table IV -- DMopt on poly layer (Lgate modulation), QP (min leakage "
      "s.t. timing) and QCP (min MCT s.t. leakage), delta=2, range +/-5%");

  const PaperEntry paper[4] = {
      {{8.54, 3.05, 0.01}, {1.89, 0.71, 0.07}},    // AES-65
      {{20.67, 14.91, 2.48}, {4.52, 3.54, 0.91}},  // JPEG-65
      {{24.98, 21.75, 10.61}, {6.47, 5.91, 3.19}}, // AES-90
      {{21.40, 20.68, 12.22}, {8.23, 7.45, 5.11}}, // JPEG-90
  };

  int design_idx = 0;
  int bound_broken = 0;
  for (const gen::DesignSpec& base : gen::table1_specs()) {
    const gen::DesignSpec spec = flow::scaled_spec(base);
    const bool is90 = spec.tech == "90nm";
    const double grids[3] = {5.0, 10.0, is90 ? 50.0 : 30.0};

    flow::DesignContext ctx(spec);
    const double mct0 = ctx.nominal_mct_ns();
    const double leak0 = ctx.nominal_leakage_uw();
    const liberty::CoefficientSet& coeffs = ctx.coefficients(false);

    std::printf("\n%s: nominal MCT %.3f ns, leakage %.1f uW\n",
                spec.name.c_str(), mct0, leak0);
    TextTable t;
    t.set_header({"Grid (um)", "Mode", "MCT (ns)", "imp (%)", "paper",
                  "Leakage (uW)", "imp (%)", "paper", "Runtime (s)",
                  "Grids"});
    for (int gi = 0; gi < 3; ++gi) {
      dmopt::DmoptOptions opt;
      opt.grid_um = grids[gi];
      dmopt::DoseMapOptimizer optimizer(
          &ctx.netlist(), &ctx.placement(), &ctx.parasitics(), &ctx.repo(),
          &coeffs, &ctx.timer(), &ctx.nominal_timing(), opt);

      const dmopt::DmoptResult qp = optimizer.minimize_leakage();
      const double over_ns = qp.golden_mct_ns - mct0;
      if (over_ns > dmopt::retarget_tolerance_ns(mct0)) {
        std::printf("FAIL: %s QP at %.0f um ends %.1f ps above nominal\n",
                    spec.name.c_str(), grids[gi], 1e3 * over_ns);
        ++bound_broken;
      }
      t.add_row({fmt_f(grids[gi], 0), "QP", fmt_f(qp.golden_mct_ns, 3),
                 fmt_f(bench::improvement_pct(mct0, qp.golden_mct_ns), 2),
                 "-",
                 fmt_f(qp.golden_leakage_uw, 1),
                 fmt_f(bench::improvement_pct(leak0, qp.golden_leakage_uw), 2),
                 fmt_f(paper[design_idx].qp_leak[gi], 2),
                 fmt_f(qp.runtime_s, 1),
                 std::to_string(optimizer.grid_count())});

      const dmopt::DmoptResult qcp = optimizer.minimize_cycle_time();
      t.add_row(
          {fmt_f(grids[gi], 0), "QCP", fmt_f(qcp.golden_mct_ns, 3),
           fmt_f(bench::improvement_pct(mct0, qcp.golden_mct_ns), 2),
           fmt_f(paper[design_idx].qcp_mct[gi], 2),
           fmt_f(qcp.golden_leakage_uw, 1),
           fmt_f(bench::improvement_pct(leak0, qcp.golden_leakage_uw), 2),
           "-", fmt_f(qcp.runtime_s, 1),
           std::to_string(optimizer.grid_count())});
    }
    t.print(std::cout);
    ++design_idx;
  }

  std::printf(
      "\nExpected trends (paper): finer grids -> larger improvements; "
      "90 nm designs improve more than 65 nm (fewer cells per grid, fewer "
      "near-critical paths).\n");
  if (bound_broken > 0) {
    std::printf("FAIL: %d QP row(s) above the timing bound\n", bound_broken);
    return 1;
  }
  return 0;
}
