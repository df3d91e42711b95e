// Extension experiment: block-based SSTA as a first-class yield objective,
// cross-validated against the golden Monte-Carlo sampler.
//
// Three questions, one harness:
//   1. Accuracy -- how close is the analytic yield curve (canonical-form
//      propagation + Clark max + endpoint-panel integration) to the
//      empirical yield of a golden Monte-Carlo run on AES-65, across the
//      quantiles a signoff cares about?  Headline: |SSTA - MC| at the MC
//      p90 clock must be < 1% absolute (3% under DOSEOPT_FAST, where the
//      MC reference itself carries ~0.8% sampling noise).
//   2. Cost -- how many graph traversals does each estimate consume?  SSTA
//      is 2 (scalar base pass + canonical-form pass) regardless of sample
//      count; MC pays ceil(samples / batch_width).  The ratio must be
//      >= 100x.
//   3. The frontier -- SstaOptions::max_residual_terms trades the sparse
//      per-cell correlation bookkeeping against form size.  The sweep
//      charts yield error vs analysis wall time from the pooled-residual
//      degenerate (0) up to the default (64).
//
// A final leg runs the DMopt yield-percentile mode end to end
// (--yield-target): the run must finish with an MC-verified yield at or
// above the target, or a logged rollback that marks the result degraded.
// Everything lands in BENCH_ssta.json, stamped with nproc, the process
// pool's lane count (DOSEOPT_THREADS), the build type and the revision
// named by $DOSEOPT_GIT_SHA ("unknown" when unset); any violation exits
// non-zero.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "flow/context.h"
#include "flow/optimize.h"
#include "ssta/ssta.h"
#include "variation/yield.h"

using namespace doseopt;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Empirical P(MCT <= tau) over the sorted golden-MC die samples.
double empirical_yield(const std::vector<double>& sorted, double tau) {
  return static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(),
                                              tau) -
                             sorted.begin()) /
         static_cast<double>(sorted.size());
}

/// Smallest tau met by at least ceil(p * n) dies.
double empirical_quantile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  const std::size_t k = std::min(
      n, std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(
                                      p * static_cast<double>(n)))));
  return sorted[k - 1];
}

}  // namespace

int main() {
  bench::banner(
      "Block-based SSTA vs golden Monte-Carlo -- yield accuracy, traversal "
      "cost, and the residual-support frontier (AES-65)");

  flow::DesignContext ctx(flow::scaled_spec(gen::aes65_spec()));
  const liberty::CoefficientSet& coeffs = ctx.coefficients(false);
  const sta::VariantAssignment base(ctx.netlist().cell_count());
  const int mc_samples = flow::fast_mode() ? 1600 : 10000;
  const double headline_tol = flow::fast_mode() ? 0.03 : 0.01;

  // --- golden Monte-Carlo reference (batched SoA engine) ---
  variation::VariationModel model;
  model.monte_carlo_samples = mc_samples;
  variation::YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(),
                                    &ctx.repo(), &ctx.timer(), model);
  auto t0 = std::chrono::steady_clock::now();
  const variation::YieldResult mc = analyzer.analyze(base);
  const double mc_s = seconds_since(t0);
  std::vector<double> mcts;
  mcts.reserve(mc.dies.size());
  for (const variation::DieSample& d : mc.dies) mcts.push_back(d.mct_ns);
  std::sort(mcts.begin(), mcts.end());
  const int mc_traversals =
      (mc_samples + model.sta_batch_width - 1) / model.sta_batch_width;

  // --- SSTA, default options (fresh engine: the timing includes the
  // scalar base pass, matching what one cold estimate really costs; a
  // warmup engine has already paid the one-time library/allocator costs
  // both paths share) ---
  {
    const ssta::SstaTimer warmup(&ctx.timer(), &ctx.placement(), &coeffs,
                                 model);
    (void)warmup.analyze(base);
  }
  const ssta::SstaTimer engine(&ctx.timer(), &ctx.placement(), &coeffs,
                               model);
  t0 = std::chrono::steady_clock::now();
  const ssta::SstaResult sr = engine.analyze(base);
  const double ssta_s = seconds_since(t0);
  if (!sr.healthy) {
    std::printf("FAIL: SSTA result unhealthy on the nominal design\n");
    return 1;
  }
  const int ssta_traversals = 2;
  const double traversal_ratio =
      static_cast<double>(mc_traversals) / ssta_traversals;

  std::printf("\n%zu cells, %zu endpoints; MC %d dies in %.2f s "
              "(%d traversals), SSTA %.3f s (%d traversals, %.0fx fewer)\n",
              ctx.netlist().cell_count(), sr.endpoints.size(), mc_samples,
              mc_s, mc_traversals, ssta_s, ssta_traversals, traversal_ratio);
  std::printf("MCT mean: MC %.4f ns vs SSTA %.4f ns; sigma: %.1f ps vs "
              "%.1f ps\n",
              mc.mean_mct_ns, sr.mean_mct_ns, 1e3 * mc.std_mct_ns,
              1e3 * sr.sigma_mct_ns);

  // --- yield error across the signoff quantiles ---
  const std::vector<double> probes = {0.50, 0.75, 0.90, 0.95, 0.99};
  double headline_err = 0.0;
  TextTable t;
  t.set_header({"quantile", "tau (ns)", "MC yield", "SSTA yield", "|err|"});
  std::vector<double> probe_errs;
  for (const double p : probes) {
    const double tau = empirical_quantile(mcts, p);
    const double emp = empirical_yield(mcts, tau);
    const double an = sr.yield_at(tau);
    const double err = std::fabs(an - emp);
    probe_errs.push_back(err);
    if (p == 0.90) headline_err = err;
    t.add_row({fmt_f(p, 2), fmt_f(tau, 4), fmt_f(emp, 4), fmt_f(an, 4),
               fmt_f(err, 4)});
  }
  t.print(std::cout);
  std::printf("headline |err| @ MC p90 clock: %.4f (tolerance %.2f)\n",
              headline_err, headline_tol);

  // --- the accuracy/speed frontier: sparse residual support budget ---
  std::printf("\nresidual-support frontier (max_residual_terms):\n");
  TextTable ft;
  ft.set_header({"terms", "analyze (s)", "sigma (ps)", "|err| @ p90"});
  const double tau90 = empirical_quantile(mcts, 0.90);
  const double emp90 = empirical_yield(mcts, tau90);
  struct FrontierRow {
    std::size_t terms;
    double seconds, sigma_ps, err;
  };
  std::vector<FrontierRow> frontier;
  for (const std::size_t terms : {std::size_t{0}, std::size_t{8},
                                  std::size_t{32}, std::size_t{64}}) {
    ssta::SstaOptions o;
    o.max_residual_terms = terms;
    const ssta::SstaTimer e(&ctx.timer(), &ctx.placement(), &coeffs, model,
                            o);
    t0 = std::chrono::steady_clock::now();
    const ssta::SstaResult r = e.analyze(base);
    const double s = seconds_since(t0);
    const double err = std::fabs(r.yield_at(tau90) - emp90);
    frontier.push_back({terms, s, 1e3 * r.sigma_mct_ns, err});
    ft.add_row({fmt_f(static_cast<double>(terms), 0), fmt_f(s, 3),
                fmt_f(1e3 * r.sigma_mct_ns, 1), fmt_f(err, 4)});
  }
  ft.print(std::cout);

  // --- DMopt yield-percentile mode end to end (--yield-target) ---
  // A reduced block keeps the iterative SSTA-gap/rollback loop affordable
  // inside a benchmark run; the contract being checked is the flow's, not
  // the block's: finish at MC-verified yield >= target, or roll back and
  // say so.
  const double target = 0.90;
  gen::DesignSpec yspec =
      gen::aes65_spec().scaled(flow::fast_mode() ? 0.03 : 0.06);
  flow::DesignContext yctx(yspec);
  flow::FlowOptions fo;
  fo.mode = flow::DmoptMode::kMinimizeLeakage;
  fo.dmopt.yield_target = target;
  const flow::FlowResult fr = flow::run_flow(yctx, fo);
  const bool target_met = fr.dmopt.mc_yield >= target;
  const bool rollback_logged = fr.dmopt.degraded && fr.dmopt.yield_rollbacks > 0;
  const bool yield_leg_ok = target_met || rollback_logged;
  std::printf("\n--yield-target %.2f on aes65 x %.2f: ssta %.4f, MC %.4f, "
              "%d rollbacks%s -> %s\n",
              target, flow::fast_mode() ? 0.03 : 0.06, fr.dmopt.ssta_yield,
              fr.dmopt.mc_yield, fr.dmopt.yield_rollbacks,
              fr.dmopt.degraded ? " (target missed, rolled back)" : "",
              yield_leg_ok ? "ok" : "VIOLATION");

  const bool headline_ok = headline_err < headline_tol;
  const bool ratio_ok = traversal_ratio >= 100.0;

  const char* git_sha = std::getenv("DOSEOPT_GIT_SHA");
  if (std::FILE* f = std::fopen("BENCH_ssta.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"design\": \"aes65\",\n"
                 "  \"nproc\": %u,\n"
                 "  \"threads\": %d,\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"git_sha\": \"%s\",\n"
                 "  \"cells\": %zu,\n"
                 "  \"endpoints\": %zu,\n"
                 "  \"mc_samples\": %d,\n"
                 "  \"mc_seconds\": %.3f,\n"
                 "  \"mc_traversals\": %d,\n"
                 "  \"ssta_seconds\": %.3f,\n"
                 "  \"ssta_traversals\": %d,\n"
                 "  \"traversal_ratio\": %.1f,\n"
                 "  \"mc_mean_mct_ns\": %.6f,\n"
                 "  \"mc_std_mct_ns\": %.6f,\n"
                 "  \"ssta_mean_mct_ns\": %.6f,\n"
                 "  \"ssta_sigma_mct_ns\": %.6f,\n"
                 "  \"yield_err_p50\": %.4f,\n"
                 "  \"yield_err_p90\": %.4f,\n"
                 "  \"yield_err_p99\": %.4f,\n"
                 "  \"frontier\": [\n",
                 std::thread::hardware_concurrency(),
                 ThreadPool::global().lane_count(), DOSEOPT_BUILD_TYPE,
                 git_sha != nullptr ? git_sha : "unknown",
                 ctx.netlist().cell_count(), sr.endpoints.size(), mc_samples,
                 mc_s, mc_traversals, ssta_s, ssta_traversals,
                 traversal_ratio, mc.mean_mct_ns, mc.std_mct_ns,
                 sr.mean_mct_ns, sr.sigma_mct_ns, probe_errs[0],
                 probe_errs[2], probe_errs[4]);
    for (std::size_t i = 0; i < frontier.size(); ++i)
      std::fprintf(f,
                   "    {\"terms\": %zu, \"seconds\": %.3f, "
                   "\"sigma_ps\": %.2f, \"err_p90\": %.4f}%s\n",
                   frontier[i].terms, frontier[i].seconds,
                   frontier[i].sigma_ps, frontier[i].err,
                   i + 1 < frontier.size() ? "," : "");
    std::fprintf(f,
                 "  ],\n"
                 "  \"yield_target\": %.2f,\n"
                 "  \"yield_target_mc_yield\": %.4f,\n"
                 "  \"yield_target_rollbacks\": %d,\n"
                 "  \"yield_target_degraded\": %s,\n"
                 "  \"headline_ok\": %s,\n"
                 "  \"ratio_ok\": %s,\n"
                 "  \"yield_leg_ok\": %s\n"
                 "}\n",
                 target, fr.dmopt.mc_yield, fr.dmopt.yield_rollbacks,
                 fr.dmopt.degraded ? "true" : "false",
                 headline_ok ? "true" : "false", ratio_ok ? "true" : "false",
                 yield_leg_ok ? "true" : "false");
    std::fclose(f);
  }

  if (!headline_ok)
    std::printf("FAIL: SSTA yield off by %.4f at the MC p90 clock\n",
                headline_err);
  if (!ratio_ok)
    std::printf("FAIL: traversal ratio %.1fx below 100x\n", traversal_ratio);
  if (!yield_leg_ok)
    std::printf("FAIL: --yield-target ended below target without a logged "
                "rollback\n");
  return headline_ok && ratio_ok && yield_leg_ok ? 0 : 1;
}
