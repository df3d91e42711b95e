#include "serve/job.h"

#include "common/error.h"
#include "serde/stream.h"

namespace doseopt::serve {

JobSpec JobSpec::from_json(const Json& j) {
  DOSEOPT_CHECK(j.is_object(), "job: request payload must be a JSON object");
  JobSpec spec;
  spec.id = j.get_string("id", "");
  spec.design = j.get_string("design", spec.design);
  spec.scale = j.get_number("scale", spec.scale);
  spec.seed = static_cast<std::uint64_t>(j.get_number("seed", 0.0));
  spec.mode = j.get_string("mode", spec.mode);
  spec.grid_um = j.get_number("grid", spec.grid_um);
  spec.smoothness_delta = j.get_number("delta", spec.smoothness_delta);
  spec.dose_range_pct = j.get_number("range", spec.dose_range_pct);
  spec.modulate_width = j.get_bool("width", spec.modulate_width);
  spec.run_dosepl = j.get_bool("dosepl", spec.run_dosepl);
  spec.incremental = j.get_bool("incremental", spec.incremental);
  spec.deadline_ms = j.get_number("deadline_ms", spec.deadline_ms);
  spec.tau_ns = j.get_number("tau", spec.tau_ns);
  spec.mc_samples =
      static_cast<int>(j.get_number("mc_samples", spec.mc_samples));
  spec.yield_target = j.get_number("yield_target", spec.yield_target);

  DOSEOPT_CHECK(spec.scale > 0.0 && spec.scale <= 1.0,
                "job: scale must be in (0, 1]");
  DOSEOPT_CHECK(spec.mode == "timing" || spec.mode == "leakage" ||
                    spec.mode == "ssta_yield",
                "job: mode must be 'timing', 'leakage', or 'ssta_yield'");
  DOSEOPT_CHECK(spec.grid_um > 0.0, "job: grid must be positive");
  DOSEOPT_CHECK(spec.dose_range_pct > 0.0, "job: range must be positive");
  DOSEOPT_CHECK(spec.deadline_ms >= 0.0, "job: deadline_ms must be >= 0");
  DOSEOPT_CHECK(spec.tau_ns >= 0.0, "job: tau must be >= 0");
  DOSEOPT_CHECK(spec.mc_samples >= 0, "job: mc_samples must be >= 0");
  DOSEOPT_CHECK(spec.yield_target >= 0.0 && spec.yield_target < 1.0,
                "job: yield_target must be in [0, 1)");
  DOSEOPT_CHECK(spec.yield_target == 0.0 || spec.mode == "leakage",
                "job: yield_target requires mode 'leakage'");
  return spec;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  if (!id.empty()) j.set("id", Json::string(id));
  j.set("design", Json::string(design));
  j.set("scale", Json::number(scale));
  if (seed != 0) j.set("seed", Json::number(static_cast<double>(seed)));
  j.set("mode", Json::string(mode));
  j.set("grid", Json::number(grid_um));
  j.set("delta", Json::number(smoothness_delta));
  j.set("range", Json::number(dose_range_pct));
  j.set("width", Json::boolean(modulate_width));
  j.set("dosepl", Json::boolean(run_dosepl));
  j.set("incremental", Json::boolean(incremental));
  if (deadline_ms > 0.0) j.set("deadline_ms", Json::number(deadline_ms));
  if (tau_ns > 0.0) j.set("tau", Json::number(tau_ns));
  if (mc_samples > 0)
    j.set("mc_samples", Json::number(static_cast<double>(mc_samples)));
  if (yield_target > 0.0) j.set("yield_target", Json::number(yield_target));
  return j;
}

gen::DesignSpec JobSpec::design_spec() const {
  gen::DesignSpec spec = gen::spec_by_name(design);
  if (scale < 1.0) spec = spec.scaled(scale);
  if (seed != 0) spec.seed = seed;
  return spec;
}

flow::FlowOptions JobSpec::flow_options() const {
  flow::FlowOptions options;
  options.mode = mode == "leakage" ? flow::DmoptMode::kMinimizeLeakage
                                   : flow::DmoptMode::kMinimizeCycleTime;
  options.dmopt.grid_um = grid_um;
  options.dmopt.smoothness_delta = smoothness_delta;
  options.dmopt.dose_lower_pct = -dose_range_pct;
  options.dmopt.dose_upper_pct = dose_range_pct;
  options.dmopt.modulate_width = modulate_width;
  options.dmopt.incremental = incremental;
  options.run_dose_placement = run_dosepl;
  if (yield_target > 0.0) {
    options.dmopt.yield_target = yield_target;
    if (mc_samples > 0)
      options.dmopt.yield_variation.monte_carlo_samples = mc_samples;
  }
  return options;
}

flow::SstaYieldOptions JobSpec::ssta_options() const {
  flow::SstaYieldOptions options;
  options.tau_ns = tau_ns;
  options.mc_samples = mc_samples;
  return options;
}

namespace {

std::uint64_t hash_field(std::uint64_t h, const std::string& s) {
  h = serde::fnv1a64(s.data(), s.size(), h);
  const char sep = '|';
  return serde::fnv1a64(&sep, 1, h);
}

std::uint64_t hash_field(std::uint64_t h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return serde::fnv1a64(&bits, sizeof(bits), h);
}

std::uint64_t hash_field(std::uint64_t h, std::uint64_t v) {
  return serde::fnv1a64(&v, sizeof(v), h);
}

}  // namespace

std::uint64_t JobSpec::session_key() const {
  std::uint64_t h = 14695981039346656037ULL;
  h = hash_field(h, design);
  h = hash_field(h, scale);
  h = hash_field(h, seed);
  return h;
}

std::uint64_t JobSpec::job_key() const {
  std::uint64_t h = session_key();
  h = hash_field(h, mode);
  h = hash_field(h, grid_um);
  h = hash_field(h, smoothness_delta);
  h = hash_field(h, dose_range_pct);
  h = hash_field(h, static_cast<std::uint64_t>(modulate_width ? 1 : 0));
  h = hash_field(h, static_cast<std::uint64_t>(run_dosepl ? 1 : 0));
  h = hash_field(h, static_cast<std::uint64_t>(incremental ? 1 : 0));
  h = hash_field(h, tau_ns);
  h = hash_field(h, static_cast<std::uint64_t>(mc_samples));
  h = hash_field(h, yield_target);
  return h;
}

namespace {

Json dose_map_to_json(const dose::DoseMap& map) {
  Json j = Json::object();
  j.set("rows", Json::number(static_cast<double>(map.rows())));
  j.set("cols", Json::number(static_cast<double>(map.cols())));
  Json doses = Json::array();
  for (const double d : map.doses()) doses.push_back(Json::number(d));
  j.set("doses", std::move(doses));
  return j;
}

}  // namespace

Json flow_result_to_json(const flow::FlowResult& result) {
  Json j = Json::object();
  j.set("nominal_mct_ns", Json::number(result.nominal_mct_ns));
  j.set("nominal_leakage_uw", Json::number(result.nominal_leakage_uw));
  j.set("final_mct_ns", Json::number(result.final_mct_ns));
  j.set("final_leakage_uw", Json::number(result.final_leakage_uw));

  Json dm = Json::object();
  dm.set("golden_mct_ns", Json::number(result.dmopt.golden_mct_ns));
  dm.set("golden_leakage_uw", Json::number(result.dmopt.golden_leakage_uw));
  dm.set("model_mct_ns", Json::number(result.dmopt.model_mct_ns));
  dm.set("model_delta_leakage_uw",
         Json::number(result.dmopt.model_delta_leakage_uw));
  dm.set("solver_status",
         Json::string(qp::to_string(result.dmopt.solver_status)));
  dm.set("total_qp_iterations",
         Json::number(result.dmopt.total_qp_iterations));
  dm.set("bisection_probes", Json::number(result.dmopt.bisection_probes));
  // Cutting-plane counters: deterministic (compared bit-exact)...
  const dmopt::CutTelemetry& ct = result.dmopt.telemetry;
  dm.set("cut_rounds", Json::number(ct.total_rounds));
  dm.set("admm_iterations", Json::number(ct.total_admm_iterations));
  dm.set("cuts", Json::number(static_cast<double>(ct.total_cuts)));
  // ...and wall-clock split (nondeterministic, excluded from comparisons
  // like runtime_s).
  Json solver_ms = Json::object();
  solver_ms.set("assembly", Json::number(ct.assembly_ns / 1e6));
  solver_ms.set("solve", Json::number(ct.solve_ns / 1e6));
  solver_ms.set("extract", Json::number(ct.extract_ns / 1e6));
  dm.set("solver_ms", std::move(solver_ms));
  dm.set("runtime_s", Json::number(result.dmopt.runtime_s));
  // Recovery-ladder bookkeeping: which degraded paths (if any) produced
  // this result.  Deterministic, compared bit-exact in the E2E tests.
  Json recovery = Json::object();
  recovery.set("degraded", Json::boolean(result.dmopt.degraded));
  if (result.dmopt.degraded) {
    recovery.set("fallback", Json::string(result.dmopt.fallback));
    recovery.set("leakage_slack_uw",
                 Json::number(result.dmopt.leakage_slack_uw));
  }
  recovery.set("qp_cold_fallbacks", Json::number(ct.qp_cold_fallbacks));
  dm.set("recovery", std::move(recovery));
  if (result.dmopt.yield_target > 0.0) {
    // Yield-percentile mode: the constraint the loop actually optimized
    // and its SSTA/MC verdicts.  All deterministic.
    Json yld = Json::object();
    yld.set("target", Json::number(result.dmopt.yield_target));
    yld.set("tau_ns", Json::number(result.dmopt.yield_tau_ns));
    yld.set("ssta_yield", Json::number(result.dmopt.ssta_yield));
    yld.set("mc_yield", Json::number(result.dmopt.mc_yield));
    yld.set("rollbacks", Json::number(result.dmopt.yield_rollbacks));
    dm.set("yield", std::move(yld));
  }
  dm.set("poly_map", dose_map_to_json(result.dmopt.poly_map));
  if (result.dmopt.active_map.has_value())
    dm.set("active_map", dose_map_to_json(*result.dmopt.active_map));
  j.set("dmopt", std::move(dm));

  if (result.dosepl_run) {
    Json dp = Json::object();
    dp.set("rounds_run", Json::number(result.dosepl.rounds_run));
    dp.set("rounds_accepted", Json::number(result.dosepl.rounds_accepted));
    dp.set("swaps_accepted", Json::number(result.dosepl.swaps_accepted));
    dp.set("initial_mct_ns", Json::number(result.dosepl.initial_mct_ns));
    dp.set("final_mct_ns", Json::number(result.dosepl.final_mct_ns));
    dp.set("initial_leakage_uw",
           Json::number(result.dosepl.initial_leakage_uw));
    dp.set("final_leakage_uw", Json::number(result.dosepl.final_leakage_uw));
    dp.set("runtime_s", Json::number(result.dosepl.runtime_s));
    j.set("dosepl", std::move(dp));
  }
  Json stage_s = Json::object();
  stage_s.set("dmopt", Json::number(result.dmopt_s));
  stage_s.set("dosepl", Json::number(result.dosepl_s));
  stage_s.set("total", Json::number(result.total_s));
  j.set("stage_s", std::move(stage_s));
  return j;
}

Json ssta_yield_result_to_json(const flow::SstaYieldResult& result) {
  Json j = Json::object();
  j.set("tau_ns", Json::number(result.tau_ns));
  j.set("endpoints", Json::number(static_cast<double>(result.endpoints)));

  Json ssta = Json::object();
  ssta.set("mean_mct_ns", Json::number(result.ssta_mean_mct_ns));
  ssta.set("sigma_mct_ns", Json::number(result.ssta_sigma_mct_ns));
  ssta.set("yield", Json::number(result.ssta_yield));
  ssta.set("tau_p50_ns", Json::number(result.tau_p50_ns));
  ssta.set("tau_p95_ns", Json::number(result.tau_p95_ns));
  ssta.set("tau_p99_ns", Json::number(result.tau_p99_ns));
  ssta.set("traversals", Json::number(result.ssta_traversals));
  j.set("ssta", std::move(ssta));

  Json mc = Json::object();
  mc.set("samples", Json::number(result.mc_samples));
  mc.set("yield", Json::number(result.mc_yield));
  mc.set("mean_mct_ns", Json::number(result.mc_mean_mct_ns));
  mc.set("std_mct_ns", Json::number(result.mc_std_mct_ns));
  mc.set("traversals", Json::number(result.mc_traversals));
  j.set("mc", std::move(mc));

  j.set("yield_abs_error", Json::number(result.yield_abs_error));

  Json recovery = Json::object();
  recovery.set("degraded", Json::boolean(result.degraded));
  if (result.degraded) recovery.set("fallback", Json::string(result.fallback));
  j.set("recovery", std::move(recovery));
  return j;
}

Json normalized_result(const Json& result) {
  Json r = result;
  if (r.has("dmopt")) {
    Json dm = r.get("dmopt");
    dm.set("runtime_s", Json::number(0.0));
    dm.set("solver_ms", Json::number(0.0));
    r.set("dmopt", std::move(dm));
  }
  if (r.has("dosepl")) {
    Json dp = r.get("dosepl");
    dp.set("runtime_s", Json::number(0.0));
    r.set("dosepl", std::move(dp));
  }
  if (r.has("stage_s")) r.set("stage_s", Json::number(0.0));
  return r;
}

}  // namespace doseopt::serve
