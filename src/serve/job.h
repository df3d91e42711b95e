// Job descriptions and results of the doseopt service.
//
// A job carries the same knobs as doseopt_cli: which Table I design, the
// size scale, an optional seed override, the DMopt formulation and its
// grid/smoothness/range parameters, width modulation, and the dosePl stage.
// Request schema (all fields optional except "design"):
//
//   { "id": "job-1", "design": "aes65", "scale": 0.05, "seed": 0,
//     "mode": "timing" | "leakage" | "ssta_yield", "grid": 10.0,
//     "delta": 2.0, "range": 5.0, "width": false, "dosepl": false,
//     "incremental": true, "deadline_ms": 0,
//     "tau": 0.0, "mc_samples": 0, "yield_target": 0.0 }
//
// Mode "ssta_yield" runs the analytic yield analysis (flow/ssta_yield.h)
// instead of a dose optimization; "yield_target" > 0 turns a "leakage" job
// into the yield-percentile constraint mode of DMopt.
//
// Results carry the golden per-stage metrics plus the optimized dose maps;
// every double is emitted with %.17g so comparisons against a direct
// flow:: invocation are bit-exact after a JSON round trip.
#pragma once

#include <cstdint>
#include <string>

#include "flow/optimize.h"
#include "flow/ssta_yield.h"
#include "gen/design_gen.h"
#include "serve/json.h"

namespace doseopt::serve {

/// Parsed job description.
struct JobSpec {
  std::string id;
  std::string design = "aes65";
  double scale = 1.0;
  std::uint64_t seed = 0;  ///< 0 = keep the design's default seed
  std::string mode = "timing";
  double grid_um = 5.0;
  double smoothness_delta = 2.0;
  double dose_range_pct = 5.0;
  bool modulate_width = false;
  bool run_dosepl = false;
  /// Incremental cutting-plane solve path (warm-started QP); false forces
  /// the cold A/B reference.  Golden results are identical either way.
  bool incremental = true;
  double deadline_ms = 0.0;  ///< 0 = no deadline
  // SSTA / yield knobs (mode "ssta_yield" and the yield-percentile DMopt).
  double tau_ns = 0.0;        ///< yield evaluation clock; 0 = nominal MCT
  int mc_samples = 0;         ///< MC cross-check samples; 0 = model default
  double yield_target = 0.0;  ///< DMopt yield percentile; 0 = off

  /// Parse from the kJobRequest JSON payload; throws doseopt::Error on
  /// malformed or out-of-range fields.
  static JobSpec from_json(const Json& j);
  Json to_json() const;

  /// The design spec this job runs on (scaled, seed-overridden).
  gen::DesignSpec design_spec() const;

  /// Flow controls equivalent to the CLI flags.
  flow::FlowOptions flow_options() const;

  /// Controls of the ssta_yield job kind (mode == "ssta_yield").
  flow::SstaYieldOptions ssta_options() const;

  /// Content hash of the fields that decide the *session* (design
  /// identity): design, scale, seed.  Jobs with equal session keys share a
  /// cached DesignContext; solver knobs differ per job.
  std::uint64_t session_key() const;

  /// Content hash of every field except id/deadline (full job identity).
  std::uint64_t job_key() const;
};

/// Serialize the deterministic portion of a flow result (plus wall-clock
/// runtime fields, which callers must exclude from bit-exact comparisons).
Json flow_result_to_json(const flow::FlowResult& result);

/// Serialize an ssta_yield result.  Every field is deterministic, so the
/// whole document participates in bit-exact served-vs-direct comparisons.
Json ssta_yield_result_to_json(const flow::SstaYieldResult& result);

/// Zero the wall-clock fields of a result document (dmopt.runtime_s,
/// dmopt.solver_ms, dosepl.runtime_s, stage_s) so that two executions of
/// the same deterministic job compare bit-exact through Json::dump().
/// Documents without those fields (ssta_yield) pass through unchanged.
/// Shared by the loadgen verifier, the router's hedge cross-check, and the
/// campaign driver's commit hashing.
Json normalized_result(const Json& result);

}  // namespace doseopt::serve
