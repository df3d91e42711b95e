// The four benchmark workloads.  Each runs in its own process, drives the
// program only through its public API (flow::DesignContext, flow::run_flow,
// dmopt::DoseMapOptimizer, doseplace::DosePlacer, variation::YieldAnalyzer,
// serve::Server / serve::Client), checks every op's output, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lanebench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  int lanes = 1;              ///< process-pool lanes the run is pinned to
  std::string trace_path;     ///< Chrome trace output ("" = none)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;  ///< timed ops
  std::size_t failed = 0;     ///< timed ops that threw or failed a check
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, std::string> info;  ///< sizes, sample counts, ...
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload; throws on a set-up failure (bad lanes, server start).
RunReport run_workload(const RunConfig& config);

}  // namespace lanebench
