// lanebench: run one benchmark workload in this process and print its report
// as one JSON line.  run.py builds this binary, pins the process pool, and
// turns the report into the benchmark's result line.
//
//   lanebench --workload flow_aes65 --seed 1 --seconds 10 --trace 0 --lanes 1
//             [--trace-out trace.json]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "serve/json.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: %s --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--lanes N] [--trace-out FILE]\n",
               why.c_str(), argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using doseopt::serve::Json;
  lanebench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--lanes") cfg.lanes = std::stoi(v);
      else if (a == "--trace-out") cfg.trace_path = v;
      else usage(argv[0], "unknown argument " + a);
    } catch (const std::logic_error&) {
      usage(argv[0], "bad value for " + a + ": " + v);
    }
  }
  if (cfg.workload.empty()) usage(argv[0], "--workload is required");
  if (!(cfg.seconds > 0.0)) usage(argv[0], "--seconds must be positive");
  if (cfg.lanes < 1) usage(argv[0], "--lanes must be >= 1");

  lanebench::RunReport report;
  try {
    report = lanebench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lanebench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  Json metrics = Json::object();
  for (const auto& [name, m] : report.metrics) {
    Json entry = Json::object();
    entry.set("value", Json::number(m.value));
    entry.set("unit", Json::string(m.unit));
    metrics.set(name, std::move(entry));
  }
  Json failures = Json::array();
  for (const std::string& f : report.failures) failures.push_back(Json::string(f));
  Json info = Json::object();
  for (const auto& [k, v] : report.info) info.set(k, Json::string(v));
  info.set("build_type", Json::string(LANEBENCH_BUILD_TYPE));
  info.set("compiler", Json::string(LANEBENCH_COMPILER));

  Json out = Json::object();
  out.set("workload", Json::string(cfg.workload));
  out.set("attempted", Json::number(static_cast<double>(report.attempted)));
  out.set("failed", Json::number(static_cast<double>(report.failed)));
  out.set("failures", std::move(failures));
  out.set("metrics", std::move(metrics));
  out.set("info", std::move(info));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
