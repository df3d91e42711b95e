#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "dmopt/dmopt.h"
#include "doseplace/doseplace.h"
#include "flow/context.h"
#include "flow/optimize.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/server.h"
#include "serve_trace.h"
#include "stats.h"
#include "trace.h"
#include "variation/yield.h"

namespace lanebench {

namespace {

using Clock = std::chrono::steady_clock;
namespace flow = doseopt::flow;
namespace serve = doseopt::serve;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Repetitions of the context build + fit, and of the whole serve set-up,
// whose median goes into setup_s.
constexpr int kSetupReps = 5;
// Failure messages kept per run (every failure is still counted).
constexpr std::size_t kMaxFailureMessages = 8;

// ---------------------------------------------------------------------------
// Bookkeeping shared by the workloads.

class Fingerprint {
 public:
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::int64_t v) { add_bytes(&v, sizeof v); }
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void note_failure(RunReport& r, const std::string& what) {
  ++r.failed;
  if (r.failures.size() < kMaxFailureMessages) r.failures.push_back(what);
}

void put(RunReport& r, const std::string& name, double value,
         const char* unit) {
  r.metrics[name] = Metric{value, unit};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Run `op(i)` until `seconds` have passed and at least `min_ops` ran.  op
// returns "" on success or a failure message; a throw is a failure too.
std::vector<double> timed_loop(
    RunReport& r, double seconds, std::size_t min_ops,
    const std::function<std::string(std::size_t)>& op) {
  std::vector<double> lat_ms;
  const auto t_start = Clock::now();
  for (std::size_t i = 0;
       i < min_ops || ms_since(t_start) < seconds * 1000.0; ++i) {
    std::string why;
    const auto t0 = Clock::now();
    try {
      why = op(i);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    lat_ms.push_back(ms_since(t0));
    ++r.attempted;
    if (!why.empty()) note_failure(r, "op " + std::to_string(i) + ": " + why);
  }
  return lat_ms;
}

// Share of an op's time that `spans_per_op` enabled spans add, from the mean
// cost of a span on a scratch tracer.
double trace_overhead_pct(double spans_per_op, double op_ms) {
  constexpr int kProbe = 20000;
  Tracer probe(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kProbe; ++i) Tracer::Scope s(probe, "probe", i);
  const double ns_per_span = ms_since(t0) * 1e6 / kProbe;
  return op_ms > 0.0 ? 100.0 * spans_per_op * ns_per_span / (op_ms * 1e6)
                     : 0.0;
}

// Per-op unattributed share (each op's, and their median) and the tracing
// overhead, from the root "op" spans.
void report_span_sanity(RunReport& r, const Tracer& tracer, double op_ms) {
  const std::vector<Span> spans = tracer.spans();
  std::vector<double> unattributed;
  std::size_t op_spans = 0;
  std::size_t ops = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op < 0) continue;
    ++op_spans;
    if (spans[i].name == "op") {
      ++ops;
      unattributed.push_back(unattributed_pct(spans, static_cast<int>(i)));
    }
  }
  std::string per_op;
  for (const double u : unattributed)
    per_op += (per_op.empty() ? "" : " ") + std::to_string(u);
  r.info["unattributed_pct_per_op"] = per_op;
  put(r, "flow.unattributed_pct", median(unattributed), "%");
  put(r, "trace.overhead_pct",
      trace_overhead_pct(ops > 0 ? static_cast<double>(op_spans) / ops : 0.0,
                         op_ms),
      "%");
  r.info["spans"] = std::to_string(spans.size());
}

void check_pool_lanes(int lanes) {
  const int got = doseopt::ThreadPool::global().lane_count();
  if (got != lanes)
    throw std::runtime_error("process pool has " + std::to_string(got) +
                             " lanes, expected " + std::to_string(lanes) +
                             " (set DOSEOPT_THREADS)");
}

// The Table I testcase.  Its generator seed stays fixed: the work one flow
// does varies by +/-25 % across generated designs, which no run-to-run bound
// could absorb, so the benchmark seed drives only inputs that leave the work
// per op unchanged (die seeds and the serve trace).
doseopt::gen::DesignSpec table_spec(const char* name, double scale) {
  doseopt::gen::DesignSpec spec = doseopt::gen::spec_by_name(name);
  return scale < 1.0 ? spec.scaled(scale) : spec;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// The context build and, when `fit`, the coefficient fit, repeated
// kSetupReps times from scratch; keeps the last context.  setup_s adds one
// warm-up op on it, which fills its lazily characterized variant libraries.
struct BuiltContext {
  std::unique_ptr<flow::DesignContext> ctx;
  double build_fit_ms = 0.0;  ///< median
  double build_ms = 0.0;      ///< median
  double fit_ms = 0.0;        ///< median; 0 when not fitted
};
BuiltContext build_context(const doseopt::gen::DesignSpec& spec, bool fit,
                           Tracer& tracer) {
  BuiltContext out;
  std::vector<double> build_fit, build, fitv;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.ctx.reset();
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "context.build");
      out.ctx = std::make_unique<flow::DesignContext>(spec);
    }
    build.push_back(ms_since(t0));
    if (fit) {
      const auto t1 = Clock::now();
      Tracer::Scope s(tracer, "liberty.fit");
      out.ctx->coefficients(/*width=*/false);
      fitv.push_back(ms_since(t1));
    }
    build_fit.push_back(ms_since(t0));
  }
  out.build_fit_ms = median(build_fit);
  out.build_ms = median(build);
  out.fit_ms = median(fitv);
  return out;
}

// Milliseconds `fn` takes, inside a span named `name`.
double timed_span(Tracer& tracer, const char* name,
                  const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  Tracer::Scope s(tracer, name);
  fn();
  return ms_since(t0);
}

// ---------------------------------------------------------------------------
// The paper flow (flow_aes65, yield_target).

void fingerprint_flow(Fingerprint& fp, const flow::FlowResult& f) {
  fp.add(f.nominal_mct_ns);
  fp.add(f.nominal_leakage_uw);
  fp.add(f.dmopt.model_mct_ns);
  fp.add(f.dmopt.model_delta_leakage_uw);
  fp.add(f.dmopt.golden_mct_ns);
  fp.add(f.dmopt.golden_leakage_uw);
  for (const double d : f.dmopt.poly_map.doses()) fp.add(d);
  for (std::size_t c = 0; c < f.dmopt.variants.size(); ++c) {
    const auto [p, a] = f.dmopt.variants.get(static_cast<doseopt::netlist::CellId>(c));
    fp.add(static_cast<std::int64_t>(p));
    fp.add(static_cast<std::int64_t>(a));
  }
  fp.add(f.dmopt.ssta_yield);
  fp.add(f.dmopt.mc_yield);
  fp.add(static_cast<std::int64_t>(f.dmopt.yield_rollbacks));
  fp.add(static_cast<std::int64_t>(f.dosepl.swaps_accepted));
  fp.add(static_cast<std::int64_t>(f.dosepl.rounds_accepted));
  fp.add(f.final_mct_ns);
  fp.add(f.final_leakage_uw);
}

// run_flow's body with a span around each public call, so the traced op
// reproduces run_flow's goldens exactly while attributing its time.
flow::FlowResult traced_flow(flow::DesignContext& ctx,
                             const flow::FlowOptions& options, Tracer& tracer,
                             double* dmopt_ms, double* dosepl_ms) {
  flow::FlowResult result;
  result.nominal_mct_ns = ctx.nominal_mct_ns();
  result.nominal_leakage_uw = ctx.nominal_leakage_uw();
  const doseopt::liberty::CoefficientSet* coeffs = nullptr;
  {
    Tracer::Scope s(tracer, "liberty.coefficients");
    coeffs = &ctx.coefficients(options.dmopt.modulate_width);
  }
  auto t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "dmopt");
    doseopt::dmopt::DoseMapOptimizer optimizer(
        &ctx.netlist(), &ctx.placement(), &ctx.parasitics(), &ctx.repo(),
        coeffs, &ctx.timer(), &ctx.nominal_timing(), options.dmopt);
    result.dmopt = options.mode == flow::DmoptMode::kMinimizeLeakage
                       ? optimizer.minimize_leakage()
                       : optimizer.minimize_cycle_time();
  }
  *dmopt_ms = ms_since(t0);
  result.final_mct_ns = result.dmopt.golden_mct_ns;
  result.final_leakage_uw = result.dmopt.golden_leakage_uw;
  *dosepl_ms = 0.0;
  if (options.run_dose_placement) {
    t0 = Clock::now();
    Tracer::Scope s(tracer, "doseplace");
    doseopt::doseplace::DosePlacer placer(&ctx.netlist(), &ctx.placement(),
                                          &ctx.parasitics(), &ctx.repo(),
                                          &ctx.timer(), options.dosepl);
    const doseopt::dose::DoseMap* active =
        result.dmopt.active_map ? &*result.dmopt.active_map : nullptr;
    result.dosepl =
        placer.run(result.dmopt.poly_map, active, result.dmopt.variants);
    result.dosepl_run = true;
    result.final_mct_ns = result.dosepl.final_mct_ns;
    result.final_leakage_uw = result.dosepl.final_leakage_uw;
    *dosepl_ms = ms_since(t0);
  }
  return result;
}

struct FlowWorkload {
  const char* design;
  double scale;
  flow::FlowOptions options;
  // Per-op output check; "" when the result is acceptable.
  std::function<std::string(const flow::FlowResult&)> check;
  // End-to-end quality of the (deterministic) result, percent.
  std::function<double(const flow::FlowResult&)> quality;
};

RunReport run_flow_workload(const RunConfig& cfg, const FlowWorkload& w) {
  RunReport r;
  Tracer tracer(cfg.trace);
  check_pool_lanes(cfg.lanes);
  const doseopt::gen::DesignSpec spec = table_spec(w.design, w.scale);
  BuiltContext built = build_context(spec, /*fit=*/true, tracer);
  flow::DesignContext& ctx = *built.ctx;
  r.info["cells"] = std::to_string(ctx.netlist().cell_count());
  // dosePl moves cells, so every op starts from the pristine placement.
  const doseopt::place::Placement pristine_placement = ctx.placement();
  const doseopt::extract::Parasitics pristine_parasitics = ctx.parasitics();
  const auto restore = [&] {
    ctx.placement() = pristine_placement;
    ctx.parasitics() = pristine_parasitics;
  };
  // The warm-up op runs flow::run_flow; every timed op must match its
  // goldens.
  flow::FlowResult ref;
  const double warmup_ms = timed_span(tracer, "warmup", [&] {
    ref = flow::run_flow(ctx, w.options);
    restore();
  });
  Fingerprint ref_fp;
  fingerprint_flow(ref_fp, ref);
  if (const std::string why = w.check(ref); !why.empty())
    throw std::runtime_error("warm-up op failed its check: " + why);

  struct Sample {
    flow::FlowResult f;
    double dmopt_ms = 0.0;   ///< traced runs only
    double dosepl_ms = 0.0;  ///< traced runs only
  };
  std::vector<Sample> samples;
  const std::vector<double> lat = timed_loop(
      r, cfg.seconds, /*min_ops=*/1, [&](std::size_t i) -> std::string {
        Sample& s = samples.emplace_back();
        if (cfg.trace) {
          Tracer::Scope op(tracer, "op", static_cast<int>(i));
          s.f = traced_flow(ctx, w.options, tracer, &s.dmopt_ms, &s.dosepl_ms);
        } else {
          s.f = flow::run_flow(ctx, w.options);
        }
        restore();
        if (std::string why = w.check(s.f); !why.empty()) return why;
        Fingerprint fp;
        fingerprint_flow(fp, s.f);
        if (fp.value() != ref_fp.value())
          return "goldens differ from the run_flow reference";
        return "";
      });
  // Median over the ops of one field of their samples.
  const auto med = [&](const std::function<double(const Sample&)>& field) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(field(s));
    return median(v);
  };

  const double p50 = median(lat);
  put(r, "setup_s", (built.build_fit_ms + warmup_ms) / 1e3, "s");
  put(r, "latency_p50_ms", p50, "ms");
  put(r, "throughput_per_s", p50 > 0.0 ? 1e3 / p50 : 0.0, "1/s");
  put(r, "quality_pct", med([&](const Sample& s) { return w.quality(s.f); }),
      "%");
  put(r, "peak_rss_mb", peak_rss_mb(), "MB");
  r.info["ops"] = std::to_string(lat.size());
  if (!cfg.trace) return r;

  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto tel = [](const Sample& s) -> const doseopt::dmopt::CutTelemetry& {
    return s.f.dmopt.telemetry;
  };
  const double dm = med([](const Sample& s) { return s.dmopt_ms; });
  const double as = med([&](const Sample& s) { return ms(tel(s).assembly_ns); });
  const double ad = med([&](const Sample& s) { return ms(tel(s).solve_ns); });
  const double ex = med([&](const Sample& s) { return ms(tel(s).extract_ns); });
  put(r, "context.build_ms", built.build_ms, "ms");
  put(r, "liberty.fit_ms", built.fit_ms, "ms");
  put(r, "dmopt.ms", dm, "ms");
  put(r, "dmopt.assembly_ms", as, "ms");
  put(r, "dmopt.cut_extract_ms", ex, "ms");
  put(r, "dmopt.other_ms", dm - as - ad - ex, "ms");
  put(r, "dmopt.rounds", med([&](const Sample& s) { return tel(s).total_rounds; }),
      "count");
  put(r, "dmopt.cuts",
      med([&](const Sample& s) { return static_cast<double>(tel(s).total_cuts); }),
      "count");
  put(r, "dmopt.probes",
      med([](const Sample& s) { return s.f.dmopt.bisection_probes; }), "count");
  put(r, "qp.admm_ms", ad, "ms");
  put(r, "qp.admm_iterations",
      med([&](const Sample& s) { return tel(s).total_admm_iterations; }),
      "count");
  put(r, "qp.us_per_iteration", med([&](const Sample& s) {
        const int it = tel(s).total_admm_iterations;
        return it > 0 ? ms(tel(s).solve_ns) * 1e3 / it : 0.0;
      }),
      "us");
  put(r, "qp.cold_fallbacks",
      med([&](const Sample& s) { return tel(s).qp_cold_fallbacks; }), "count");
  put(r, "pool.lanes", cfg.lanes, "count");
  if (w.options.run_dose_placement) {
    put(r, "doseplace.ms", med([](const Sample& s) { return s.dosepl_ms; }),
        "ms");
    put(r, "doseplace.rounds",
        med([](const Sample& s) { return s.f.dosepl.rounds_run; }), "count");
    put(r, "doseplace.accept_ratio", med([](const Sample& s) {
          const auto& d = s.f.dosepl;
          return d.rounds_run > 0
                     ? static_cast<double>(d.rounds_accepted) / d.rounds_run
                     : 0.0;
        }),
        "ratio");
    put(r, "doseplace.swaps",
        med([](const Sample& s) { return s.f.dosepl.swaps_accepted; }), "count");
  }
  if (w.options.dmopt.yield_target > 0.0) {
    put(r, "yield.rollbacks",
        med([](const Sample& s) { return s.f.dmopt.yield_rollbacks; }), "count");
    put(r, "yield.mc_yield_pct",
        med([](const Sample& s) { return 100.0 * s.f.dmopt.mc_yield; }), "%");
    put(r, "yield.model_gap_pct", med([](const Sample& s) {
          return 100.0 * std::fabs(s.f.dmopt.ssta_yield - s.f.dmopt.mc_yield);
        }),
        "%");
  }
  report_span_sanity(r, tracer, p50);
  if (!cfg.trace_path.empty()) tracer.write_chrome_json(cfg.trace_path);
  return r;
}

RunReport flow_aes65(const RunConfig& cfg) {
  FlowWorkload w;
  w.design = "aes65";
  w.scale = 1.0;
  w.options.mode = flow::DmoptMode::kMinimizeCycleTime;
  w.options.dmopt.grid_um = 10.0;
  w.options.run_dose_placement = true;
  const double lo = w.options.dmopt.dose_lower_pct;
  const double hi = w.options.dmopt.dose_upper_pct;
  const double delta = w.options.dmopt.smoothness_delta;
  w.check = [=](const flow::FlowResult& f) -> std::string {
    // Dose range and smoothness hold to the QP solver's tolerance.
    if (!f.dmopt.poly_map.satisfies(lo, hi, delta, 1e-4))
      return "dose map violates the +/-5 % range or 2 % smoothness";
    if (f.dmopt.golden_leakage_uw > f.nominal_leakage_uw ||
        f.final_leakage_uw > f.nominal_leakage_uw)
      return "golden leakage above nominal";
    if (f.final_mct_ns > f.nominal_mct_ns) return "final MCT above nominal";
    return "";
  };
  w.quality = [](const flow::FlowResult& f) {
    return 100.0 * (f.nominal_mct_ns - f.final_mct_ns) / f.nominal_mct_ns;
  };
  return run_flow_workload(cfg, w);
}

RunReport yield_target(const RunConfig& cfg) {
  FlowWorkload w;
  w.design = "aes65";
  w.scale = 0.05;
  w.options.mode = flow::DmoptMode::kMinimizeLeakage;
  w.options.dmopt.grid_um = 10.0;
  w.options.dmopt.yield_target = 0.9;
  const double target = w.options.dmopt.yield_target;
  w.check = [=](const flow::FlowResult& f) -> std::string {
    if (f.dmopt.degraded) return "degraded result (" + f.dmopt.fallback + ")";
    if (f.dmopt.mc_yield < target) return "MC yield below the target";
    return "";
  };
  // Leakage kept, nominal / final (100 = no change): the negated leakage
  // change as a positive, higher-is-better figure.
  w.quality = [](const flow::FlowResult& f) {
    return 100.0 * f.nominal_leakage_uw / f.final_leakage_uw;
  };
  return run_flow_workload(cfg, w);
}

// ---------------------------------------------------------------------------
// Batched Monte-Carlo yield (yield_mc).

constexpr int kMcDies = 2000;

std::uint64_t die_checksum(const doseopt::variation::YieldResult& y) {
  Fingerprint fp;
  for (const auto& d : y.dies) {
    fp.add(d.mct_ns);
    fp.add(d.leakage_uw);
  }
  return fp.value();
}

RunReport yield_mc(const RunConfig& cfg) {
  RunReport r;
  Tracer tracer(cfg.trace);
  check_pool_lanes(cfg.lanes);
  const doseopt::gen::DesignSpec spec = table_spec("aes65", 1.0);
  BuiltContext built = build_context(spec, /*fit=*/false, tracer);
  flow::DesignContext& ctx = *built.ctx;
  r.info["cells"] = std::to_string(ctx.netlist().cell_count());
  r.info["dies_per_op"] = std::to_string(kMcDies);
  doseopt::variation::VariationModel model;
  model.monte_carlo_samples = kMcDies;
  model.seed = mix_seed(cfg.seed, 0xd1e5);
  const doseopt::variation::YieldAnalyzer analyzer(
      &ctx.netlist(), &ctx.placement(), &ctx.repo(), &ctx.timer(), model);
  const doseopt::sta::VariantAssignment nominal(ctx.netlist().cell_count());

  doseopt::variation::YieldResult warm;
  const double warmup_ms = timed_span(
      tracer, "warmup", [&] { warm = analyzer.analyze(nominal); });
  const std::uint64_t want = die_checksum(warm);

  // One-lane reference pass: the dies must not depend on the lane count,
  // and its rate is the base of the scaling efficiency.
  doseopt::ThreadPool one(1);
  doseopt::variation::YieldResult y1;
  const double one_lane_ms =
      timed_span(tracer, "reference.analyze_1lane",
                 [&] { y1 = analyzer.analyze(nominal, &one); });
  if (die_checksum(y1) != want)
    note_failure(r, "1-lane dies differ from the " +
                        std::to_string(cfg.lanes) + "-lane dies");
  // Timing yield, in percent, at a clock 5 % above the nominal MCT.
  constexpr double kGuardband = 1.05;
  const double quality =
      100.0 * warm.yield_at(kGuardband * ctx.nominal_mct_ns());

  std::vector<double> fallback;
  const std::vector<double> lat = timed_loop(
      r, cfg.seconds, /*min_ops=*/1, [&](std::size_t i) -> std::string {
        Tracer::Scope op(tracer, "op", static_cast<int>(i));
        doseopt::variation::YieldResult y;
        {
          Tracer::Scope s(tracer, "variation.analyze");
          y = analyzer.analyze(nominal);
        }
        fallback.push_back(y.scalar_fallback_dies);
        if (y.dies.size() != static_cast<std::size_t>(kMcDies))
          return "wrong die count";
        if (die_checksum(y) != want) return "die checksum differs across ops";
        return "";
      });
  // The reference pass is an op-level check: count it as attempted.
  ++r.attempted;

  const double p50 = median(lat);
  const double dies_per_s = p50 > 0.0 ? kMcDies * 1e3 / p50 : 0.0;
  put(r, "setup_s", (built.build_fit_ms + warmup_ms) / 1e3, "s");
  put(r, "latency_p50_ms", p50, "ms");
  put(r, "throughput_per_s", dies_per_s, "1/s");
  put(r, "quality_pct", quality, "%");
  put(r, "peak_rss_mb", peak_rss_mb(), "MB");
  r.info["ops"] = std::to_string(lat.size());
  r.info["one_lane_ms"] = std::to_string(one_lane_ms);
  if (!cfg.trace) return r;

  const double one_lane_rate = kMcDies * 1e3 / one_lane_ms;
  put(r, "context.build_ms", built.build_ms, "ms");
  put(r, "variation.mc_ms", p50, "ms");
  put(r, "variation.dies_per_s", dies_per_s, "1/s");
  put(r, "variation.scalar_fallback_dies", median(fallback), "count");
  put(r, "sta.batch_traversals",
      std::ceil(static_cast<double>(kMcDies) / model.sta_batch_width),
      "count");
  put(r, "pool.lanes", cfg.lanes, "count");
  put(r, "pool.scaling_efficiency", dies_per_s / (cfg.lanes * one_lane_rate),
      "ratio");
  report_span_sanity(r, tracer, p50);
  if (!cfg.trace_path.empty()) tracer.write_chrome_json(cfg.trace_path);
  return r;
}

// ---------------------------------------------------------------------------
// Job server under a closed-loop client mix (serve_mix).

constexpr int kServeLanes = 2;
constexpr int kServeClients = 3;
constexpr std::size_t kServeMinJobs = 100;
constexpr std::size_t kServeTraceJobs = 5000;

serve::JobSpec to_job(const ServeTrace& t, std::size_t i) {
  const TraceJob& j = t.jobs[i];
  const SessionDef& s = t.sessions[static_cast<std::size_t>(j.session)];
  serve::JobSpec spec;
  spec.id = "j" + std::to_string(i);
  spec.design = s.design;
  spec.scale = s.scale;
  spec.mode = j.mode;
  spec.grid_um = j.grid_um;
  spec.smoothness_delta = j.delta_pct;
  spec.dose_range_pct = j.range_pct;
  spec.run_dosepl = j.dosepl;
  return spec;
}

struct JobRecord {
  std::size_t index = 0;
  double latency_ms = 0.0;
  double stage_ms = 0.0;   ///< server context + coefficients + flow time
  double context_ms = 0.0;  ///< server context stage (build on a miss)
  double coeff_ms = 0.0;    ///< server coefficient stage (fit on a miss)
  bool ok = false;
  bool context_hit = false;
  bool result_hit = false;
  std::uint64_t job_key = 0;
  std::string normalized;  ///< normalized result document
  std::string error;
};

JobRecord submit_job(serve::Client& client, const ServeTrace& t,
                     std::size_t i) {
  JobRecord rec;
  rec.index = i;
  const serve::JobSpec spec = to_job(t, i);
  rec.job_key = spec.job_key();
  const auto t0 = Clock::now();
  try {
    const serve::Client::Reply reply = client.submit(spec);
    rec.latency_ms = ms_since(t0);
    rec.ok = reply.ok();
    if (!rec.ok) {
      rec.error = "reply not ok: " + reply.payload.dump();
      return rec;
    }
    const serve::Json& cache = reply.payload.get("cache");
    rec.context_hit = cache.get_bool("context_hit", false);
    rec.result_hit = cache.get_bool("result_hit", false);
    const serve::Json& st = reply.payload.get("stage_ms");
    rec.context_ms = st.get_number("context_ms", 0.0);
    rec.coeff_ms = st.get_number("coefficients_ms", 0.0);
    rec.stage_ms = rec.context_ms + rec.coeff_ms + st.get_number("flow_ms", 0.0);
    rec.normalized =
        serve::normalized_result(reply.payload.get("result")).dump();
  } catch (const std::exception& e) {
    rec.latency_ms = ms_since(t0);
    rec.ok = false;
    rec.error = std::string("threw: ") + e.what();
  }
  return rec;
}

// A server with its clients, built and warmed by one cold job outside the
// trace (the server's set-up as a user sees it).
struct ServeRig {
  std::string sock;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;

  ServeRig(const std::string& path, int lanes, int clients_n,
           const serve::JobSpec& warm) : sock(path) {
    ::unlink(sock.c_str());
    serve::ServerOptions so;
    so.uds_path = sock;
    so.lanes = lanes;
    server = std::make_unique<serve::Server>(so);
    server->start();
    for (int c = 0; c < clients_n; ++c) {
      clients.push_back(serve::Client::connect_unix_path(sock));
      clients.back().ping();
    }
    const serve::Client::Reply reply = clients.front().submit(warm);
    if (!reply.ok())
      throw std::runtime_error("serve warm-up job failed: " +
                               reply.payload.dump());
  }
  ~ServeRig() {
    clients.clear();
    if (server) server->stop();
    ::unlink(sock.c_str());
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
};

RunReport serve_mix(const RunConfig& cfg) {
  RunReport r;
  Tracer tracer(cfg.trace);
  check_pool_lanes(cfg.lanes);
  const int lanes = std::min(kServeLanes, nproc());
  const int clients_n = std::min(kServeClients, nproc());
  const ServeTrace trace = make_serve_trace(cfg.seed, kServeTraceJobs);
  r.info["server_lanes"] = std::to_string(lanes);
  r.info["clients"] = std::to_string(clients_n);
  r.info["sessions"] = std::to_string(trace.sessions.size());

  serve::JobSpec warm;
  warm.id = "warmup";
  warm.design = "aes65";
  warm.scale = 0.08;  // a session of its own, outside the trace
  warm.mode = "timing";
  warm.grid_um = 15.0;

  const std::string sock = "lanebench-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> setup_ms;
  std::unique_ptr<ServeRig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const auto t0 = Clock::now();
    Tracer::Scope s(tracer, "serve.setup");
    rig = std::make_unique<ServeRig>(sock, lanes, clients_n, warm);
    setup_ms.push_back(ms_since(t0));
  }

  // Closed loop: each client sends its next job when the previous replied.
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::vector<JobRecord> records;
  const auto t_start = Clock::now();
  const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(cfg.seconds));
  const auto client_loop = [&](int c) {
    serve::Client& client = rig->clients[static_cast<std::size_t>(c)];
    for (;;) {
      if (Clock::now() >= deadline && done.load() >= kServeMinJobs) break;
      const std::size_t i = cursor.fetch_add(1);
      if (i >= trace.jobs.size()) break;
      JobRecord rec;
      {
        Tracer::Scope op(tracer, "op", static_cast<int>(i));
        Tracer::Scope s(tracer, "serve.submit");
        rec = submit_job(client, trace, i);
      }
      done.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      records.push_back(std::move(rec));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients_n; ++c) threads.emplace_back(client_loop, c);
  for (auto& th : threads) th.join();
  const double wall_s = ms_since(t_start) / 1e3;
  const serve::Json metrics = rig->clients.front().metrics();

  std::sort(records.begin(), records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  std::map<std::uint64_t, const JobRecord*> by_key;
  std::vector<double> lat, cold, sweep, memo, cold_context, cold_coeff;
  double wait_sum = 0.0;
  std::size_t ok = 0;
  for (const JobRecord& rec : records) {
    ++r.attempted;
    lat.push_back(rec.latency_ms);
    if (!rec.ok) {
      note_failure(r, "job " + std::to_string(rec.index) + ": " + rec.error);
      continue;
    }
    ++ok;
    wait_sum += rec.latency_ms - rec.stage_ms;
    (rec.result_hit ? memo : rec.context_hit ? sweep : cold)
        .push_back(rec.latency_ms);
    if (!rec.context_hit) {
      cold_context.push_back(rec.context_ms);
      cold_coeff.push_back(rec.coeff_ms);
    }
    const auto [it, fresh] = by_key.emplace(rec.job_key, &rec);
    if (!fresh && it->second->normalized != rec.normalized)
      note_failure(r, "job " + std::to_string(rec.index) +
                          ": result differs from job " +
                          std::to_string(it->second->index) +
                          " with the same job key");
  }

  const Tail tail = tail_percentile(lat);
  const double p50 = median(lat);
  put(r, "setup_s", median(setup_ms) / 1e3, "s");
  put(r, "latency_p50_ms", p50, "ms");
  put(r, "throughput_per_s", static_cast<double>(records.size()) / wall_s, "1/s");
  // Share of jobs answered ok and bit-identical to their same-key peers.
  put(r, "quality_pct",
      100.0 * static_cast<double>(r.attempted - r.failed) /
          static_cast<double>(r.attempted),
      "%");
  put(r, "peak_rss_mb", peak_rss_mb(), "MB");
  r.info["jobs"] = std::to_string(records.size());
  r.info["jobs_cold_sweep_memo"] = std::to_string(cold.size()) + "/" +
                                   std::to_string(sweep.size()) + "/" +
                                   std::to_string(memo.size());
  r.info["latency_tail"] =
      tail.present ? "p" + std::to_string(tail.pct) + " = " +
                         std::to_string(tail.value) + " ms (" +
                         std::to_string(tail.samples) + " samples, " +
                         std::to_string(tail.beyond) + " beyond)"
                   : "omitted (" + std::to_string(tail.samples) +
                         " samples, fewer than 10 beyond p90)";

  if (cfg.trace) {
    const serve::Json& cache = metrics.get("cache");
    const serve::Json& jobs = metrics.get("jobs");
    const auto ratio = [&](const char* hit, const char* miss) {
      const double h = cache.get_number(hit, 0.0);
      const double m = cache.get_number(miss, 0.0);
      return h + m > 0.0 ? h / (h + m) : 0.0;
    };
    put(r, "context.build_ms", median(cold_context), "ms");
    put(r, "liberty.fit_ms", median(cold_coeff), "ms");
    put(r, "serve.cold_p50_ms", median(cold), "ms");
    put(r, "serve.sweep_p50_ms", median(sweep), "ms");
    put(r, "serve.memo_p50_ms", median(memo), "ms");
    put(r, "serve.tail_ms", tail.present ? tail.value : 0.0, "ms");
    put(r, "serve.wait_ms_per_job", ok > 0 ? wait_sum / ok : 0.0, "ms");
    put(r, "serve.context_hit_ratio", ratio("context_hits", "context_misses"),
        "ratio");
    put(r, "serve.result_hit_ratio", ratio("result_hits", "result_misses"),
        "ratio");
    put(r, "serve.rejected",
        jobs.get_number("rejected", 0.0) + jobs.get_number("shed", 0.0),
        "count");
    put(r, "serve.retried", jobs.get_number("retried", 0.0), "count");
    put(r, "serve.failed", jobs.get_number("failed", 0.0), "count");
    put(r, "pool.lanes", lanes, "count");
    report_span_sanity(r, tracer, p50);
    if (!cfg.trace_path.empty()) tracer.write_chrome_json(cfg.trace_path);
  }
  rig.reset();
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"flow_aes65", "yield_mc",
                                                  "serve_mix", "yield_target"};
  return kNames;
}

RunReport run_workload(const RunConfig& config) {
  if (config.workload == "flow_aes65") return flow_aes65(config);
  if (config.workload == "yield_mc") return yield_mc(config);
  if (config.workload == "serve_mix") return serve_mix(config);
  if (config.workload == "yield_target") return yield_target(config);
  throw std::runtime_error("unknown workload: " + config.workload);
}

}  // namespace lanebench
