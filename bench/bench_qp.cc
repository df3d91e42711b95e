// Incremental cutting-plane solve path: cold vs warm A/B on the AES-65 QCP
// flow (minimize_cycle_time, the richest trajectory: a bisection probe
// sequence on top of the cutting-plane rounds).
//
// Cold and warm must walk the same trajectory -- identical cuts, rounds, and
// probes, with golden results the same doubles -- so the comparison is pure
// solver work: per-round constraint assembly (full rebuild vs append-only)
// and ADMM iterations (zero dual vs carried dual + cached scaling).
//
// Every heap allocation in the process is counted (operator new override
// below), so the table doubles as the scratch-reuse audit: the warm path
// must not allocate per iteration, only per fresh cut block.
//
// Writes BENCH_qp.json, stamped with nproc, pool lanes, build type and the
// revision named by $DOSEOPT_GIT_SHA (CI and whoever re-records the file
// set it; "unknown" otherwise), and fails (exit 1) when the warm path is
// less than 3x faster on total cutting-plane solve time, when it allocates
// more than half of what the cold rebuild path does, or when golden results
// diverge.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench_util.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "dmopt/dmopt.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// Count every operator new in the process (the array and sized forms
// forward here).  Pool threads allocate through the same override.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (::posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) ==
      0)
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace doseopt;

namespace {

struct ModeStats {
  dmopt::DmoptResult result;
  double assembly_ms = 0.0;
  double admm_ms = 0.0;
  double extract_ms = 0.0;
  double total_ms = 0.0;           ///< assembly + ADMM (the cost)
  double assembly_ns_per_round = 0.0;
  int rounds = 0;
  int admm_iterations = 0;
  std::size_t cuts = 0;
  std::uint64_t allocations = 0;   ///< operator new calls during the run
};

ModeStats run_mode(flow::DesignContext& ctx,
                   const liberty::CoefficientSet& coeffs, bool incremental) {
  dmopt::DmoptOptions opt;
  opt.grid_um = 10.0;
  opt.incremental = incremental;
  dmopt::DoseMapOptimizer optimizer(
      &ctx.netlist(), &ctx.placement(), &ctx.parasitics(), &ctx.repo(),
      &coeffs, &ctx.timer(), &ctx.nominal_timing(), opt);
  ModeStats s;
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  s.result = optimizer.minimize_cycle_time();
  s.allocations =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  const dmopt::CutTelemetry& t = s.result.telemetry;
  s.assembly_ms = static_cast<double>(t.assembly_ns) / 1e6;
  s.admm_ms = static_cast<double>(t.solve_ns) / 1e6;
  s.extract_ms = static_cast<double>(t.extract_ns) / 1e6;
  s.total_ms = s.assembly_ms + s.admm_ms;
  s.rounds = t.total_rounds;
  s.admm_iterations = t.total_admm_iterations;
  s.cuts = t.total_cuts;
  s.assembly_ns_per_round =
      t.total_rounds > 0
          ? static_cast<double>(t.assembly_ns) / t.total_rounds
          : 0.0;
  return s;
}

}  // namespace

int main() {
  bench::banner(
      "Incremental cutting-plane solve path -- cold vs warm-started QP "
      "(AES-65, QCP bisection)");

  const gen::DesignSpec spec = flow::scaled_spec(gen::aes65_spec());
  flow::DesignContext ctx(spec);
  const liberty::CoefficientSet& coeffs = ctx.coefficients(false);
  std::printf("nominal: MCT %.4f ns, leakage %.1f uW, %zu cells\n\n",
              ctx.nominal_mct_ns(), ctx.nominal_leakage_uw(),
              ctx.netlist().cell_count());

  const ModeStats cold = run_mode(ctx, coeffs, /*incremental=*/false);
  const ModeStats warm = run_mode(ctx, coeffs, /*incremental=*/true);

  TextTable t;
  t.set_header({"Mode", "Rounds", "Cuts", "ADMM iters", "Assembly (ms)",
                "ADMM (ms)", "Solve total (ms)", "Allocs", "DMopt (s)"});
  for (const auto* m : {&cold, &warm}) {
    t.add_row({m == &cold ? "cold (rebuild)" : "warm (incremental)",
               fmt_f(m->rounds, 0), fmt_f(static_cast<double>(m->cuts), 0),
               fmt_f(m->admm_iterations, 0), fmt_f(m->assembly_ms, 2),
               fmt_f(m->admm_ms, 2), fmt_f(m->total_ms, 2),
               fmt_f(static_cast<double>(m->allocations), 0),
               fmt_f(m->result.runtime_s, 2)});
  }
  t.print(std::cout);

  // Trajectory lock: the incremental path is a pure perf change.
  int variant_diffs = 0;
  for (std::size_t c = 0; c < ctx.netlist().cell_count(); ++c)
    if (cold.result.variants.get(static_cast<netlist::CellId>(c)) !=
        warm.result.variants.get(static_cast<netlist::CellId>(c)))
      ++variant_diffs;
  const bool bit_identical =
      cold.result.golden_mct_ns == warm.result.golden_mct_ns &&
      cold.result.golden_leakage_uw == warm.result.golden_leakage_uw &&
      cold.rounds == warm.rounds && cold.cuts == warm.cuts &&
      cold.result.bisection_probes == warm.result.bisection_probes &&
      variant_diffs == 0;

  const double speedup =
      warm.total_ms > 0.0 ? cold.total_ms / warm.total_ms : 0.0;
  const double assembly_speedup =
      warm.assembly_ms > 0.0 ? cold.assembly_ms / warm.assembly_ms : 0.0;
  // Scratch-reuse audit: the warm path re-solves every probe in place, so
  // it must allocate well under half of what the per-round rebuild does.
  const bool alloc_ok = warm.allocations * 2 < cold.allocations;
  std::printf(
      "\ngolden: cold MCT %.6f ns / %.1f uW, warm MCT %.6f ns / %.1f uW "
      "(%s, %d variant diffs)\n",
      cold.result.golden_mct_ns, cold.result.golden_leakage_uw,
      warm.result.golden_mct_ns, warm.result.golden_leakage_uw,
      bit_identical ? "bit-identical" : "DIVERGED", variant_diffs);
  std::printf("assembly speedup: %.1fx, ADMM iterations %d -> %d, "
              "allocations %llu -> %llu (%s)\n",
              assembly_speedup, cold.admm_iterations, warm.admm_iterations,
              static_cast<unsigned long long>(cold.allocations),
              static_cast<unsigned long long>(warm.allocations),
              alloc_ok ? "reused" : "NOT REUSED");
  std::printf("cutting-plane solve speedup: %.1fx %s\n", speedup,
              speedup >= 3.0 ? "(>= 3x: OK)" : "(below 3x target!)");

  const char* git_sha = std::getenv("DOSEOPT_GIT_SHA");
  std::FILE* f = std::fopen("BENCH_qp.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_qp: cannot write BENCH_qp.json\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"design\": \"aes65\",\n"
      "  \"nproc\": %u,\n"
      "  \"lanes\": %d,\n"
      "  \"build_type\": \"%s\",\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"scale\": %g,\n"
      "  \"grid_um\": 10.0,\n"
      "  \"cells\": %zu,\n"
      "  \"rounds\": %d,\n"
      "  \"cuts\": %zu,\n"
      "  \"bisection_probes\": %d,\n"
      "  \"cold\": {\"assembly_ms\": %.3f, \"assembly_ns_per_round\": %.0f,"
      " \"admm_iterations\": %d, \"admm_ms\": %.3f, \"solve_total_ms\":"
      " %.3f, \"allocations\": %llu, \"dmopt_s\": %.3f,"
      " \"golden_mct_ns\": %.17g, \"golden_leakage_uw\": %.17g},\n"
      "  \"warm\": {\"assembly_ms\": %.3f, \"assembly_ns_per_round\": %.0f,"
      " \"admm_iterations\": %d, \"admm_ms\": %.3f, \"solve_total_ms\":"
      " %.3f, \"allocations\": %llu, \"dmopt_s\": %.3f,"
      " \"golden_mct_ns\": %.17g, \"golden_leakage_uw\": %.17g},\n"
      "  \"assembly_speedup\": %.2f,\n"
      "  \"solve_speedup\": %.2f,\n"
      "  \"scratch_reused\": %s,\n"
      "  \"golden_bit_identical\": %s\n"
      "}\n",
      std::thread::hardware_concurrency(), ThreadPool::global().lane_count(),
      DOSEOPT_BUILD_TYPE, git_sha != nullptr ? git_sha : "unknown",
      flow::design_scale(), ctx.netlist().cell_count(), cold.rounds,
      cold.cuts, cold.result.bisection_probes, cold.assembly_ms,
      cold.assembly_ns_per_round, cold.admm_iterations, cold.admm_ms,
      cold.total_ms, static_cast<unsigned long long>(cold.allocations),
      cold.result.runtime_s, cold.result.golden_mct_ns,
      cold.result.golden_leakage_uw, warm.assembly_ms,
      warm.assembly_ns_per_round, warm.admm_iterations, warm.admm_ms,
      warm.total_ms, static_cast<unsigned long long>(warm.allocations),
      warm.result.runtime_s, warm.result.golden_mct_ns,
      warm.result.golden_leakage_uw, assembly_speedup, speedup,
      alloc_ok ? "true" : "false", bit_identical ? "true" : "false");
  std::fclose(f);
  std::printf("BENCH_qp.json written\n");
  return (speedup >= 3.0 && bit_identical && alloc_ok) ? 0 : 1;
}
