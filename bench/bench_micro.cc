// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// library characterization, full STA, incremental STA, top-K path
// enumeration (AES-65 at 10 % and full size), the polar normal sampler, the
// SSTA endpoint panel and whole SSTA analysis, serial CSR products, QP
// solves, parasitic extraction, and the complete DMopt QP on a small design.
//
// Besides the google-benchmark console output, a run without
// --benchmark_filter first hand-times the four kernels the perf trajectory
// is tracked on -- full STA, incremental STA after a 2-cell swap, a QP
// solve, and one library characterization -- and writes them as ns/op to
// BENCH_micro.json so future changes can diff machine-readable numbers.
// The STA pair runs at full Table-I AES-65 scale (the incremental-speedup
// acceptance point).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "dmopt/dmopt.h"
#include "flow/context.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/sparse.h"
#include "qp/qp_solver.h"
#include "ssta/ssta.h"

using namespace doseopt;

namespace {

flow::DesignContext& small_ctx() {
  static flow::DesignContext* ctx =
      new flow::DesignContext(gen::aes65_spec().scaled(0.1));
  return *ctx;
}

flow::DesignContext& aes_ctx() {
  static flow::DesignContext* ctx =
      new flow::DesignContext(gen::aes65_spec());
  return *ctx;
}

void BM_CharacterizeLibrary(benchmark::State& state) {
  const tech::TechNode node = tech::make_tech_65nm();
  const tech::DeviceModel device(node);
  const auto masters = liberty::make_standard_masters(node);
  for (auto _ : state) {
    const liberty::Library lib =
        liberty::characterize(device, masters, 2.0, 0.0);
    benchmark::DoNotOptimize(lib.cell_count());
  }
}
BENCHMARK(BM_CharacterizeLibrary);

void BM_StaAnalyze(benchmark::State& state) {
  flow::DesignContext& ctx = small_ctx();
  sta::VariantAssignment va(ctx.netlist().cell_count());
  for (auto _ : state) {
    const sta::TimingResult r = ctx.timer().analyze(va);
    benchmark::DoNotOptimize(r.mct_ns);
  }
  state.counters["cells"] = static_cast<double>(ctx.netlist().cell_count());
}
BENCHMARK(BM_StaAnalyze);

void BM_StaAnalyzeBatch(benchmark::State& state) {
  flow::DesignContext& ctx = small_ctx();
  sta::VariantAssignment va(ctx.netlist().cell_count());
  const sta::BatchedTimer batched(&ctx.timer());
  sta::BatchWorkspace ws;
  const std::vector<const double*> lanes(sta::kBatchLanes, nullptr);
  for (auto _ : state) {
    const sta::BatchTimingResult r = batched.analyze_batch(va, lanes, ws);
    benchmark::DoNotOptimize(r.mct_ns[0]);
  }
  state.counters["cells"] = static_cast<double>(ctx.netlist().cell_count());
  state.counters["lanes"] = static_cast<double>(sta::kBatchLanes);
}
BENCHMARK(BM_StaAnalyzeBatch);

void BM_StaIncrementalSwap(benchmark::State& state) {
  flow::DesignContext& ctx = small_ctx();
  sta::VariantAssignment va(ctx.netlist().cell_count());
  sta::TimingState ts;
  ctx.timer().update(ts, va);
  const auto a = static_cast<netlist::CellId>(0);
  const auto b = static_cast<netlist::CellId>(ctx.netlist().cell_count() / 2);
  int flip = 0;
  for (auto _ : state) {
    flip ^= 1;
    const int v = 10 - flip;  // toggle so every update re-times a real cone
    va.set(a, v, 10);
    va.set(b, v, 10);
    const sta::TimingResult& r = ctx.timer().update(ts, va);
    benchmark::DoNotOptimize(r.mct_ns);
  }
  state.counters["cells"] = static_cast<double>(ctx.netlist().cell_count());
}
BENCHMARK(BM_StaIncrementalSwap);

void time_top_paths(benchmark::State& state, flow::DesignContext& ctx) {
  sta::VariantAssignment va(ctx.netlist().cell_count());
  const sta::TimingResult timing = ctx.timer().analyze(va);
  for (auto _ : state) {
    const auto paths = ctx.timer().top_paths(
        va, timing, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(paths.size());
  }
}

void BM_TopPaths(benchmark::State& state) { time_top_paths(state, small_ctx()); }
BENCHMARK(BM_TopPaths)->Arg(100)->Arg(1000)->Arg(10000);

// dosePl's call: K = 10 000 on full AES-65.
void BM_TopPathsFull(benchmark::State& state) {
  time_top_paths(state, aes_ctx());
}
BENCHMARK(BM_TopPathsFull)->Arg(10000)->Unit(benchmark::kMillisecond);

// One die's per-cell normals at full AES-65 scale: 5480 polar pairs per
// call, the Monte-Carlo sampler's block size.
void BM_PolarNormals(benchmark::State& state) {
  constexpr std::size_t kPairs = 5480;
  Rng rng(5480);
  PolarSampler sampler;
  std::vector<double> z(2 * kPairs);
  for (auto _ : state) {
    sampler.draw(rng, kPairs, z.data());
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kPairs));
}
BENCHMARK(BM_PolarNormals);

// The SSTA yield-curve kernel on its own: the endpoint panel over the
// endpoint forms of AES-65 at 5 % scale (809 cells, the yield_target
// design), 32768 samples on one lane.
void BM_EndpointPanel(benchmark::State& state) {
  static flow::DesignContext* ctx =
      new flow::DesignContext(gen::aes65_spec().scaled(0.05));
  const ssta::SstaTimer engine(&ctx->timer(), &ctx->placement(),
                               &ctx->coefficients(false),
                               variation::VariationModel{});
  ThreadPool one(1);
  const ssta::SstaResult forms = engine.analyze(
      sta::VariantAssignment(ctx->netlist().cell_count()), &one);
  for (auto _ : state) {
    const std::vector<double> samples = ssta::sample_endpoint_panel(
        forms.endpoints, 32768, engine.model().seed, one);
    benchmark::DoNotOptimize(samples.data());
  }
  state.counters["endpoints"] = static_cast<double>(forms.endpoints.size());
}
BENCHMARK(BM_EndpointPanel)->Unit(benchmark::kMillisecond);

// One whole SSTA analysis (base pass, level-scheduled form propagation,
// Clark endpoint fold, endpoint panel) of the same design at 1 and 4 lanes.
void BM_SstaAnalyze(benchmark::State& state) {
  static flow::DesignContext* ctx =
      new flow::DesignContext(gen::aes65_spec().scaled(0.05));
  const ssta::SstaTimer engine(&ctx->timer(), &ctx->placement(),
                               &ctx->coefficients(false),
                               variation::VariationModel{});
  const sta::VariantAssignment base(ctx->netlist().cell_count());
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const ssta::SstaResult r = engine.analyze(base, &pool);
    benchmark::DoNotOptimize(r.mean_mct_ns);
  }
}
BENCHMARK(BM_SstaAnalyze)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Serial CSR products (one lane): square n x n, 1-8 entries per row.
la::CsrMatrix make_csr(std::size_t n) {
  Rng rng(n);
  la::TripletMatrix t(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t count = 1 + rng.uniform_index(8);
    for (std::size_t k = 0; k < count; ++k)
      t.add(r, rng.uniform_index(n), rng.uniform(-1.0, 1.0));
  }
  return la::CsrMatrix(t);
}

la::Vec random_vec(std::size_t n) {
  Rng rng(n + 1);
  la::Vec v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void BM_CsrMultiply(benchmark::State& state) {
  const la::CsrMatrix a = make_csr(static_cast<std::size_t>(state.range(0)));
  const la::Vec x = random_vec(a.cols());
  la::Vec y;
  ThreadPool one(1);
  for (auto _ : state) {
    a.multiply(x, y, &one);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(a.nnz());
}
BENCHMARK(BM_CsrMultiply)->Arg(1000)->Arg(100000);

void BM_CsrMultiplyTranspose(benchmark::State& state) {
  const la::CsrMatrix a = make_csr(static_cast<std::size_t>(state.range(0)));
  const la::Vec x = random_vec(a.rows());
  la::Vec y;
  ThreadPool one(1);
  for (auto _ : state) {
    a.multiply_transpose(x, y, &one);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(a.nnz());
}
BENCHMARK(BM_CsrMultiplyTranspose)->Arg(1000)->Arg(100000);

void BM_Extract(benchmark::State& state) {
  flow::DesignContext& ctx = small_ctx();
  for (auto _ : state) {
    const extract::Parasitics p =
        extract::extract(ctx.placement(), ctx.node());
    benchmark::DoNotOptimize(p.net_count());
  }
}
BENCHMARK(BM_Extract);

qp::QpProblem make_qp_problem(std::size_t n) {
  Rng rng(99);
  la::TripletMatrix t(2 * n, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, 1.0);
  for (std::size_t r = 0; r < n; ++r)
    for (int k = 0; k < 3; ++k)
      t.add(n + r, rng.uniform_index(n), rng.uniform(-1, 1));
  qp::QpProblem prob;
  prob.p_diag.assign(n, 1.0);
  prob.q.assign(n, 0.0);
  for (auto& v : prob.q) v = rng.uniform(-1, 1);
  prob.a = la::CsrMatrix(t);
  prob.lower.assign(2 * n, -1.0);
  prob.upper.assign(2 * n, 1.0);
  return prob;
}

void BM_QpSolveBox(benchmark::State& state) {
  const qp::QpProblem prob =
      make_qp_problem(static_cast<std::size_t>(state.range(0)));
  qp::QpSolver solver;
  for (auto _ : state) {
    const qp::QpSolution sol = solver.solve(prob);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_QpSolveBox)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DmoptQp(benchmark::State& state) {
  flow::DesignContext& ctx = small_ctx();
  const liberty::CoefficientSet& coeffs = ctx.coefficients(false);
  dmopt::DmoptOptions opt;
  opt.grid_um = 10.0;
  for (auto _ : state) {
    dmopt::DoseMapOptimizer optimizer(
        &ctx.netlist(), &ctx.placement(), &ctx.parasitics(), &ctx.repo(),
        &coeffs, &ctx.timer(), &ctx.nominal_timing(), opt);
    const dmopt::DmoptResult r = optimizer.minimize_leakage();
    benchmark::DoNotOptimize(r.golden_leakage_uw);
  }
}
BENCHMARK(BM_DmoptQp)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_micro.json: hand-timed ns/op for the tracked kernels.
// ---------------------------------------------------------------------------

/// Median-free steady-state timing: warm up once, then run batches until
/// >= min_time elapsed and report mean ns/op.
template <typename Fn>
double time_ns_per_op(Fn&& fn, double min_time_s = 0.5) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up (touches lazy caches)
  std::size_t iters = 0;
  const auto t0 = clock::now();
  double elapsed;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < min_time_s && iters < 1000000);
  return elapsed * 1e9 / static_cast<double>(iters);
}

void write_bench_json(const char* path) {
  flow::DesignContext& ctx = aes_ctx();
  const std::size_t cells = ctx.netlist().cell_count();
  sta::VariantAssignment va(cells);

  const double full_ns =
      time_ns_per_op([&] { ctx.timer().analyze(va); });

  sta::TimingState ts;
  ctx.timer().update(ts, va);
  const auto a = static_cast<netlist::CellId>(0);
  const auto b = static_cast<netlist::CellId>(cells / 2);
  int flip = 0;
  const double incr_ns = time_ns_per_op([&] {
    flip ^= 1;
    const int v = 10 - flip;
    va.set(a, v, 10);
    va.set(b, v, 10);
    ctx.timer().update(ts, va);
  });

  const qp::QpProblem prob = make_qp_problem(1000);
  qp::QpSolver solver;
  const double qp_ns = time_ns_per_op([&] { solver.solve(prob); });

  const tech::TechNode node = tech::make_tech_65nm();
  const tech::DeviceModel device(node);
  const auto masters = liberty::make_standard_masters(node);
  const double char_ns = time_ns_per_op(
      [&] { liberty::characterize(device, masters, 2.0, 0.0); });

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"design\": \"aes65\",\n"
               "  \"cells\": %zu,\n"
               "  \"sta_full_ns_op\": %.1f,\n"
               "  \"sta_incremental_2swap_ns_op\": %.1f,\n"
               "  \"sta_incremental_speedup\": %.2f,\n"
               "  \"qp_solve_n1000_ns_op\": %.1f,\n"
               "  \"characterize_library_ns_op\": %.1f\n"
               "}\n",
               cells, full_ns, incr_ns, full_ns / incr_ns, qp_ns, char_ns);
  std::fclose(f);
  std::printf(
      "BENCH_micro.json: cells=%zu sta_full=%.0fns sta_incr=%.0fns "
      "(%.1fx) qp=%.0fns characterize=%.0fns\n",
      cells, full_ns, incr_ns, full_ns / incr_ns, qp_ns, char_ns);
}

// BENCH_sta.json: scalar full-pass vs batched (kBatchLanes dies/traversal)
// at full AES-65 scale -- the per-die cost ratio the batched Monte-Carlo
// throughput rides on.
void write_sta_json(const char* path) {
  flow::DesignContext& ctx = aes_ctx();
  const std::size_t cells = ctx.netlist().cell_count();
  sta::VariantAssignment va(cells);

  const double full_ns = time_ns_per_op([&] { ctx.timer().analyze(va); });

  const sta::BatchedTimer batched(&ctx.timer());
  sta::BatchWorkspace ws;
  const std::vector<const double*> lanes(sta::kBatchLanes, nullptr);
  const double batch_ns =
      time_ns_per_op([&] { batched.analyze_batch(va, lanes, ws); });
  const double per_lane_ns = batch_ns / sta::kBatchLanes;

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"design\": \"aes65\",\n"
               "  \"cells\": %zu,\n"
               "  \"lanes\": %d,\n"
               "  \"sta_scalar_ns_op\": %.1f,\n"
               "  \"sta_batch_ns_op\": %.1f,\n"
               "  \"sta_batch_ns_per_lane\": %.1f,\n"
               "  \"sta_batch_per_lane_speedup\": %.2f\n"
               "}\n",
               cells, sta::kBatchLanes, full_ns, batch_ns, per_lane_ns,
               full_ns / per_lane_ns);
  std::fclose(f);
  std::printf(
      "BENCH_sta.json: cells=%zu scalar=%.0fns batch(%d)=%.0fns "
      "per-lane=%.0fns (%.1fx)\n",
      cells, full_ns, sta::kBatchLanes, batch_ns, per_lane_ns,
      full_ns / per_lane_ns);
}

}  // namespace

int main(int argc, char** argv) {
  // The full-scale pass takes about a minute; a filtered run times only
  // the benchmarks it names.
  const bool filtered = std::any_of(argv + 1, argv + argc, [](const char* a) {
    return std::string_view(a).starts_with("--benchmark_filter");
  });
  if (!filtered) {
    write_bench_json("BENCH_micro.json");
    write_sta_json("BENCH_sta.json");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
