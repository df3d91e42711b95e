#include "variation/yield.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "power/leakage.h"

namespace doseopt::variation {

using netlist::CellId;

namespace {

/// MCT distribution statistics over the sampled dies (shared by the batched
/// and scalar paths; identical inputs give identical outputs).
void finalize_stats(YieldResult& result) {
  double sum = 0.0, sum_sq = 0.0, leak_sum = 0.0;
  std::vector<double> mcts;
  mcts.reserve(result.dies.size());
  for (const DieSample& die : result.dies) {
    sum += die.mct_ns;
    sum_sq += die.mct_ns * die.mct_ns;
    leak_sum += die.leakage_uw;
    mcts.push_back(die.mct_ns);
  }
  const double n = static_cast<double>(result.dies.size());
  result.mean_mct_ns = sum / n;
  result.std_mct_ns =
      std::sqrt(std::max(0.0, sum_sq / n - result.mean_mct_ns *
                                               result.mean_mct_ns));
  result.mean_leakage_uw = leak_sum / n;
  std::sort(mcts.begin(), mcts.end());
  result.p95_mct_ns =
      mcts[static_cast<std::size_t>(0.95 * (mcts.size() - 1))];
}

}  // namespace

YieldAnalyzer::YieldAnalyzer(const netlist::Netlist* nl,
                             const place::Placement* placement,
                             liberty::LibraryRepository* repo,
                             const sta::Timer* timer, VariationModel model)
    : nl_(nl), placement_(placement), repo_(repo), timer_(timer),
      model_(model) {
  DOSEOPT_CHECK(nl_ && placement_ && repo_ && timer_,
                "YieldAnalyzer: null dependency");
  DOSEOPT_CHECK(model_.monte_carlo_samples > 0,
                "YieldAnalyzer: need at least one sample");
  DOSEOPT_CHECK(model_.systematic_sigma_nm >= 0.0 &&
                    model_.random_sigma_nm >= 0.0,
                "YieldAnalyzer: negative sigma");
  DOSEOPT_CHECK(model_.sta_batch_width >= 1 &&
                    model_.sta_batch_width <= sta::kBatchLanes,
                "YieldAnalyzer: sta_batch_width out of range");
}

std::vector<std::pair<double, double>> normalized_die_uv(
    const netlist::Netlist& nl, const place::Placement& placement) {
  const place::Die& die = placement.die();
  std::vector<std::pair<double, double>> uv(nl.cell_count());
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    uv[ci] = {2.0 * placement.x_um(id) / die.width_um - 1.0,
              2.0 * placement.y_um(id) / die.height_um - 1.0};
  }
  return uv;
}

std::vector<std::pair<double, double>> YieldAnalyzer::die_uv() const {
  return normalized_die_uv(*nl_, *placement_);
}

void YieldAnalyzer::sample_delta_l_into(
    std::uint64_t sample_seed,
    const std::vector<std::pair<double, double>>& uv,
    std::vector<double>& out, PolarSampler& sampler) const {
  Rng rng(sample_seed);

  // Spatially correlated ACLV residual: a random low-order polynomial field
  // over normalized die coordinates u, v in [-1, 1] (see systematic_basis;
  // the field's RMS over the die is systematic_sigma_nm).  One N(0,1) draw
  // per source, in basis order -- the same kSystematicSources the SSTA
  // engine carries sensitivities for.
  std::array<double, kSystematicSources> coef;
  for (double& c : coef) c = rng.normal();
  const double scale = systematic_scale(model_);

  // The per-cell random component draws one standard normal per cell, which
  // makes the draw the hot path of the whole Monte-Carlo loop (cell_count
  // draws per die, both engines): the polar block sampler generates them
  // from a log and a sqrt alone, two cells per pair, straight into `out`
  // (an odd cell count draws one spare normal, as a pair at a time did).
  const double sigma = model_.random_sigma_nm;
  const std::size_t cells = nl_->cell_count();
  out.resize(cells + cells % 2);
  sampler.draw(rng, out.size() / 2, out.data());

  for (std::size_t ci = 0; ci < cells; ++ci) {
    const auto [u, v] = uv[ci];
    // Left-associated accumulation in source order -- bitwise-identical to
    // the historical single-expression sum.
    const std::array<double, kSystematicSources> basis =
        systematic_basis(u, v);
    double field = coef[0] * basis[0];
    for (int k = 1; k < kSystematicSources; ++k) field += coef[k] * basis[k];
    out[ci] = scale * field + sigma * out[ci];
  }
  out.resize(cells);
}

std::vector<double> YieldAnalyzer::sample_delta_l_nm(
    std::uint64_t sample_seed) const {
  std::vector<double> dl;
  PolarSampler sampler;
  sample_delta_l_into(sample_seed, die_uv(), dl, sampler);
  return dl;
}

std::vector<std::uint64_t> YieldAnalyzer::die_seeds(
    std::size_t samples) const {
  // Per-die seeds drawn serially so the sample set is independent of the
  // worker count; each die is then a pure function of its seed.
  std::vector<std::uint64_t> die_seed(samples);
  Rng seeder(model_.seed);
  for (std::uint64_t& s : die_seed) s = seeder.next_u64();
  return die_seed;
}

void YieldAnalyzer::warm_repo(const sta::VariantAssignment& base,
                              ThreadPool& p) const {
  // Variation only shifts the poly index, so every variant a die can touch
  // lives on {all poly indices} x {active indices present in the base
  // assignment}.  Warm them up front: afterwards the workers' repository
  // accesses (STA cell resolution and leakage sums) are read-only.
  std::vector<bool> active_used(liberty::kVariantsPerLayer, false);
  for (std::size_t ci = 0; ci < nl_->cell_count(); ++ci)
    active_used[static_cast<std::size_t>(
        base.get(static_cast<CellId>(ci)).second)] = true;
  std::vector<std::pair<int, int>> keys;
  for (int iw = 0; iw < liberty::kVariantsPerLayer; ++iw) {
    if (!active_used[iw]) continue;
    for (int il = 0; il < liberty::kVariantsPerLayer; ++il)
      keys.emplace_back(il, iw);
  }
  repo_->warm(keys, &p);
}

YieldResult YieldAnalyzer::analyze(const sta::VariantAssignment& base,
                                   ThreadPool* pool) const {
  DOSEOPT_CHECK(base.size() == nl_->cell_count(),
                "YieldAnalyzer: assignment size mismatch");
  YieldResult result;
  const auto samples = static_cast<std::size_t>(model_.monte_carlo_samples);
  const std::size_t cell_count = nl_->cell_count();
  const std::vector<std::uint64_t> die_seed = die_seeds(samples);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  warm_repo(base, p);

  const std::vector<std::pair<double, double>> uv = die_uv();
  std::vector<int> base_il(cell_count), base_iw(cell_count);
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const auto [il, iw] = base.get(static_cast<CellId>(ci));
    base_il[ci] = il;
    base_iw[ci] = iw;
  }

  // Leakage lookup table keyed (master, active, poly): exactly the values
  // power::total_leakage_uw reads, gathered once here so the per-die sum is
  // a plain array walk instead of cell_count mutexed repository lookups.
  // Each cell gets a row pointer into its (master, active) slice, indexed by
  // the sampled poly index.
  constexpr int V = liberty::kVariantsPerLayer;
  std::vector<bool> iw_used(V, false);
  for (std::size_t ci = 0; ci < cell_count; ++ci) iw_used[base_iw[ci]] = true;
  const std::size_t masters = repo_->variant(V / 2, V / 2).cell_count();
  std::vector<double> leak_lut(masters * V * V, 0.0);
  for (int iw = 0; iw < V; ++iw) {
    if (!iw_used[iw]) continue;
    for (int il = 0; il < V; ++il) {
      const liberty::Library& L = repo_->variant(il, iw);
      for (std::size_t m = 0; m < masters; ++m)
        leak_lut[(m * V + static_cast<std::size_t>(iw)) * V +
                 static_cast<std::size_t>(il)] = L.cell(m).leakage_nw;
    }
  }
  std::vector<const double*> leak_row(cell_count);
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const std::size_t master =
        nl_->cell(static_cast<CellId>(ci)).master_index;
    leak_row[ci] =
        &leak_lut[(master * V + static_cast<std::size_t>(base_iw[ci])) * V];
  }

  const int width =
      std::clamp(model_.sta_batch_width, 1, sta::kBatchLanes);
  const std::size_t batches = (samples + width - 1) / width;
  const sta::BatchedTimer batched(timer_);
  constexpr int K = sta::kBatchLanes;

  // Per-worker scratch: the batched workspace, the normal sampler, one
  // delta-L buffer per lane, the lane-major poly-index panel (shared by
  // timing and the leakage gather), and a persistent scalar state for
  // degraded-lane re-timing.
  struct LaneScratch {
    sta::BatchWorkspace ws;
    PolarSampler sampler;
    std::array<std::vector<double>, sta::kBatchLanes> dl;
    std::vector<std::uint8_t> idx;
    sta::TimingState fb_state;
  };
  std::vector<LaneScratch> scratch(static_cast<std::size_t>(p.lane_count()));
  std::vector<std::uint8_t> fallback(samples, 0);

  result.dies.assign(samples, DieSample{});
  p.parallel_for_lane(batches, [&](int lane, std::size_t b) {
    LaneScratch& sc = scratch[static_cast<std::size_t>(lane)];
    const std::size_t s0 = b * static_cast<std::size_t>(width);
    const int k = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(width), samples - s0));

    sc.idx.resize(cell_count * K);
    for (int l = 0; l < k; ++l)
      sample_delta_l_into(die_seed[s0 + static_cast<std::size_t>(l)], uv,
                          sc.dl[l], sc.sampler);
    for (std::size_t ci = 0; ci < cell_count; ++ci) {
      // The assigned variant already encodes the dose-driven delta-L; the
      // variation adds to it (1 nm of delta-L per variant index step,
      // positive delta-L = lower index).
      for (int l = 0; l < k; ++l)
        sc.idx[ci * K + l] = static_cast<std::uint8_t>(
            liberty::shifted_poly_index(base_il[ci], sc.dl[l][ci]));
    }

    const sta::BatchTimingResult br = batched.analyze_batch_indices(
        base, sc.idx.data(), k, sc.ws, /*want_cells=*/false,
        /*want_slacks=*/false);
    for (int l = 0; l < k; ++l) {
      const std::size_t s = s0 + static_cast<std::size_t>(l);
      DieSample& die = result.dies[s];
      if (br.lane_ok[l]) {
        die.mct_ns = br.mct_ns[l];
      } else {
        // Degraded lane: re-time this die with the scalar engine off the
        // same poly indices (bit-identical recovery).
        sta::VariantAssignment va = base;
        for (std::size_t ci = 0; ci < cell_count; ++ci)
          va.set(static_cast<CellId>(ci), sc.idx[ci * K + l], base_iw[ci]);
        die.mct_ns = timer_->update(sc.fb_state, va).mct_ns;
        fallback[s] = 1;
      }
      double total_nw = 0.0;
      for (std::size_t ci = 0; ci < cell_count; ++ci)
        total_nw += leak_row[ci][sc.idx[ci * K + l]];
      die.leakage_uw = total_nw * 1e-3;
    }
  });

  for (std::uint8_t f : fallback)
    result.scalar_fallback_dies += static_cast<int>(f);
  finalize_stats(result);
  return result;
}

YieldResult YieldAnalyzer::analyze_scalar(const sta::VariantAssignment& base,
                                          ThreadPool* pool) const {
  DOSEOPT_CHECK(base.size() == nl_->cell_count(),
                "YieldAnalyzer: assignment size mismatch");
  YieldResult result;
  const auto samples = static_cast<std::size_t>(model_.monte_carlo_samples);
  const std::vector<std::uint64_t> die_seed = die_seeds(samples);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  warm_repo(base, p);

  const std::vector<std::pair<double, double>> uv = die_uv();
  result.dies.assign(samples, DieSample{});
  std::vector<sta::TimingState> lane_state(
      static_cast<std::size_t>(p.lane_count()));
  std::vector<std::vector<double>> lane_dl(
      static_cast<std::size_t>(p.lane_count()));
  std::vector<PolarSampler> lane_sampler(
      static_cast<std::size_t>(p.lane_count()));
  p.parallel_for_lane(samples, [&](int lane, std::size_t s) {
    std::vector<double>& dl = lane_dl[static_cast<std::size_t>(lane)];
    sample_delta_l_into(die_seed[s], uv, dl,
                        lane_sampler[static_cast<std::size_t>(lane)]);
    sta::VariantAssignment va = base;
    for (std::size_t ci = 0; ci < nl_->cell_count(); ++ci) {
      const auto id = static_cast<CellId>(ci);
      const auto [ip, iw] = base.get(id);
      va.set(id, liberty::shifted_poly_index(ip, dl[ci]), iw);
    }
    DieSample& die = result.dies[s];
    die.mct_ns = timer_->update(lane_state[static_cast<std::size_t>(lane)], va)
                     .mct_ns;
    die.leakage_uw = power::total_leakage_uw(*nl_, *repo_, va);
  });

  finalize_stats(result);
  return result;
}

double YieldResult::yield_at(double clock_ns) const {
  if (dies.empty()) return 0.0;
  std::size_t pass = 0;
  for (const DieSample& die : dies)
    if (die.mct_ns <= clock_ns) ++pass;
  return static_cast<double>(pass) / static_cast<double>(dies.size());
}

}  // namespace doseopt::variation
