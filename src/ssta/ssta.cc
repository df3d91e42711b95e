#include "ssta/ssta.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "extract/extract.h"
#include "faultinject/fault.h"

namespace doseopt::ssta {

using netlist::CellId;
using netlist::NetId;

namespace {

/// Poisons the propagated MCT form with a NaN -- models a corrupt NLDM
/// table or broken sensitivity fit surfacing mid-propagation.  Callers see
/// healthy == false and degrade to the Monte-Carlo yield path.
faultinject::FaultPoint g_fault_ssta_nan("ssta.nan");

constexpr double kInvSqrt2Pi = 0.3989422804014327;  // 1/sqrt(2*pi)

/// Variance floor below which x - y is treated as deterministic and the
/// max is exact (pick the larger mean).  Sigmas are O(1e-3..1) ns, so
/// 1e-24 ns^2 is far below representable variation yet above underflow.
constexpr double kDegenerateVariance = 1e-24;

/// Deviation form scaled by a sensitivity: means, shared sensitivities and
/// per-cell terms scale linearly (signed -- the sign carries correlation),
/// the independent remainder by |s|.
CanonicalForm form_scale(const CanonicalForm& x, double s) {
  CanonicalForm y;
  y.mean = s * x.mean;
  for (int k = 0; k < kSources; ++k) y.a[k] = s * x.a[k];
  if (s != 0.0) {
    y.rc.reserve(x.rc.size());
    for (const ResidualTerm& t : x.rc)
      y.rc.push_back(ResidualTerm{t.cell, s * t.coef});
  }
  y.r = std::fabs(s) * x.r;
  return y;
}

/// Merge two sorted per-cell supports: common cells add coefficients
/// (linearly -- same underlying Z), zero sums are dropped.
std::vector<ResidualTerm> merge_support(const std::vector<ResidualTerm>& x,
                                        const std::vector<ResidualTerm>& y) {
  std::vector<ResidualTerm> out;
  out.reserve(x.size() + y.size());
  std::size_t i = 0, j = 0;
  while (i < x.size() || j < y.size()) {
    if (j >= y.size() || (i < x.size() && x[i].cell < y[j].cell)) {
      out.push_back(x[i++]);
    } else if (i >= x.size() || y[j].cell < x[i].cell) {
      out.push_back(y[j++]);
    } else {
      const double c = x[i].coef + y[j].coef;
      if (c != 0.0) out.push_back(ResidualTerm{x[i].cell, c});
      ++i;
      ++j;
    }
  }
  return out;
}

/// Tightness-weighted blend of two sorted supports: t*x + (1-t)*y.
std::vector<ResidualTerm> blend_support(const std::vector<ResidualTerm>& x,
                                        const std::vector<ResidualTerm>& y,
                                        double t) {
  std::vector<ResidualTerm> out;
  out.reserve(x.size() + y.size());
  const double u = 1.0 - t;
  std::size_t i = 0, j = 0;
  while (i < x.size() || j < y.size()) {
    if (j >= y.size() || (i < x.size() && x[i].cell < y[j].cell)) {
      const double c = t * x[i].coef;
      if (c != 0.0) out.push_back(ResidualTerm{x[i].cell, c});
      ++i;
    } else if (i >= x.size() || y[j].cell < x[i].cell) {
      const double c = u * y[j].coef;
      if (c != 0.0) out.push_back(ResidualTerm{y[j].cell, c});
      ++j;
    } else {
      const double c = t * x[i].coef + u * y[j].coef;
      if (c != 0.0) out.push_back(ResidualTerm{x[i].cell, c});
      ++i;
      ++j;
    }
  }
  return out;
}

/// Covariance through the shared per-cell support (sorted intersection).
double support_cov(const std::vector<ResidualTerm>& x,
                   const std::vector<ResidualTerm>& y) {
  double cov = 0.0;
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i].cell < y[j].cell) ++i;
    else if (y[j].cell < x[i].cell) ++j;
    else cov += x[i++].coef * y[j++].coef;
  }
  return cov;
}

/// Antithetic pairs per parallel chunk of the endpoint panel, and pairs per
/// block of its deviation kernel.  Constants, never derived from the lane
/// count: chunk c always draws from the c-th stream, so every sample is the
/// same for any pool.
constexpr std::size_t kPanelChunkPairs = 256;
constexpr std::size_t kPanelBlockPairs = 16;
static_assert(kPanelChunkPairs % kPanelBlockPairs == 0);
static_assert(kPanelBlockPairs % 2 == 0);

/// Levels narrower than this propagate inline: one cell's forms take about
/// as long as a pool fan-out costs.  On AES-65 at 5 % and 4 lanes, bounds
/// of 4, 8, 16 and 32 gave 5.0, 5.3, 6.0 and 6.7 ms of propagation.
constexpr std::size_t kLevelParallelCells = 8;

/// Two panel pairs in one 2-wide register: the SSE2 vectors of baseline
/// x86-64 through the GCC vector extension, so the build needs no target
/// dispatch.  Lane arithmetic rounds exactly like the scalar expression.
typedef double Pair2 __attribute__((vector_size(16)));

inline Pair2 load2(const double* p) {
  Pair2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::vector<double> sample_endpoint_panel(
    const std::vector<CanonicalForm>& endpoints, int samples,
    std::uint64_t seed, ThreadPool& pool) {
  std::vector<double> out;
  if (samples <= 0 || endpoints.empty()) return out;

  double thresh = -1e300;
  for (const CanonicalForm& ep : endpoints)
    thresh = std::max(thresh, ep.mean - 4.5 * ep.sigma());
  std::vector<const CanonicalForm*> kept;
  for (const CanonicalForm& ep : endpoints)
    if (ep.mean + 4.5 * ep.sigma() >= thresh) kept.push_back(&ep);

  // Dense index over the union of tracked per-cell residual supports.
  std::vector<std::uint32_t> cells;
  for (const CanonicalForm* ep : kept)
    for (const ResidualTerm& t : ep->rc) cells.push_back(t.cell);
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  // Pre-resolved (dense index, coef) term lists per kept endpoint.
  std::vector<std::vector<std::pair<std::size_t, double>>> terms(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    terms[i].reserve(kept[i]->rc.size());
    for (const ResidualTerm& t : kept[i]->rc)
      terms[i].emplace_back(
          static_cast<std::size_t>(
              std::lower_bound(cells.begin(), cells.end(), t.cell) -
              cells.begin()),
          t.coef);
  }

  const std::size_t pairs = (static_cast<std::size_t>(samples) + 1) / 2;
  const std::size_t chunks =
      (pairs + kPanelChunkPairs - 1) / kPanelChunkPairs;
  // Chunk c's stream is seeded with the c-th word of the panel seed's
  // stream -- a pure function of (seed, c).
  std::vector<std::uint64_t> chunk_seed(chunks);
  Rng seeder(seed ^ 0x55AA33CC9F1E2D4BULL);
  for (std::uint64_t& cs : chunk_seed) cs = seeder.next_u64();

  // Draw rows of one block: the kSources shared sources, then the tracked
  // cells, then the kept endpoints' remainders, each row holding the draws
  // of the block's kPanelBlockPairs pairs contiguously.
  const std::size_t z_row = kSources;
  const std::size_t r_row = z_row + cells.size();
  const std::size_t rows = r_row + kept.size();

  // Per-lane scratch, reused by every chunk the lane runs: the block's
  // draw rows and the sampler's squared-radius buffer.
  const auto lanes = static_cast<std::size_t>(pool.lane_count());
  std::vector<std::vector<double>> lane_draws(lanes);
  std::vector<PolarSampler> lane_sampler(lanes);

  out.resize(2 * pairs);
  pool.parallel_for_lane(chunks, [&](int lane, std::size_t c) {
    constexpr std::size_t B = kPanelBlockPairs;
    constexpr std::size_t V = B / 2;  // Pair2 registers per block row
    Rng stream(chunk_seed[c]);
    PolarSampler& sampler = lane_sampler[static_cast<std::size_t>(lane)];
    std::vector<double>& draws = lane_draws[static_cast<std::size_t>(lane)];
    draws.resize(rows * B);
    const std::size_t end = std::min(pairs, (c + 1) * kPanelChunkPairs);
    for (std::size_t s0 = c * kPanelChunkPairs; s0 < end; s0 += B) {
      // A whole block is drawn even when it overhangs the last pair, so
      // the stream layout does not depend on the sample count.
      sampler.draw(stream, draws.size() / 2, draws.data());
      // One deviation per endpoint serves both antithetic signs; the
      // scalar MCT fold starts at 0.  Each pair's deviation sums r * rd,
      // then the sources in k order, then the cell terms in list order,
      // exactly as a per-pair scalar loop would.
      Pair2 worst_hi[V] = {}, worst_lo[V] = {};
      for (std::size_t i = 0; i < kept.size(); ++i) {
        const CanonicalForm& ep = *kept[i];
        const double* rd = &draws[(r_row + i) * B];
        Pair2 dev[V];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) dev[v] = ep.r * load2(rd + 2 * v);
        for (int k = 0; k < kSources; ++k) {
          const double* xk = &draws[static_cast<std::size_t>(k) * B];
          const double ak = ep.a[k];
#pragma GCC unroll 8
          for (std::size_t v = 0; v < V; ++v)
            dev[v] += ak * load2(xk + 2 * v);
        }
        for (const auto& [zi, coef] : terms[i]) {
          const double* zc = &draws[(z_row + zi) * B];
#pragma GCC unroll 8
          for (std::size_t v = 0; v < V; ++v)
            dev[v] += coef * load2(zc + 2 * v);
        }
        // std::max(worst, x) == (worst < x) ? x : worst, lane by lane.
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) {
          const Pair2 hi = ep.mean + dev[v];
          const Pair2 lo = ep.mean - dev[v];
          worst_hi[v] = (worst_hi[v] < hi) ? hi : worst_hi[v];
          worst_lo[v] = (worst_lo[v] < lo) ? lo : worst_lo[v];
        }
      }
      for (std::size_t j = 0; j < B && s0 + j < end; ++j) {
        out[2 * (s0 + j)] = worst_hi[j / 2][j % 2];
        out[2 * (s0 + j) + 1] = worst_lo[j / 2][j % 2];
      }
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z * M_SQRT1_2);
}

double normal_quantile(double p) {
  // Acklam's rational approximation (~1e-9 relative error) plus one Halley
  // refinement step against the exact erfc-based CDF.
  constexpr double kEps = 1e-12;
  p = std::clamp(p, kEps, 1.0 - kEps);

  static constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                  -2.759285104469687e+02, 1.383577518672690e+02,
                                  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                  -2.400758277161838e+00, -2.549732539343734e+00,
                                  4.374664141464968e+00, 2.938163982698783e+00};
  static constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;

  double x;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - kLow) {
    const double q = p - 0.5;
    const double s = q * q;
    x = (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) *
        q /
        (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // Halley step: e = Phi(x) - p, u = e / phi(x).
  const double e = normal_cdf(x) - p;
  const double u = e / (kInvSqrt2Pi * std::exp(-0.5 * x * x));
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double CanonicalForm::sigma() const { return std::sqrt(variance()); }

bool CanonicalForm::finite() const {
  if (!std::isfinite(mean) || !std::isfinite(r)) return false;
  for (double ak : a)
    if (!std::isfinite(ak)) return false;
  for (const ResidualTerm& t : rc)
    if (!std::isfinite(t.coef)) return false;
  return true;
}

CanonicalForm form_add(const CanonicalForm& x, const CanonicalForm& y) {
  CanonicalForm s;
  s.mean = x.mean + y.mean;
  for (int k = 0; k < kSources; ++k) s.a[k] = x.a[k] + y.a[k];
  s.rc = merge_support(x.rc, y.rc);
  s.r = std::hypot(x.r, y.r);
  return s;
}

void form_prune(CanonicalForm& x, std::size_t max_terms) {
  if (x.rc.size() <= max_terms) return;
  // Deterministic selection: largest |coef| first, lower cell id on ties.
  std::vector<ResidualTerm> terms = std::move(x.rc);
  std::nth_element(terms.begin(), terms.begin() + max_terms, terms.end(),
                   [](const ResidualTerm& a, const ResidualTerm& b) {
                     const double fa = std::fabs(a.coef);
                     const double fb = std::fabs(b.coef);
                     if (fa != fb) return fa > fb;
                     return a.cell < b.cell;
                   });
  double folded = x.r * x.r;
  for (std::size_t i = max_terms; i < terms.size(); ++i)
    folded += terms[i].coef * terms[i].coef;
  terms.resize(max_terms);
  std::sort(terms.begin(), terms.end(),
            [](const ResidualTerm& a, const ResidualTerm& b) {
              return a.cell < b.cell;
            });
  x.rc = std::move(terms);
  x.r = std::sqrt(folded);
}

CanonicalForm form_shift(const CanonicalForm& x, double delta) {
  CanonicalForm s = x;
  s.mean += delta;
  return s;
}

CanonicalForm form_max(const CanonicalForm& x, const CanonicalForm& y) {
  // Variance of x - y: shared systematic sources and shared-cell terms
  // covary; only the folded remainders are independent across forms.
  double cov = support_cov(x.rc, y.rc);
  for (int k = 0; k < kSources; ++k) cov += x.a[k] * y.a[k];
  const double var_x = x.variance();
  const double var_y = y.variance();
  const double theta2 = var_x + var_y - 2.0 * cov;
  if (!(theta2 > kDegenerateVariance)) {
    // Deterministic or perfectly correlated difference: the max is exact.
    // x wins ties, reproducing std::max's fold order bit-for-bit.
    return x.mean >= y.mean ? x : y;
  }

  const double theta = std::sqrt(theta2);
  const double alpha = (x.mean - y.mean) / theta;
  const double t = normal_cdf(alpha);  // tightness: P(x > y)
  const double phi = kInvSqrt2Pi * std::exp(-0.5 * alpha * alpha);

  CanonicalForm m;
  m.mean = x.mean * t + y.mean * (1.0 - t) + theta * phi;
  const double e2 = (var_x + x.mean * x.mean) * t +
                    (var_y + y.mean * y.mean) * (1.0 - t) +
                    (x.mean + y.mean) * theta * phi;
  const double var = std::max(0.0, e2 - m.mean * m.mean);
  double explained = 0.0;
  for (int k = 0; k < kSources; ++k) {
    m.a[k] = t * x.a[k] + (1.0 - t) * y.a[k];
    explained += m.a[k] * m.a[k];
  }
  m.rc = blend_support(x.rc, y.rc, t);
  for (const ResidualTerm& term : m.rc) explained += term.coef * term.coef;
  // Moment-matched variance beyond the tracked sources goes to the
  // independent remainder (clamped: moment matching can explain slightly
  // less than the linear part near alpha extremes).
  m.r = var > explained ? std::sqrt(var - explained) : 0.0;
  return m;
}

double SstaResult::yield_at(double tau_ns) const {
  if (!mct_samples.empty()) {
    const auto it = std::upper_bound(mct_samples.begin(), mct_samples.end(),
                                     tau_ns);
    return static_cast<double>(it - mct_samples.begin()) /
           static_cast<double>(mct_samples.size());
  }
  if (!(sigma_mct_ns > 0.0)) return tau_ns >= mean_mct_ns ? 1.0 : 0.0;
  return normal_cdf((tau_ns - mean_mct_ns) / sigma_mct_ns);
}

double SstaResult::tau_at_yield(double p) const {
  if (!mct_samples.empty()) {
    const auto n = static_cast<std::ptrdiff_t>(mct_samples.size());
    const auto k = std::min<std::ptrdiff_t>(
        n, std::max<std::ptrdiff_t>(
               1, static_cast<std::ptrdiff_t>(std::ceil(p * n))));
    return mct_samples[k - 1];
  }
  return mean_mct_ns + sigma_mct_ns * normal_quantile(p);
}

SstaTimer::SstaTimer(const sta::Timer* timer, const place::Placement* placement,
                     const liberty::CoefficientSet* coeffs,
                     variation::VariationModel model, SstaOptions options)
    : timer_(timer), placement_(placement), coeffs_(coeffs), model_(model),
      options_(options) {
  DOSEOPT_CHECK(timer != nullptr && placement != nullptr && coeffs != nullptr,
                "SstaTimer: null dependency");

  // Level schedule of the form propagation: a sequential cell launches
  // from its clock pin (level 0); a combinational cell sits one level
  // above its deepest fanin driver (level 0 when only primary inputs feed
  // it).  Within a level, cells keep their topological order.
  const netlist::Netlist& nl = *timer->netlist_;
  std::vector<std::uint32_t> level(nl.cell_count(), 0);
  std::uint32_t depth = 0;
  for (CellId c : timer->topo_order_) {
    if (nl.cell(c).sequential) continue;
    std::uint32_t lv = 0;
    for (std::size_t e = timer->fanin_ptr_[c]; e < timer->fanin_ptr_[c + 1];
         ++e) {
      const CellId d = nl.net(timer->fanin_net_[e]).driver;
      if (d != netlist::kNoCell) lv = std::max(lv, level[d] + 1);
    }
    level[c] = lv;
    depth = std::max(depth, lv);
  }
  level_ptr_.assign(static_cast<std::size_t>(depth) + 2, 0);
  for (CellId c : timer->topo_order_) ++level_ptr_[level[c] + 1];
  for (std::size_t lv = 1; lv < level_ptr_.size(); ++lv)
    level_ptr_[lv] += level_ptr_[lv - 1];
  level_cells_.resize(timer->topo_order_.size());
  std::vector<std::size_t> next(level_ptr_.begin(), level_ptr_.end() - 1);
  for (CellId c : timer->topo_order_) level_cells_[next[level[c]]++] = c;
}

std::size_t SstaTimer::endpoint_count() const {
  std::size_t n = 0;
  for (CellId ci : timer_->seq_cells_)
    n += timer_->fanin_ptr_[ci + 1] - timer_->fanin_ptr_[ci];
  return n + timer_->netlist_->primary_outputs().size();
}

SstaResult SstaTimer::analyze(const sta::VariantAssignment& base,
                              ThreadPool* pool) const {
  timer_->update(base_state_, base);
  const sta::TimingState& st = base_state_;
  const sta::Timer& tm = *timer_;
  const netlist::Netlist& nl = *tm.netlist_;
  const std::size_t net_count = nl.net_count();

  // --- per-cell delta-L canonical form ingredients (shared with the MC
  // sampler: same basis, same scale, same per-cell sigma) ---
  const std::size_t cell_count = nl.cell_count();
  const std::vector<std::pair<double, double>> uv =
      variation::normalized_die_uv(nl, *placement_);
  const double scale = variation::systematic_scale(model_);
  const double cell_resid =
      std::hypot(model_.random_sigma_nm, options_.quantization_sigma_nm);

  // d/d(dL) secants are taken across the +-1 nm neighbor variants of a
  // cell's assigned point on the characterized grid (lower index = +1 nm,
  // see liberty::shifted_poly_index) -- the EXACT grid the Monte-Carlo
  // snaps its sampled fields to, so local NLDM curvature is captured
  // right where the sampling cone lives.  The neighbors are resolved here,
  // serially (a variant's first use characterizes it), so the level loop
  // below only reads library cells.
  struct Neighbors {
    const liberty::CharacterizedCell* plus = nullptr;   // il - 1 (+1 nm)
    const liberty::CharacterizedCell* minus = nullptr;  // il + 1 (-1 nm)
    int span = 0;  // index distance, 0 when the grid has one point
  };
  std::vector<Neighbors> nb(cell_count);

  // Per-cell delta-L deviation form (shared ACLV sensitivities from the
  // systematic basis at the cell's die position, independent residual from
  // random CD variation + variant-grid quantization) and the input-cap
  // dose secant d(pin cap)/d(dL).
  std::vector<CanonicalForm> cell_dl(cell_count);
  std::vector<double> cell_dcap(cell_count, 0.0);
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const CellId c = static_cast<CellId>(ci);
    CanonicalForm& dl = cell_dl[ci];
    const std::array<double, kSources> basis =
        variation::systematic_basis(uv[ci].first, uv[ci].second);
    for (int k = 0; k < kSources; ++k) dl.a[k] = scale * basis[k];
    // The cell's own random + quantization sigma enters as a per-cell
    // term, NOT a pooled residual: every channel this cell's dL feeds
    // (own delay, own slew, upstream load) then stays correlated, and so
    // do all paths that share this cell.
    if (cell_resid > 0.0)
      dl.rc.push_back(ResidualTerm{static_cast<std::uint32_t>(c), cell_resid});
    const auto [il, iw] = st.variants_[c];
    const int ip = std::max(0, il - 1);
    const int im = std::min(liberty::kVariantsPerLayer - 1, il + 1);
    if (im > ip) {
      const auto master = nl.cell(c).master_index;
      nb[ci] = Neighbors{&tm.repo_->variant(ip, iw).cell(master),
                         &tm.repo_->variant(im, iw).cell(master), im - ip};
      cell_dcap[ci] = (nb[ci].plus->input_cap_ff -
                       nb[ci].minus->input_cap_ff) /
                      static_cast<double>(nb[ci].span);
    }
  }

  // Per-net load deviation form: a sink's dL moves its input pin cap and
  // with it the driver's load.  The scalar timer recomputes net loads from
  // the sink variants (compute_net_load), so the Monte-Carlo reference
  // sees exactly this channel; without it the analytic sigma loses the
  // load-coupled share of the per-cell random variation.
  std::vector<CanonicalForm> net_load_dev(net_count);
  for (std::size_t ni = 0; ni < net_count; ++ni) {
    CanonicalForm& ld = net_load_dev[ni];
    for (const netlist::SinkPin& s : nl.net(static_cast<NetId>(ni)).sinks)
      ld = form_add(ld, form_scale(cell_dl[s.cell], cell_dcap[s.cell]));
    form_prune(ld, options_.max_residual_terms);
  }

  // Per-net propagated forms.  net_arr holds FULL arrival forms (PI nets
  // launch at the deterministic zero form, matching net_arrival_ = 0);
  // net_slew_dev holds slew DEVIATION forms (mean 0; PI slew is the fixed
  // boundary slew).
  std::vector<CanonicalForm> net_arr(net_count);
  std::vector<CanonicalForm> net_slew_dev;
  if (options_.slew_coupling) net_slew_dev.assign(net_count, CanonicalForm{});

  // One cell's output-net forms.  It reads the forms of its fanin nets
  // (all on lower levels) and writes only its own output net's.
  const double boundary_slew = sta::kInputSlewNs;
  auto propagate = [&](CellId c) {
    const netlist::Cell& cell = nl.cell(c);
    const sta::CellTiming& ct = st.result_.cells[c];
    const liberty::CharacterizedCell& lc = *st.lib_cell_[c];
    const CanonicalForm& dl = cell_dl[c];
    const CanonicalForm& load_dev = net_load_dev[cell.output_net];

    // Own-dL secants of delay and output slew at the base (slew, load)
    // point.  ct.input_slew_ns is the clock slew for sequential cells and
    // the worst fanin slew for combinational ones, matching compute_cell.
    const double in_slew = ct.input_slew_ns;
    const double load = ct.load_ff;
    double a_delay = 0.0;
    double a_slew = 0.0;
    double bow_delay = 0.0;  // second-order mean correction, see below
    double bow_slew = 0.0;
    {
      const Neighbors& nc = nb[c];
      if (nc.span > 0) {
        const liberty::ArcTiming p = nc.plus->arc.evaluate(in_slew, load);
        const liberty::ArcTiming m = nc.minus->arc.evaluate(in_slew, load);
        const double span = static_cast<double>(nc.span);  // nm
        a_delay = (p.delay_ns - m.delay_ns) / span;
        a_slew = (p.slew_ns - m.slew_ns) / span;
        if (nc.span == 2) {
          // Interior grid point: the same stencil also gives the local
          // curvature d^2D/dL^2 (1 nm step), whose Ito-style mean shift
          // 0.5 * D'' * Var(dL) is what the expectation of a curved NLDM
          // surface picks up that a pure secant misses.  At the grid
          // boundary the one-sided stencil has no curvature; leave 0.
          const liberty::ArcTiming o = lc.arc.evaluate(in_slew, load);
          const double half_var = 0.5 * dl.variance();
          bow_delay = half_var * (p.delay_ns - 2.0 * o.delay_ns + m.delay_ns);
          bow_slew = half_var * (p.slew_ns - 2.0 * o.slew_ns + m.slew_ns);
        }
      }
    }

    // Load coupling: central differences of the NLDM surfaces in the load
    // axis, scaled by the output net's load deviation form.
    const double hl = std::max(0.05, 0.05 * load);
    const liberty::ArcTiming lhi = lc.arc.evaluate(in_slew, load + hl);
    const liberty::ArcTiming llo = lc.arc.evaluate(in_slew, load - hl);
    const double dd_dload = (lhi.delay_ns - llo.delay_ns) / (2.0 * hl);
    const double ds_dload = (lhi.slew_ns - llo.slew_ns) / (2.0 * hl);

    // Gate-delay form: mean is the exact NLDM delay at the base point;
    // deviation is first-order in this cell's own dL and the load-coupled
    // dL of its fanout sinks.
    CanonicalForm gate =
        form_add(form_scale(dl, a_delay), form_scale(load_dev, dd_dload));
    gate.mean = ct.gate_delay_ns + bow_delay;
    CanonicalForm out_slew_dev =
        form_add(form_scale(dl, a_slew), form_scale(load_dev, ds_dload));
    out_slew_dev.mean = bow_slew;

    if (cell.sequential) {
      // Launch point: clk->Q delay; the clock slew is deterministic, so
      // there is no upstream slew deviation to couple in.
      form_prune(gate, options_.max_residual_terms);
      net_arr[cell.output_net] = std::move(gate);
      if (options_.slew_coupling) {
        form_prune(out_slew_dev, options_.max_residual_terms);
        net_slew_dev[cell.output_net] = std::move(out_slew_dev);
      }
      return;
    }

    // Combinational: fold the fanin arrival forms with the statistical max
    // (same edge order and zero-form start as the scalar kernel) and track
    // which edge sets the worst base slew.  The Elmore wire delay to this
    // cell is R_wire * (C_wire/2 + C_pin), and C_pin moves with this
    // cell's OWN dose -- an exactly linear channel (d(wire)/d(C_pin) =
    // R_wire), perfectly correlated with the cell's other dL channels
    // through its shared Z term.  On wire-heavy blocks dropping it both
    // starves the endpoint sigmas and understates cross-path covariance.
    CanonicalForm arr_fold;  // zero form == scalar's worst_arrival = 0.0
    double worst_slew = boundary_slew;
    std::ptrdiff_t worst_edge = -1;
    for (std::size_t e = tm.fanin_ptr_[c]; e < tm.fanin_ptr_[c + 1]; ++e) {
      const NetId n = tm.fanin_net_[e];
      const double dwire =
          tm.parasitics_->net(n).wire_res_kohm * units::kPsToNs;
      arr_fold = form_max(
          arr_fold,
          form_add(form_shift(net_arr[n], st.edge_wire_delay_[e]),
                   form_scale(dl, cell_dcap[c] * dwire)));
      const double slew = st.net_slew_[n] + st.edge_wire_slew_[e];
      if (slew > worst_slew) {  // first edge wins ties, like std::max
        worst_slew = slew;
        worst_edge = static_cast<std::ptrdiff_t>(e);
      }
    }

    // Upstream slew deviation arriving on the worst-slew edge couples into
    // both the gate delay and the output slew via central finite
    // differences of the NLDM surfaces in the slew axis.  The edge slew
    // includes the wire degradation (2.2x the Elmore constant), which
    // rides the same receiver-pin-cap channel as the wire delay.
    if (options_.slew_coupling && worst_edge >= 0) {
      const NetId wn = tm.fanin_net_[static_cast<std::size_t>(worst_edge)];
      const CanonicalForm sin_dev = form_add(
          net_slew_dev[wn],
          form_scale(dl, cell_dcap[c] * 2.2 *
                             tm.parasitics_->net(wn).wire_res_kohm *
                             units::kPsToNs));
      const double h = std::max(1e-4, 0.05 * in_slew);
      const liberty::ArcTiming shi = lc.arc.evaluate(in_slew + h, load);
      const liberty::ArcTiming slo = lc.arc.evaluate(in_slew - h, load);
      const double kd = (shi.delay_ns - slo.delay_ns) / (2.0 * h);
      gate = form_add(gate, form_scale(sin_dev, kd));
      const double ks = (shi.slew_ns - slo.slew_ns) / (2.0 * h);
      out_slew_dev = form_add(out_slew_dev, form_scale(sin_dev, ks));
    }
    if (options_.slew_coupling) {
      form_prune(out_slew_dev, options_.max_residual_terms);
      net_slew_dev[cell.output_net] = std::move(out_slew_dev);
    }

    CanonicalForm arr = form_add(arr_fold, gate);
    form_prune(arr, options_.max_residual_terms);
    net_arr[cell.output_net] = std::move(arr);
  };

  // Level by level; the cells of one level are independent, so a wide
  // level fans out over the pool and the forms come out the same for any
  // lane count.  The supports a fanned-out level leaves behind are copied
  // into storage this thread allocates: left in the workers' malloc
  // arenas, they raised the yield_target peak RSS by ~0.7 MB (4 %).
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  for (std::size_t lv = 0; lv + 1 < level_ptr_.size(); ++lv) {
    const CellId* cells = level_cells_.data() + level_ptr_[lv];
    const std::size_t n = level_ptr_[lv + 1] - level_ptr_[lv];
    if (n < kLevelParallelCells) {
      for (std::size_t i = 0; i < n; ++i) propagate(cells[i]);
      continue;
    }
    tp.parallel_for(n, [&](std::size_t i) { propagate(cells[i]); });
    for (std::size_t i = 0; i < n; ++i) {
      const NetId out = nl.cell(cells[i]).output_net;
      net_arr[out].rc = std::vector<ResidualTerm>(net_arr[out].rc);
      if (options_.slew_coupling)
        net_slew_dev[out].rc = std::vector<ResidualTerm>(net_slew_dev[out].rc);
    }
  }

  // --- endpoint forms and MCT distribution, in finish()-scan order ---
  SstaResult res;
  res.endpoints.reserve(endpoint_count());
  CanonicalForm mct;  // zero form == scalar's mct = 0.0
  for (CellId ci : tm.seq_cells_) {
    const double setup = tm.setup_ns_[ci];
    for (std::size_t e = tm.fanin_ptr_[ci]; e < tm.fanin_ptr_[ci + 1]; ++e) {
      const NetId n = tm.fanin_net_[e];
      // Two shifts so the mean associates as (arrival + wire) + setup,
      // exactly like the scalar MCT scan; the wire delay to the capture
      // D pin rides the capture cell's own pin-cap channel.
      CanonicalForm ep = form_add(
          form_shift(form_shift(net_arr[n], st.edge_wire_delay_[e]), setup),
          form_scale(cell_dl[ci],
                     cell_dcap[ci] * tm.parasitics_->net(n).wire_res_kohm *
                         units::kPsToNs));
      mct = form_max(mct, ep);
      form_prune(mct, options_.max_residual_terms);
      res.endpoints.push_back(std::move(ep));
    }
  }
  for (NetId n : nl.primary_outputs()) {
    CanonicalForm ep = form_shift(net_arr[n], st.po_wire_delay_[n]);
    mct = form_max(mct, ep);
    form_prune(mct, options_.max_residual_terms);
    res.endpoints.push_back(std::move(ep));
  }

  if (g_fault_ssta_nan.should_fire())
    mct.mean = std::numeric_limits<double>::quiet_NaN();

  res.mct = mct;
  res.mean_mct_ns = mct.mean;
  res.sigma_mct_ns = mct.sigma();
  res.healthy = mct.finite();
  if (res.healthy) {
    res.mct_samples = sample_endpoint_panel(
        res.endpoints, options_.yield_samples, model_.seed, tp);
    // The panel is the better MCT estimator when there is real variance:
    // the iterated Clark fold accumulates moment-matching bias over
    // hundreds of correlated endpoints (mean drifts up, sigma collapses),
    // while the panel samples the endpoint forms jointly and exactly.
    // The sigma gate keeps the deterministic case on the scalar-exact
    // Clark path.
    if (!res.mct_samples.empty() && res.sigma_mct_ns > 0.0) {
      double sum = 0.0, sq = 0.0;
      for (const double v : res.mct_samples) {
        sum += v;
        sq += v * v;
      }
      const double n = static_cast<double>(res.mct_samples.size());
      res.mean_mct_ns = sum / n;
      res.sigma_mct_ns = std::sqrt(
          std::max(0.0, sq / n - (sum / n) * (sum / n)));
    }
  }
  return res;
}

std::vector<double> SstaTimer::endpoint_delays(
    const sta::VariantAssignment& va) const {
  timer_->update(mc_state_, va);
  const sta::TimingState& st = mc_state_;
  const sta::Timer& tm = *timer_;
  const netlist::Netlist& nl = *tm.netlist_;

  std::vector<double> out;
  out.reserve(endpoint_count());
  for (CellId ci : tm.seq_cells_) {
    const double setup = tm.setup_ns_[ci];
    for (std::size_t e = tm.fanin_ptr_[ci]; e < tm.fanin_ptr_[ci + 1]; ++e) {
      const NetId n = tm.fanin_net_[e];
      out.push_back((st.net_arrival_[n] + st.edge_wire_delay_[e]) + setup);
    }
  }
  for (NetId n : nl.primary_outputs())
    out.push_back(st.net_arrival_[n] + st.po_wire_delay_[n]);
  return out;
}

}  // namespace doseopt::ssta
