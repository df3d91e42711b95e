// Batched structure-of-arrays STA: one levelized traversal, kBatchLanes
// variant assignments (Monte-Carlo dies / corners) timed simultaneously.
//
// Layout.  Every per-net and per-cell scalar of the Timer's kernels widens
// into a *lane panel* of kBatchLanes contiguous doubles; panel p of row r
// lives at [r * kBatchLanes + lane].  The traversal order, reduction
// operand order, and every arithmetic expression mirror the scalar kernels
// in timer.cc exactly, so each lane is bitwise-identical to an independent
// Timer::analyze() of that lane's assignment.  The lane loops carry no
// cross-iteration dependence and vectorize under -march=native (the build
// then also sets -ffp-contract=off so FMA contraction cannot break the
// scalar/batched equality).
//
// Arc evaluation.  Each lane calls liberty::TimingArc::evaluate(), the
// same arc kernel as the scalar Timer, so per-lane gate delays and output
// slews equal the scalar ones by construction.
//
// Lane health.  The `sta.batch_nan` fault point poisons one lane's initial
// arrival/slew panels with NaN.  Because max/min reductions drop NaN
// operands, detection cannot rely on the final MCT; instead a post-pass
// checksum (lane_accumulate) sums every panel per lane -- primary-input
// rows keep their poisoned values, so any NaN anywhere in a lane surfaces
// as a non-finite checksum and the lane reports lane_ok = false.  Callers
// (YieldAnalyzer) then re-time that lane on the scalar path.
#include "sta/timer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "faultinject/fault.h"
#include "la/dense.h"

namespace doseopt::sta {

using netlist::CellId;
using netlist::kNoCell;
using netlist::NetId;

namespace {

constexpr int K = kBatchLanes;

faultinject::FaultPoint g_fault_batch_nan("sta.batch_nan");

/// Evaluate one cell's timing arc for K lanes: gate delay and output slew,
/// each lane against its own library variant.  cells/slew/load/gd/os are
/// K-panels.
inline void eval_arc_lanes(const liberty::CharacterizedCell* const* cells,
                           const double* slew, const double* load, double* gd,
                           double* os) {
  for (int l = 0; l < K; ++l) {
    const liberty::ArcTiming a = cells[l]->arc.evaluate(slew[l], load[l]);
    gd[l] = a.delay_ns;
    os[l] = a.slew_ns;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Workspace.
// ---------------------------------------------------------------------------

struct BatchWorkspace::Impl {
  const Timer* owner = nullptr;

  // Per-(poly, active) variant key: the library cell of each master,
  // resolved lazily on first use of a key and kept for the workspace's
  // lifetime.  One flat table indexed [key * masters + master] so the
  // per-(cell, lane) resolve loop is one indexed load off a cached base.
  std::vector<std::uint8_t> key_built;
  std::vector<const liberty::CharacterizedCell*> cells_flat;
  std::size_t masters = 0;

  // Lane-major poly-index panel (cells x K) -- the assignment under test.
  std::vector<std::uint8_t> poly_idx;

  // Resolved per-cell per-lane state.
  std::vector<const liberty::CharacterizedCell*> lane_cell;  ///< cells x K
  std::vector<double> cap;               ///< cells x K, input pin cap

  // Structure-of-arrays lane panels (see file comment).  Wire delay/slew
  // panels are deliberately absent: the Elmore expressions are three flops
  // off the cap panel, so every consumer recomputes them in place instead
  // of streaming megabytes of per-edge panels through memory.
  std::vector<double> net_arrival;      ///< nets x K
  std::vector<double> net_min_arrival;  ///< nets x K (want_slacks only)
  std::vector<double> net_slew;         ///< nets x K
  std::vector<double> net_load;         ///< nets x K
  std::vector<double> net_req_rel;      ///< nets x K (want_slacks only)
  std::vector<double> gate_delay;       ///< cells x K (want_slacks/cells)
  std::vector<double> in_slew;          ///< cells x K (want_cells only)
  std::vector<double> po_wd;            ///< nets (lane-invariant)
};

BatchWorkspace::BatchWorkspace() : impl_(std::make_unique<Impl>()) {}
BatchWorkspace::~BatchWorkspace() = default;
BatchWorkspace::BatchWorkspace(BatchWorkspace&&) noexcept = default;
BatchWorkspace& BatchWorkspace::operator=(BatchWorkspace&&) noexcept = default;

// ---------------------------------------------------------------------------
// BatchTimingResult.
// ---------------------------------------------------------------------------

TimingResult BatchTimingResult::lane_result(int lane) const {
  DOSEOPT_CHECK(lane >= 0 && lane < lanes,
                "BatchTimingResult::lane_result: bad lane");
  DOSEOPT_CHECK(cells.size() == static_cast<std::size_t>(lanes) * cell_count,
                "BatchTimingResult::lane_result requires want_cells");
  TimingResult r;
  r.mct_ns = mct_ns[lane];
  r.clock_ns = clock_ns[lane];
  r.worst_slack_ns = worst_slack_ns[lane];
  r.worst_hold_slack_ns = worst_hold_slack_ns[lane];
  const auto base = static_cast<std::size_t>(lane) * cell_count;
  r.cells.assign(cells.begin() + base, cells.begin() + base + cell_count);
  return r;
}

// ---------------------------------------------------------------------------
// BatchedTimer.
// ---------------------------------------------------------------------------

BatchedTimer::BatchedTimer(const Timer* timer) : timer_(timer) {
  DOSEOPT_CHECK(timer != nullptr, "BatchedTimer: null timer");
}

BatchTimingResult BatchedTimer::analyze_batch(
    const VariantAssignment& base, const std::vector<const double*>& delta_l_nm,
    BatchWorkspace& ws, bool want_cells) const {
  const int lanes = static_cast<int>(delta_l_nm.size());
  DOSEOPT_CHECK(lanes >= 1 && lanes <= K,
                "analyze_batch: need 1..kBatchLanes lanes");
  const std::size_t cell_count = timer_->netlist_->cell_count();
  DOSEOPT_CHECK(base.size() == cell_count, "analyze_batch: assignment size");

  std::vector<std::uint8_t>& idx = ws.impl_->poly_idx;
  idx.resize(cell_count * K);
  for (std::size_t c = 0; c < cell_count; ++c) {
    const int base_il = base.get(static_cast<CellId>(c)).first;
    for (int l = 0; l < lanes; ++l) {
      const double* d = delta_l_nm[l];
      idx[c * K + l] = static_cast<std::uint8_t>(
          d != nullptr ? liberty::shifted_poly_index(base_il, d[c]) : base_il);
    }
  }
  return analyze_batch_indices(base, idx.data(), lanes, ws, want_cells);
}

BatchTimingResult BatchedTimer::analyze_batch_indices(
    const VariantAssignment& base, const std::uint8_t* poly_index, int lanes,
    BatchWorkspace& ws, bool want_cells, bool want_slacks) const {
  want_slacks = want_slacks || want_cells;
  DOSEOPT_CHECK(lanes >= 1 && lanes <= K,
                "analyze_batch_indices: need 1..kBatchLanes lanes");
  DOSEOPT_CHECK(poly_index != nullptr, "analyze_batch_indices: null indices");
  const Timer& t = *timer_;
  const netlist::Netlist& nl = *t.netlist_;
  const extract::Parasitics& par = *t.parasitics_;
  const std::size_t cell_count = nl.cell_count();
  const std::size_t net_count = nl.net_count();
  DOSEOPT_CHECK(base.size() == cell_count,
                "analyze_batch_indices: assignment size");

  BatchWorkspace::Impl& w = *ws.impl_;
  if (w.owner != &t) {
    // Rebind: drop library-derived caches; panel vectors resize below.
    w.owner = &t;
    constexpr std::size_t kKeys =
        static_cast<std::size_t>(liberty::kVariantsPerLayer) *
        liberty::kVariantsPerLayer;
    w.key_built.assign(kKeys, 0);
    w.cells_flat.clear();
    w.masters = 0;
  }

  // --- resolve each (cell, lane) to its flattened library cell ---
  // Ragged batches replicate the last real lane into the padding lanes so
  // every panel loop runs full width over defined values.
  w.lane_cell.resize(cell_count * K);
  w.cap.resize(cell_count * K);
  for (std::size_t c = 0; c < cell_count; ++c) {
    const int iw = base.get(static_cast<CellId>(c)).second;
    const std::size_t master = nl.cell(static_cast<CellId>(c)).master_index;
    const std::uint8_t* ip = &poly_index[c * K];
    const liberty::CharacterizedCell** lc = &w.lane_cell[c * K];
    double* cp = &w.cap[c * K];
    for (int l = 0; l < K; ++l) {
      const int il = ip[l < lanes ? l : lanes - 1];
      const std::size_t key =
          static_cast<std::size_t>(il) * liberty::kVariantsPerLayer +
          static_cast<std::size_t>(iw);
      if (!w.key_built[key]) {
        const liberty::Library& lib = t.repo_->variant(il, iw);
        if (w.masters == 0) {
          w.masters = lib.cell_count();
          constexpr std::size_t kKeys =
              static_cast<std::size_t>(liberty::kVariantsPerLayer) *
              liberty::kVariantsPerLayer;
          w.cells_flat.assign(kKeys * w.masters, nullptr);
        }
        for (std::size_t m = 0; m < w.masters; ++m)
          w.cells_flat[key * w.masters + m] = &lib.cell(m);
        w.key_built[key] = 1;
      }
      lc[l] = w.cells_flat[key * w.masters + master];
      cp[l] = lc[l]->input_cap_ff;
    }
  }

  // --- lane-invariant PO wire delays ---
  w.po_wd.assign(net_count, 0.0);
  for (NetId n : nl.primary_outputs())
    w.po_wd[n] = par.wire_delay_ns(n, kOutputLoadFf);

  // --- per-net load panels (wire cap + sink pin caps + PO load), summed in
  // the scalar kernel's sink order ---
  w.net_load.resize(net_count * K);
  for (std::size_t ni = 0; ni < net_count; ++ni) {
    const netlist::Net& net = nl.net(static_cast<NetId>(ni));
    double* lp = &w.net_load[ni * K];
    la::lane_fill(K, par.net(static_cast<NetId>(ni)).wire_cap_ff, lp);
    for (const netlist::SinkPin& s : net.sinks)
      la::lane_add(K, lp, &w.cap[static_cast<std::size_t>(s.cell) * K], lp);
    if (net.is_primary_output)
      for (int l = 0; l < K; ++l) lp[l] += kOutputLoadFf;
  }

  // --- initial net panels: PIs launch at 0 with the boundary slew; the
  // min-arrival panel exists only on the slack path (it feeds hold) ---
  w.net_arrival.assign(net_count * K, 0.0);
  if (want_slacks) w.net_min_arrival.assign(net_count * K, 0.0);
  w.net_slew.resize(net_count * K);
  for (std::size_t ni = 0; ni < net_count; ++ni)
    la::lane_fill(K, kInputSlewNs, &w.net_slew[ni * K]);

  // Fault injection: poison one lane's initial panels with NaN.  The
  // checksum validation below must catch it (max/min reductions silently
  // drop NaN, so the design-level numbers alone would not).
  if (g_fault_batch_nan.should_fire()) {
    const int lane = static_cast<int>(g_fault_batch_nan.hits() %
                                      static_cast<std::uint64_t>(lanes));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t ni = 0; ni < net_count; ++ni) {
      w.net_arrival[ni * K + lane] = nan;
      if (want_slacks) w.net_min_arrival[ni * K + lane] = nan;
      w.net_slew[ni * K + lane] = nan;
    }
  }

  // --- forward pass: arrivals / slews in topological order.  Wire delay
  // and slew are recomputed per (edge, lane) from the cap panel -- the
  // exact elmore_wire_delay_ns / 2.2x expressions of the scalar kernel --
  // and min-arrival (feeding only hold slack) is tracked on the slack path
  // alone. ---
  if (want_slacks) w.gate_delay.resize(cell_count * K);
  if (want_cells) w.in_slew.resize(cell_count * K);
  for (CellId c : t.topo_order_) {
    const netlist::Cell& cell = nl.cell(c);
    const std::size_t cK = static_cast<std::size_t>(c) * K;
    const NetId out = cell.output_net;
    const double* lp = &w.net_load[static_cast<std::size_t>(out) * K];
    double gd_buf[K], isl_buf[K];
    double* gd = want_slacks ? &w.gate_delay[cK] : gd_buf;
    double* isl = want_cells ? &w.in_slew[cK] : isl_buf;
    double os[K];

    if (cell.sequential) {
      la::lane_fill(K, kClockSlewNs, isl);
      eval_arc_lanes(&w.lane_cell[cK], isl, lp, gd, os);
      std::memcpy(&w.net_arrival[static_cast<std::size_t>(out) * K], gd,
                  sizeof(double) * K);
      if (want_slacks)
        std::memcpy(&w.net_min_arrival[static_cast<std::size_t>(out) * K], gd,
                    sizeof(double) * K);
      std::memcpy(&w.net_slew[static_cast<std::size_t>(out) * K], os,
                  sizeof(double) * K);
      continue;
    }

    const double* capp = &w.cap[cK];
    double wa[K], ba[K];
    la::lane_fill(K, 0.0, wa);
    la::lane_fill(K, 1e30, ba);
    la::lane_fill(K, kInputSlewNs, isl);
    for (std::size_t e = t.fanin_ptr_[c]; e < t.fanin_ptr_[c + 1]; ++e) {
      const std::size_t nK = static_cast<std::size_t>(t.fanin_net_[e]) * K;
      const extract::NetParasitics& p = par.net(t.fanin_net_[e]);
      const double* na = &w.net_arrival[nK];
      const double* ns = &w.net_slew[nK];
      if (want_slacks) {
        const double* nm = &w.net_min_arrival[nK];
        for (int l = 0; l < K; ++l) {
          const double wd = extract::elmore_wire_delay_ns(p, capp[l]);
          wa[l] = std::max(wa[l], na[l] + wd);
          ba[l] = std::min(ba[l], nm[l] + wd);
          isl[l] = std::max(isl[l], ns[l] + 2.2 * wd);
        }
      } else {
        for (int l = 0; l < K; ++l) {
          const double wd = extract::elmore_wire_delay_ns(p, capp[l]);
          wa[l] = std::max(wa[l], na[l] + wd);
          isl[l] = std::max(isl[l], ns[l] + 2.2 * wd);
        }
      }
    }
    if (t.fanin_ptr_[c] == t.fanin_ptr_[c + 1]) la::lane_fill(K, 0.0, ba);
    eval_arc_lanes(&w.lane_cell[cK], isl, lp, gd, os);
    la::lane_add(K, wa, gd, &w.net_arrival[static_cast<std::size_t>(out) * K]);
    if (want_slacks)
      la::lane_add(K, ba, gd,
                   &w.net_min_arrival[static_cast<std::size_t>(out) * K]);
    std::memcpy(&w.net_slew[static_cast<std::size_t>(out) * K], os,
                sizeof(double) * K);
  }

  // --- backward pass: clock-independent req_rel panels (slack only) ---
  if (want_slacks) {
  w.net_req_rel.resize(net_count * K);
  for (std::size_t ni = 0; ni < net_count; ++ni)
    la::lane_fill(K, detail::kNoReqRel, &w.net_req_rel[ni * K]);
  for (auto it = t.topo_order_.rbegin(); it != t.topo_order_.rend(); ++it) {
    const NetId out = nl.cell(*it).output_net;
    double rr[K];
    la::lane_fill(K, detail::kNoReqRel, rr);
    if (nl.net(out).is_primary_output) {
      const double po = w.po_wd[out];
      for (int l = 0; l < K; ++l) rr[l] = std::max(rr[l], po);
    }
    const extract::NetParasitics& pn = par.net(out);
    for (std::size_t k = t.net_cons_ptr_[out]; k < t.net_cons_ptr_[out + 1];
         ++k) {
      const CellId c2 = t.net_cons_cell_[k];
      const double* c2cap = &w.cap[static_cast<std::size_t>(c2) * K];
      if (nl.cell(c2).sequential) {
        const double setup = t.setup_ns_[c2];
        for (int l = 0; l < K; ++l)
          rr[l] = std::max(
              rr[l], setup + extract::elmore_wire_delay_ns(pn, c2cap[l]));
      } else {
        const double* rr2 =
            &w.net_req_rel[static_cast<std::size_t>(nl.cell(c2).output_net) *
                           K];
        const double* gd2 = &w.gate_delay[static_cast<std::size_t>(c2) * K];
        for (int l = 0; l < K; ++l)
          rr[l] = std::max(rr[l], rr2[l] + gd2[l] +
                                      extract::elmore_wire_delay_ns(
                                          pn, c2cap[l]));
      }
    }
    std::memcpy(&w.net_req_rel[static_cast<std::size_t>(out) * K], rr,
                sizeof(double) * K);
  }
  }

  // --- finish: MCT / clock / worst slack / hold, per lane ---
  BatchTimingResult result;
  result.lanes = lanes;
  result.cell_count = cell_count;

  double mct[K];
  la::lane_fill(K, 0.0, mct);
  for (CellId ci : t.seq_cells_) {
    const double setup = t.setup_ns_[ci];
    const double* cicap = &w.cap[static_cast<std::size_t>(ci) * K];
    for (std::size_t e = t.fanin_ptr_[ci]; e < t.fanin_ptr_[ci + 1]; ++e) {
      const std::size_t nK = static_cast<std::size_t>(t.fanin_net_[e]) * K;
      const extract::NetParasitics& p = par.net(t.fanin_net_[e]);
      for (int l = 0; l < K; ++l) {
        const double arr =
            w.net_arrival[nK + l] + extract::elmore_wire_delay_ns(p, cicap[l]);
        mct[l] = std::max(mct[l], arr + setup);
      }
    }
  }
  for (NetId n : nl.primary_outputs()) {
    const std::size_t nK = static_cast<std::size_t>(n) * K;
    const double po = w.po_wd[n];
    for (int l = 0; l < K; ++l)
      mct[l] = std::max(mct[l], w.net_arrival[nK + l] + po);
  }
  double t_clk[K];
  for (int l = 0; l < K; ++l)
    t_clk[l] = t.options_.clock_ns > 0.0 ? t.options_.clock_ns : mct[l];

  double worst[K], worst_hold[K];
  la::lane_fill(K, 1e30, worst);
  la::lane_fill(K, 1e30, worst_hold);
  if (want_slacks) {
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const std::size_t oK =
        static_cast<std::size_t>(nl.cell(static_cast<CellId>(ci)).output_net) *
        K;
    for (int l = 0; l < K; ++l) {
      const double rr = w.net_req_rel[oK + l];
      const double required =
          rr > detail::kNoReqRel ? t_clk[l] - rr : detail::kUnboundRequired;
      worst[l] = std::min(worst[l], required - w.net_arrival[oK + l]);
    }
  }
  for (CellId ci : t.seq_cells_) {
    const double hold = t.hold_ns_[ci];
    const double* cicap = &w.cap[static_cast<std::size_t>(ci) * K];
    for (std::size_t e = t.fanin_ptr_[ci]; e < t.fanin_ptr_[ci + 1]; ++e) {
      const NetId n = t.fanin_net_[e];
      if (nl.net(n).driver == kNoCell) continue;
      const std::size_t nK = static_cast<std::size_t>(n) * K;
      const extract::NetParasitics& p = par.net(n);
      for (int l = 0; l < K; ++l) {
        const double min_arr = w.net_min_arrival[nK + l] +
                               extract::elmore_wire_delay_ns(p, cicap[l]);
        worst_hold[l] = std::min(worst_hold[l], min_arr - hold);
      }
    }
  }
  }

  for (int l = 0; l < lanes; ++l) {
    result.mct_ns[l] = mct[l];
    result.clock_ns[l] = t_clk[l];
    result.worst_slack_ns[l] =
        want_slacks && cell_count > 0 ? worst[l] : 0.0;
    result.worst_hold_slack_ns[l] =
        want_slacks && worst_hold[l] < 1e30 ? worst_hold[l] : 0.0;
  }

  // --- lane-health validation: sum-reduce every panel per lane.  A NaN
  // anywhere (including never-overwritten primary-input rows) poisons the
  // lane's checksum; max/min-based results alone cannot be trusted to
  // surface it. ---
  double chk[K];
  la::lane_fill(K, 0.0, chk);
  for (std::size_t ni = 0; ni < net_count; ++ni) {
    la::lane_accumulate(K, &w.net_arrival[ni * K], chk);
    la::lane_accumulate(K, &w.net_slew[ni * K], chk);
  }
  if (want_slacks)
    for (std::size_t ni = 0; ni < net_count; ++ni)
      la::lane_accumulate(K, &w.net_min_arrival[ni * K], chk);
  for (int l = 0; l < lanes; ++l) {
    result.lane_ok[l] =
        std::isfinite(chk[l]) && std::isfinite(result.mct_ns[l]) &&
        std::isfinite(result.worst_slack_ns[l]) &&
        std::isfinite(result.worst_hold_slack_ns[l]);
  }

  if (want_cells) {
    result.cells.assign(static_cast<std::size_t>(lanes) * cell_count,
                        CellTiming{});
    for (int l = 0; l < lanes; ++l) {
      CellTiming* out = &result.cells[static_cast<std::size_t>(l) * cell_count];
      for (std::size_t ci = 0; ci < cell_count; ++ci) {
        const std::size_t cK = ci * K;
        const std::size_t oK =
            static_cast<std::size_t>(
                nl.cell(static_cast<CellId>(ci)).output_net) *
            K;
        CellTiming& ct = out[ci];
        ct.arrival_ns = w.net_arrival[oK + l];
        ct.min_arrival_ns = w.net_min_arrival[oK + l];
        ct.output_slew_ns = w.net_slew[oK + l];
        ct.load_ff = w.net_load[oK + l];
        ct.gate_delay_ns = w.gate_delay[cK + l];
        ct.input_slew_ns = w.in_slew[cK + l];
        const double rr = w.net_req_rel[oK + l];
        ct.required_ns =
            rr > detail::kNoReqRel ? t_clk[l] - rr : detail::kUnboundRequired;
        ct.slack_ns = ct.required_ns - ct.arrival_ns;
      }
    }
  }
  return result;
}

}  // namespace doseopt::sta
