#include "sta/timer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>

#include "common/error.h"

namespace doseopt::sta {

using netlist::CellId;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::NetId;

using detail::kNoReqRel;
using detail::kUnboundRequired;

namespace {

/// Heap entry packing: (topological position, id).  Position in the high
/// bits so the packed integers order by position first.
inline std::uint64_t pack(std::uint32_t pos, std::uint32_t id) {
  return (static_cast<std::uint64_t>(pos) << 32) | id;
}
inline std::uint32_t unpack_id(std::uint64_t e) {
  return static_cast<std::uint32_t>(e);
}

}  // namespace

void VariantAssignment::set(CellId c, int poly_index, int active_index) {
  DOSEOPT_CHECK(c < variants_.size(), "VariantAssignment::set: bad cell");
  DOSEOPT_CHECK(poly_index >= 0 && poly_index < liberty::kVariantsPerLayer &&
                    active_index >= 0 &&
                    active_index < liberty::kVariantsPerLayer,
                "VariantAssignment::set: variant out of range");
  variants_[c] = {poly_index, active_index};
}

Timer::Timer(const netlist::Netlist* nl, const extract::Parasitics* parasitics,
             liberty::LibraryRepository* repo, TimingOptions options)
    : netlist_(nl), parasitics_(parasitics), repo_(repo), options_(options) {
  DOSEOPT_CHECK(nl != nullptr && parasitics != nullptr && repo != nullptr,
                "Timer: null dependency");
  topo_order_ = nl->topological_order();

  const std::size_t cell_count = nl->cell_count();
  const std::size_t net_count = nl->net_count();

  topo_pos_.assign(cell_count, 0);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_pos_[topo_order_[i]] = static_cast<std::uint32_t>(i);

  // Deduped fanin edges: a net wired to several pins of the same cell is
  // one timing edge (max/min over duplicates is idempotent, so the forward
  // and backward kernels are unchanged by the dedup).
  fanin_ptr_.assign(cell_count + 1, 0);
  fanin_net_.clear();
  std::vector<NetId> seen;
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const netlist::Cell& cell = nl->cell(static_cast<CellId>(ci));
    seen.clear();
    for (NetId n : cell.input_nets) {
      if (std::find(seen.begin(), seen.end(), n) == seen.end()) seen.push_back(n);
    }
    fanin_net_.insert(fanin_net_.end(), seen.begin(), seen.end());
    fanin_ptr_[ci + 1] = fanin_net_.size();
  }

  // Net -> consumer edges (CSR), in ascending consumer cell order.
  net_cons_ptr_.assign(net_count + 1, 0);
  for (NetId n : fanin_net_) net_cons_ptr_[n + 1]++;
  for (std::size_t ni = 0; ni < net_count; ++ni)
    net_cons_ptr_[ni + 1] += net_cons_ptr_[ni];
  net_cons_cell_.assign(fanin_net_.size(), kNoCell);
  net_cons_edge_.assign(fanin_net_.size(), 0);
  {
    std::vector<std::size_t> next(net_cons_ptr_.begin(),
                                  net_cons_ptr_.end() - 1);
    for (std::size_t ci = 0; ci < cell_count; ++ci) {
      for (std::size_t e = fanin_ptr_[ci]; e < fanin_ptr_[ci + 1]; ++e) {
        const std::size_t pos = next[fanin_net_[e]]++;
        net_cons_cell_[pos] = static_cast<CellId>(ci);
        net_cons_edge_[pos] = e;
      }
    }
  }

  setup_ns_.assign(cell_count, 0.0);
  hold_ns_.assign(cell_count, 0.0);
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (!nl->cell(id).sequential) continue;
    seq_cells_.push_back(id);
    setup_ns_[ci] = nl->master_of(id).setup_ns;
    hold_ns_[ci] = nl->master_of(id).hold_ns;
  }
}

// ---------------------------------------------------------------------------
// Shared kernels.
// ---------------------------------------------------------------------------

const liberty::CharacterizedCell* Timer::resolve_cell(TimingState& state,
                                                      CellId c) const {
  const auto [il, iw] = state.variants_[c];
  const liberty::Library*& lib =
      state.lib_cache_[static_cast<std::size_t>(il) *
                           liberty::kVariantsPerLayer +
                       static_cast<std::size_t>(iw)];
  if (lib == nullptr) lib = &repo_->variant(il, iw);
  return &lib->cell(netlist_->cell(c).master_index);
}

double Timer::compute_net_load(const TimingState& state, NetId n) const {
  const netlist::Net& net = netlist_->net(n);
  double load = parasitics_->net(n).wire_cap_ff;
  for (const netlist::SinkPin& s : net.sinks)
    load += state.lib_cell_[s.cell]->input_cap_ff;
  if (net.is_primary_output) load += kOutputLoadFf;
  return load;
}

bool Timer::refresh_fanin_edges(TimingState& state, CellId c) const {
  const double cap = state.lib_cell_[c]->input_cap_ff;
  bool changed = false;
  for (std::size_t e = fanin_ptr_[c]; e < fanin_ptr_[c + 1]; ++e) {
    const NetId n = fanin_net_[e];
    const double wd = parasitics_->wire_delay_ns(n, cap);
    const double ws = parasitics_->wire_slew_ns(n, cap);
    if (wd != state.edge_wire_delay_[e] || ws != state.edge_wire_slew_[e]) {
      state.edge_wire_delay_[e] = wd;
      state.edge_wire_slew_[e] = ws;
      changed = true;
    }
  }
  return changed;
}

void Timer::compute_cell(TimingState& state, CellId c, CellTiming& ct) const {
  const netlist::Cell& cell = netlist_->cell(c);
  const liberty::CharacterizedCell& lib_cell = *state.lib_cell_[c];
  ct.load_ff = state.net_load_[cell.output_net];

  if (cell.sequential) {
    // Launch point: clk->Q delay from the clock edge.
    const liberty::ArcTiming a =
        lib_cell.arc.evaluate(kClockSlewNs, ct.load_ff);
    ct.input_slew_ns = kClockSlewNs;
    ct.gate_delay_ns = a.delay_ns;
    ct.arrival_ns = a.delay_ns;
    ct.min_arrival_ns = a.delay_ns;
    ct.output_slew_ns = a.slew_ns;
    return;
  }

  double worst_arrival = 0.0;
  double best_arrival = 1e30;
  double worst_slew = kInputSlewNs;
  for (std::size_t e = fanin_ptr_[c]; e < fanin_ptr_[c + 1]; ++e) {
    const NetId n = fanin_net_[e];
    const double wire = state.edge_wire_delay_[e];
    const double arr = state.net_arrival_[n] + wire;
    const double min_arr = state.net_min_arrival_[n] + wire;
    const double slew = state.net_slew_[n] + state.edge_wire_slew_[e];
    worst_arrival = std::max(worst_arrival, arr);
    best_arrival = std::min(best_arrival, min_arr);
    worst_slew = std::max(worst_slew, slew);
  }
  if (fanin_ptr_[c] == fanin_ptr_[c + 1]) best_arrival = 0.0;
  const liberty::ArcTiming a = lib_cell.arc.evaluate(worst_slew, ct.load_ff);
  ct.input_slew_ns = worst_slew;
  ct.gate_delay_ns = a.delay_ns;
  ct.arrival_ns = worst_arrival + a.delay_ns;
  ct.min_arrival_ns = best_arrival + a.delay_ns;
  ct.output_slew_ns = a.slew_ns;
}

double Timer::compute_req_rel(const TimingState& state, NetId n) const {
  // req_rel[n] = t_clk - required[n], which is clock-independent: the
  // largest downstream "cost" of this net over its consumers --
  //   seq capture:  setup + wire delay to the D pin,
  //   primary out:  wire delay to the load,
  //   comb consumer c:  req_rel[out(c)] + gate_delay(c) + wire delay.
  // An unconstrained (dangling) cone stays at kNoReqRel: adding O(1) delay
  // terms to -1e30 is exact, so "no constraint" propagates losslessly.
  double rr = kNoReqRel;
  if (netlist_->net(n).is_primary_output)
    rr = std::max(rr, state.po_wire_delay_[n]);
  for (std::size_t k = net_cons_ptr_[n]; k < net_cons_ptr_[n + 1]; ++k) {
    const CellId c = net_cons_cell_[k];
    const double wire = state.edge_wire_delay_[net_cons_edge_[k]];
    if (netlist_->cell(c).sequential) {
      rr = std::max(rr, setup_ns_[c] + wire);
    } else {
      rr = std::max(rr, state.net_req_rel_[netlist_->cell(c).output_net] +
                            state.result_.cells[c].gate_delay_ns + wire);
    }
  }
  return rr;
}

void Timer::finish(TimingState& state) const {
  const netlist::Netlist& nl = *netlist_;
  TimingResult& result = state.result_;

  // --- MCT over capture points ---
  double mct = 0.0;
  for (CellId ci : seq_cells_) {
    const double setup = setup_ns_[ci];
    for (std::size_t e = fanin_ptr_[ci]; e < fanin_ptr_[ci + 1]; ++e) {
      const NetId n = fanin_net_[e];
      const double arr = state.net_arrival_[n] + state.edge_wire_delay_[e];
      mct = std::max(mct, arr + setup);
    }
  }
  for (NetId n : nl.primary_outputs())
    mct = std::max(mct, state.net_arrival_[n] + state.po_wire_delay_[n]);
  result.mct_ns = mct;
  result.clock_ns = options_.clock_ns > 0.0 ? options_.clock_ns : mct;

  // --- required/slack from the clock-independent req_rel ---
  const double t_clk = result.clock_ns;
  double worst = 1e30;
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    CellTiming& ct = result.cells[ci];
    const double rr = state.net_req_rel_[nl.cell(static_cast<CellId>(ci))
                                             .output_net];
    ct.required_ns = rr > kNoReqRel ? t_clk - rr : kUnboundRequired;
    ct.slack_ns = ct.required_ns - ct.arrival_ns;
    worst = std::min(worst, ct.slack_ns);
  }
  result.worst_slack_ns = nl.cell_count() > 0 ? worst : 0.0;

  // --- hold analysis: shortest launch-to-capture path vs hold time ---
  // (Same-edge capture model: data must not race through before the hold
  // window closes.  PIs are externally timed and excluded.)
  double worst_hold = 1e30;
  for (CellId ci : seq_cells_) {
    const double hold = hold_ns_[ci];
    for (std::size_t e = fanin_ptr_[ci]; e < fanin_ptr_[ci + 1]; ++e) {
      const NetId n = fanin_net_[e];
      if (nl.net(n).driver == kNoCell) continue;
      const double min_arr =
          state.net_min_arrival_[n] + state.edge_wire_delay_[e];
      worst_hold = std::min(worst_hold, min_arr - hold);
    }
  }
  result.worst_hold_slack_ns = worst_hold >= 1e30 ? 0.0 : worst_hold;
}

// ---------------------------------------------------------------------------
// Full initialization.
// ---------------------------------------------------------------------------

void Timer::init_state(TimingState& state,
                       const VariantAssignment& variants) const {
  const netlist::Netlist& nl = *netlist_;
  const std::size_t cell_count = nl.cell_count();
  const std::size_t net_count = nl.net_count();

  state.owner_ = this;
  state.variants_.resize(cell_count);
  for (std::size_t ci = 0; ci < cell_count; ++ci)
    state.variants_[ci] = variants.get(static_cast<CellId>(ci));

  state.lib_cache_.assign(static_cast<std::size_t>(liberty::kVariantsPerLayer) *
                              liberty::kVariantsPerLayer,
                          nullptr);
  state.lib_cell_.resize(cell_count);
  for (std::size_t ci = 0; ci < cell_count; ++ci)
    state.lib_cell_[ci] = resolve_cell(state, static_cast<CellId>(ci));

  state.po_wire_delay_.assign(net_count, 0.0);
  for (NetId n : nl.primary_outputs())
    state.po_wire_delay_[n] = parasitics_->wire_delay_ns(n, kOutputLoadFf);

  state.edge_wire_delay_.assign(fanin_net_.size(), 0.0);
  state.edge_wire_slew_.assign(fanin_net_.size(), 0.0);
  for (std::size_t ci = 0; ci < cell_count; ++ci)
    refresh_fanin_edges(state, static_cast<CellId>(ci));

  state.net_load_.resize(net_count);
  for (std::size_t ni = 0; ni < net_count; ++ni)
    state.net_load_[ni] = compute_net_load(state, static_cast<NetId>(ni));

  // PI nets launch at time 0 with the boundary input slew.
  state.net_arrival_.assign(net_count, 0.0);
  state.net_min_arrival_.assign(net_count, 0.0);
  state.net_slew_.assign(net_count, kInputSlewNs);

  state.result_.cells.assign(cell_count, CellTiming{});
  for (CellId c : topo_order_) {
    CellTiming& ct = state.result_.cells[c];
    compute_cell(state, c, ct);
    const NetId out = nl.cell(c).output_net;
    state.net_arrival_[out] = ct.arrival_ns;
    state.net_min_arrival_[out] = ct.min_arrival_ns;
    state.net_slew_[out] = ct.output_slew_ns;
  }

  state.net_req_rel_.assign(net_count, kNoReqRel);
  for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it) {
    const NetId out = nl.cell(*it).output_net;
    state.net_req_rel_[out] = compute_req_rel(state, out);
  }

  finish(state);

  state.epoch_ = 0;
  state.cell_queued_.assign(cell_count, 0);
  state.net_req_queued_.assign(net_count, 0);
  state.net_load_queued_.assign(net_count, 0);
  state.net_par_queued_.assign(net_count, 0);
  state.fwd_heap_.clear();
  state.bwd_heap_.clear();
  state.load_dirty_.clear();
  state.valid_ = true;
}

// ---------------------------------------------------------------------------
// Incremental update.
// ---------------------------------------------------------------------------

const TimingResult& Timer::incremental_update(
    TimingState& state, const VariantAssignment& variants,
    const std::vector<NetId>& changed_nets) const {
  const netlist::Netlist& nl = *netlist_;
  const std::uint32_t epoch = ++state.epoch_;
  state.fwd_heap_.clear();
  state.bwd_heap_.clear();
  state.load_dirty_.clear();

  auto mark_cell_fwd = [&](CellId c) {
    if (state.cell_queued_[c] == epoch) return;
    state.cell_queued_[c] = epoch;
    state.fwd_heap_.push_back(pack(topo_pos_[c], c));
    std::push_heap(state.fwd_heap_.begin(), state.fwd_heap_.end(),
                   std::greater<>());
  };
  auto mark_net_req = [&](NetId n) {
    const CellId drv = nl.net(n).driver;
    if (drv == kNoCell) return;  // PI nets carry no reported requirement
    if (state.net_req_queued_[n] == epoch) return;
    state.net_req_queued_[n] = epoch;
    state.bwd_heap_.push_back(pack(topo_pos_[drv], n));
    std::push_heap(state.bwd_heap_.begin(), state.bwd_heap_.end());
  };
  auto mark_net_load = [&](NetId n) {
    if (state.net_load_queued_[n] == epoch) return;
    state.net_load_queued_[n] = epoch;
    state.load_dirty_.push_back(n);
  };

  // --- 1. diff the variant assignment against the snapshot ---
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    const std::pair<int, int> v = variants.get(id);
    if (v == state.variants_[ci]) continue;
    state.variants_[ci] = v;
    const liberty::CharacterizedCell* lc = resolve_cell(state, id);
    const bool cap_changed =
        lc->input_cap_ff != state.lib_cell_[ci]->input_cap_ff;
    state.lib_cell_[ci] = lc;
    mark_cell_fwd(id);  // NLDM tables changed -> gate delay/slew may move
    if (cap_changed) {
      // This cell's pin cap feeds its input nets' loads and its own
      // fanin-edge wire delays (and, through those, upstream req_rel).
      if (refresh_fanin_edges(state, id)) {
        for (std::size_t e = fanin_ptr_[ci]; e < fanin_ptr_[ci + 1]; ++e)
          mark_net_req(fanin_net_[e]);
      }
      for (const NetId n : nl.cell(id).input_nets) mark_net_load(n);
    }
  }

  // --- 2. nets with re-extracted parasitics ---
  for (const NetId n : changed_nets) {
    DOSEOPT_CHECK(n < nl.net_count(), "Timer::update: bad changed net");
    if (state.net_par_queued_[n] == epoch) continue;  // duplicate entry
    state.net_par_queued_[n] = epoch;
    mark_net_load(n);  // wire cap contributes to the net load
    if (nl.net(n).is_primary_output)
      state.po_wire_delay_[n] = parasitics_->wire_delay_ns(n, kOutputLoadFf);
    // Every consumer edge's wire delay/slew is stale.
    for (std::size_t k = net_cons_ptr_[n]; k < net_cons_ptr_[n + 1]; ++k) {
      const CellId c = net_cons_cell_[k];
      const std::size_t e = net_cons_edge_[k];
      const double cap = state.lib_cell_[c]->input_cap_ff;
      const double wd = parasitics_->wire_delay_ns(n, cap);
      const double ws = parasitics_->wire_slew_ns(n, cap);
      if (wd != state.edge_wire_delay_[e] || ws != state.edge_wire_slew_[e]) {
        state.edge_wire_delay_[e] = wd;
        state.edge_wire_slew_[e] = ws;
        mark_cell_fwd(c);
      }
    }
    mark_net_req(n);  // wire-delay terms in req_rel[n] may have moved
  }

  // --- 3. re-sum dirty net loads (same order as a full pass) ---
  for (const NetId n : state.load_dirty_) {
    const double load = compute_net_load(state, n);
    if (load == state.net_load_[n]) continue;
    state.net_load_[n] = load;
    const CellId drv = nl.net(n).driver;
    if (drv != kNoCell) mark_cell_fwd(drv);  // gate delay sees the new load
  }

  // --- 4. forward cone: levelized worklist with early termination ---
  while (!state.fwd_heap_.empty()) {
    std::pop_heap(state.fwd_heap_.begin(), state.fwd_heap_.end(),
                  std::greater<>());
    const CellId c = unpack_id(state.fwd_heap_.back());
    state.fwd_heap_.pop_back();

    CellTiming& ct = state.result_.cells[c];
    const double old_gate = ct.gate_delay_ns;
    compute_cell(state, c, ct);

    if (ct.gate_delay_ns != old_gate && !nl.cell(c).sequential) {
      // req_rel of this cell's input nets embeds its gate delay.
      for (std::size_t e = fanin_ptr_[c]; e < fanin_ptr_[c + 1]; ++e)
        mark_net_req(fanin_net_[e]);
    }

    const NetId out = nl.cell(c).output_net;
    if (ct.arrival_ns == state.net_arrival_[out] &&
        ct.min_arrival_ns == state.net_min_arrival_[out] &&
        ct.output_slew_ns == state.net_slew_[out])
      continue;  // converged: downstream values cannot change
    state.net_arrival_[out] = ct.arrival_ns;
    state.net_min_arrival_[out] = ct.min_arrival_ns;
    state.net_slew_[out] = ct.output_slew_ns;
    for (std::size_t k = net_cons_ptr_[out]; k < net_cons_ptr_[out + 1]; ++k)
      mark_cell_fwd(net_cons_cell_[k]);
  }

  // --- 5. backward cone: req_rel repair, deepest driver first ---
  while (!state.bwd_heap_.empty()) {
    std::pop_heap(state.bwd_heap_.begin(), state.bwd_heap_.end());
    const NetId n = unpack_id(state.bwd_heap_.back());
    state.bwd_heap_.pop_back();

    const double rr = compute_req_rel(state, n);
    if (rr == state.net_req_rel_[n]) continue;
    state.net_req_rel_[n] = rr;
    const CellId drv = nl.net(n).driver;
    if (drv == kNoCell || nl.cell(drv).sequential) continue;
    for (std::size_t e = fanin_ptr_[drv]; e < fanin_ptr_[drv + 1]; ++e)
      mark_net_req(fanin_net_[e]);
  }

  // --- 6. finalize: MCT / clock / required / slack / hold (O(cells), no
  // NLDM evaluations -- every term reads cached values) ---
  finish(state);
  return state.result_;
}

const TimingResult& Timer::update(
    TimingState& state, const VariantAssignment& variants,
    const std::vector<NetId>& changed_nets) const {
  DOSEOPT_CHECK(variants.size() == netlist_->cell_count(),
                "Timer::update: variant assignment size mismatch");
  if (!state.valid_ || state.owner_ != this) {
    init_state(state, variants);
    return state.result_;
  }
  return incremental_update(state, variants, changed_nets);
}

TimingResult Timer::analyze(const VariantAssignment& variants) const {
  DOSEOPT_CHECK(variants.size() == netlist_->cell_count(),
                "Timer::analyze: variant assignment size mismatch");
  TimingState state;
  init_state(state, variants);
  return std::move(state.result_);
}

std::vector<TimingPath> Timer::top_paths(const VariantAssignment& variants,
                                         std::size_t k) const {
  return top_paths(variants, analyze(variants), k);
}

std::vector<TimingPath> Timer::top_paths(const VariantAssignment& variants,
                                         const TimingResult& timing,
                                         std::size_t k) const {
  const netlist::Netlist& nl = *netlist_;
  const std::size_t cell_count = nl.cell_count();
  DOSEOPT_CHECK(timing.cells.size() == cell_count,
                "top_paths: timing result mismatch");
  if (k == 0) return {};

  // Per-cell resolved characterized cells (one variant-map lookup per
  // library, not one per visit).
  std::vector<const liberty::Library*> lib_cache(
      static_cast<std::size_t>(liberty::kVariantsPerLayer) *
          liberty::kVariantsPerLayer,
      nullptr);
  auto lib_cell = [&](CellId c) -> const liberty::CharacterizedCell& {
    const auto [il, iw] = variants.get(c);
    const liberty::Library*& lib =
        lib_cache[static_cast<std::size_t>(il) * liberty::kVariantsPerLayer +
                  static_cast<std::size_t>(iw)];
    if (lib == nullptr) lib = &repo_->variant(il, iw);
    return lib->cell(nl.cell(c).master_index);
  };

  auto arrival = [&](CellId c) { return timing.cells[c].arrival_ns; };

  // In-options of each combinational cell: one per fanin edge from a driven
  // net plus at most one primary-input launch (the largest PI stage), kept
  // in the cell's fanin-edge slots.  Sorted by value, fanin order on ties,
  // so option 0 is the critical in-edge.  The walk itself reads a cell's
  // 32-byte Visit record: its arrival, its critical option and the value
  // its best deviation loses.  Both are filled on the cell's
  // first visit; most cells are never visited, so the option table is left
  // uninitialized and its untouched pages cost nothing.
  struct Option {
    double value;   ///< arrival through the option: arrival[driver] + stage
    double stage;   ///< wire delay into the cell + the cell's gate delay
    CellId driver;  ///< kNoCell: primary-input launch
  };
  constexpr std::uint32_t kLaunch = std::numeric_limits<std::uint32_t>::max();
  struct Visit {
    double arrival;
    double stage;   ///< of option 0
    double delta;   ///< value of option 0 minus value of option 1
    CellId driver;  ///< of option 0
    std::uint32_t options;  ///< 0: not visited yet; kLaunch: a flop
  };
  const std::unique_ptr<Option[]> options(new Option[fanin_net_.size()]);
  std::vector<Visit> visits(cell_count, Visit{});
  auto visit = [&](CellId c) -> const Visit& {
    Visit& v = visits[c];
    if (v.options != 0) return v;
    v.arrival = arrival(c);
    if (nl.cell(c).sequential) {
      v.options = kLaunch;
      return v;
    }
    Option* const o = options.get() + fanin_ptr_[c];
    const double cap = lib_cell(c).input_cap_ff;
    const double gate = timing.cells[c].gate_delay_ns;
    std::uint32_t n = 0;
    double pi_stage = -1e30;
    for (std::size_t e = fanin_ptr_[c]; e < fanin_ptr_[c + 1]; ++e) {
      const NetId net = fanin_net_[e];
      const double stage = parasitics_->wire_delay_ns(net, cap) + gate;
      const CellId drv = nl.net(net).driver;
      if (drv == kNoCell)
        pi_stage = std::max(pi_stage, stage);
      else
        o[n++] = Option{arrival(drv) + stage, stage, drv};
    }
    if (pi_stage > -1e30) o[n++] = Option{pi_stage, pi_stage, kNoCell};
    DOSEOPT_CHECK(n > 0, "top_paths: combinational cell without fanin");
    std::stable_sort(o, o + n, [](const Option& a, const Option& b) {
      return a.value > b.value;
    });
    v.stage = o[0].stage;
    v.driver = o[0].driver;
    v.delta = n > 1 ? o[0].value - o[1].value : 0.0;
    v.options = n;
    return v;
  };

  // Capture points: flop inputs from driven nets (ascending flop id, fanin
  // order), then primary outputs.  A seed's bound is the first term of the
  // delay recurrence.
  struct Seed {
    double bound;
    CellId driver;
    CellId capture_cell;
    NetId capture_net;
  };
  std::vector<Seed> seeds;
  for (CellId ci : seq_cells_) {
    const double setup = setup_ns_[ci];
    const double cap = lib_cell(ci).input_cap_ff;
    for (std::size_t e = fanin_ptr_[ci]; e < fanin_ptr_[ci + 1]; ++e) {
      const NetId n = fanin_net_[e];
      const CellId drv = nl.net(n).driver;
      if (drv == kNoCell) continue;
      seeds.push_back(
          {arrival(drv) + parasitics_->wire_delay_ns(n, cap) + setup, drv, ci,
           n});
    }
  }
  for (NetId n : nl.primary_outputs()) {
    const CellId drv = nl.net(n).driver;
    if (drv == kNoCell) continue;
    seeds.push_back(
        {arrival(drv) + parasitics_->wire_delay_ns(n, kOutputLoadFf),
         drv, kNoCell, n});
  }

  // Diversion enumeration (Eppstein's scheme, DESIGN.md): a path is a seed
  // plus deviations from critical in-edges, each at a cell of the segment
  // its predecessor left fresh.  A node's key is its parent's key minus the
  // deviation's value loss delta, so keys never grow along the tree and
  // every pop is the next path in key order.  A popped node pushes at most
  // three successors: the same deviation's next option, the parent's
  // next-best deviation, and its own best deviation.
  struct Deviation {
    double delta;        ///< value of option 0 minus value of option 1
    double bound;        ///< the recurrence's bound on reaching `cell`
    CellId cell;
    std::uint32_t rank;  ///< position of `cell` in the path, capture first
  };
  struct Node {
    double key;            ///< approximate delay (a root: its seed bound)
    std::int32_t parent;   ///< node this path deviates from; -1 at a root
    std::uint32_t at;      ///< root: seed; else: slot in parent's deviations
    std::uint32_t option;  ///< option taken at the deviation cell (>= 1)
    std::uint32_t path = 0;        ///< its Emitted entry, set when popped
    std::uint32_t devs_begin = 0;  ///< own deviations, set when popped
    std::uint32_t devs_size = 0;
  };
  std::vector<Node> nodes;
  std::vector<Deviation> devs;  ///< per-popped-node lists, sorted by delta
  using Entry = std::pair<double, std::uint32_t>;  ///< (key, node)
  const auto by_key = [](const Entry& a, const Entry& b) {
    return a.first < b.first;
  };
  std::vector<Entry> heap;
  auto push = [&](double key, std::int32_t parent, std::uint32_t at,
                  std::uint32_t option) {
    nodes.push_back(Node{key, parent, at, option});
    heap.emplace_back(key, static_cast<std::uint32_t>(nodes.size() - 1));
    std::push_heap(heap.begin(), heap.end(), by_key);
  };
  for (std::size_t s = 0; s < seeds.size(); ++s)
    push(seeds[s].bound, -1, static_cast<std::uint32_t>(s), 0);

  // Keys and exact delays differ only by rounding: a few ulps of the
  // arrival magnitude per stage, ~1e-15 ns on these designs.  Popping stops
  // once the next key is below the K-th exact delay by more than this
  // bound, so every path at or above the K-th delay (its whole tie group
  // included) has been emitted before the exact sort picks the K.
  constexpr double kKeySlackNs = 1e-9;
  std::vector<double> kth;  ///< min-heap of the K largest exact delays
  // Emitted paths keep their cells, capture side first, in one arena; only
  // the K kept become TimingPaths.
  struct Emitted {
    double delay;
    std::uint32_t seed;
    std::uint32_t begin;  ///< first cell in `cells`
    std::uint32_t size;
  };
  std::vector<Emitted> emitted;
  std::vector<CellId> cells;
  while (!heap.empty()) {
    if (kth.size() == k && heap.front().first < kth.front() - kKeySlackNs)
      break;
    std::pop_heap(heap.begin(), heap.end(), by_key);
    const std::uint32_t idx = heap.back().second;
    heap.pop_back();
    const Node node = nodes[idx];

    // A deviation's path shares its parent's cells and recurrence up to the
    // deviation cell: copy them, take the deviation's option there, then
    // follow critical in-edges, listing this fresh segment's deviations.
    Emitted e{0.0, 0, static_cast<std::uint32_t>(cells.size()), 0};
    CellId c;
    double bound;
    std::uint32_t option = 0;
    if (node.parent < 0) {
      e.seed = node.at;
      c = seeds[e.seed].driver;
      bound = seeds[e.seed].bound;
    } else {
      const Node& from = nodes[static_cast<std::size_t>(node.parent)];
      const Deviation& dev = devs[from.devs_begin + node.at];
      const Emitted& prefix = emitted[from.path];
      e.seed = prefix.seed;
      cells.resize(e.begin + dev.rank);
      std::copy_n(cells.data() + prefix.begin, dev.rank,
                  cells.data() + e.begin);
      c = dev.cell;
      bound = dev.bound;
      option = node.option;
    }
    const auto devs_begin = static_cast<std::uint32_t>(devs.size());
    for (;;) {
      const auto rank = static_cast<std::uint32_t>(cells.size() - e.begin);
      cells.push_back(c);
      const Visit& v = visit(c);
      if (v.options == kLaunch) {
        e.delay = bound;
        break;
      }
      double stage = v.stage;
      CellId drv = v.driver;
      if (option != 0) {
        const Option& take = options[fanin_ptr_[c] + option];
        stage = take.stage;
        drv = take.driver;
        option = 0;
      } else if (v.options > 1) {
        devs.push_back(Deviation{v.delta, bound, c, rank});
      }
      const double suffix = bound - v.arrival;
      if (drv == kNoCell) {
        e.delay = stage + suffix;
        break;
      }
      bound = visit(drv).arrival + (stage + suffix);
      c = drv;
    }
    e.size = static_cast<std::uint32_t>(cells.size()) - e.begin;
    DOSEOPT_CHECK(std::abs(e.delay - node.key) <= kKeySlackNs,
                  "top_paths: path key drifted from its delay");
    std::sort(devs.begin() + devs_begin, devs.end(),
              [](const Deviation& a, const Deviation& b) {
                return a.delta < b.delta ||
                       (a.delta == b.delta && a.rank < b.rank);
              });
    nodes[idx].path = static_cast<std::uint32_t>(emitted.size());
    nodes[idx].devs_begin = devs_begin;
    nodes[idx].devs_size = static_cast<std::uint32_t>(devs.size()) - devs_begin;
    emitted.push_back(e);

    kth.push_back(e.delay);
    std::push_heap(kth.begin(), kth.end(), std::greater<>());
    if (kth.size() > k) {
      std::pop_heap(kth.begin(), kth.end(), std::greater<>());
      kth.pop_back();
    }

    if (devs.size() > devs_begin)
      push(node.key - devs[devs_begin].delta, static_cast<std::int32_t>(idx),
           0, 1);
    if (node.parent >= 0) {
      const Node from = nodes[static_cast<std::size_t>(node.parent)];
      const CellId x = devs[from.devs_begin + node.at].cell;
      if (node.option + 1 < visits[x].options) {
        const Option* o = options.get() + fanin_ptr_[x];
        push(from.key - (o[0].value - o[node.option + 1].value),
             node.parent, node.at, node.option + 1);
      }
      if (node.option == 1 && node.at + 1 < from.devs_size)
        push(from.key - devs[from.devs_begin + node.at + 1].delta,
             node.parent, node.at + 1, 1);
    }
  }

  // The canonical order: delay descending, then capture cell, capture net
  // and the launch-first cell list ascending.
  const auto launch_first = [&](const Emitted& p) {
    const CellId* first = cells.data() + p.begin;
    return std::make_pair(std::reverse_iterator(first + p.size),
                          std::reverse_iterator(first));
  };
  std::sort(emitted.begin(), emitted.end(),
            [&](const Emitted& a, const Emitted& b) {
              if (a.delay != b.delay) return a.delay > b.delay;
              const Seed& sa = seeds[a.seed];
              const Seed& sb = seeds[b.seed];
              if (sa.capture_cell != sb.capture_cell)
                return sa.capture_cell < sb.capture_cell;
              if (sa.capture_net != sb.capture_net)
                return sa.capture_net < sb.capture_net;
              const auto [a0, a1] = launch_first(a);
              const auto [b0, b1] = launch_first(b);
              return std::lexicographical_compare(a0, a1, b0, b1);
            });
  std::vector<TimingPath> paths(std::min(k, emitted.size()));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Emitted& e = emitted[i];
    const auto [first, last] = launch_first(e);
    paths[i].cells.assign(first, last);
    paths[i].delay_ns = e.delay;
    paths[i].slack_ns = timing.clock_ns - e.delay;
    paths[i].capture_cell = seeds[e.seed].capture_cell;
    paths[i].capture_net = seeds[e.seed].capture_net;
  }
  return paths;
}

double critical_path_percentage(const std::vector<TimingPath>& paths,
                                double mct_ns, double lo_frac) {
  if (paths.empty() || mct_ns <= 0.0) return 0.0;
  std::size_t count = 0;
  for (const TimingPath& p : paths)
    if (p.delay_ns >= lo_frac * mct_ns) ++count;
  return 100.0 * static_cast<double>(count) /
         static_cast<double>(paths.size());
}

}  // namespace doseopt::sta
