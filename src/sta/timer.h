// Static timing analysis (the golden-signoff substitute).
//
// Block-based STA over the unrolled combinational view of the design:
// primary inputs and flop outputs launch, primary outputs and flop D inputs
// capture.  Gate delays and output slews come from the NLDM tables of each
// instance's assigned library variant (its dose-map grid decides the
// variant), wire delays from Elmore on the extracted parasitics, loads from
// wire capacitance plus variant-dependent sink pin capacitances.
//
// Two entry points share one compute path:
//
//   * analyze(variants)          -- full pass, stateless.
//   * update(state, variants, changed_nets)
//                                -- incremental pass against a persistent
//                                   TimingState: re-propagates arrival/slew
//                                   only through the forward cone of the
//                                   cells whose variant changed (and the
//                                   nets whose parasitics changed), with
//                                   early termination where values
//                                   converge, then patches the backward
//                                   required-time cone.  Bit-identical to
//                                   a fresh analyze() because both paths
//                                   run the same per-cell/per-net kernels.
//
// The backward pass stores the clock-independent quantity
//   req_rel[n] = t_clk - required[n]
// (endpoint setup + downstream gate/wire delay), so a change in MCT -- and
// with it every required time -- costs only the O(cells) finalize scan, not
// a full backward re-propagation.
//
// Produces per-cell arrival/required/slack, the design MCT (minimum cycle
// time), and the slack data for Table VII and Fig. 10.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "extract/extract.h"
#include "liberty/repository.h"
#include "netlist/netlist.h"

namespace doseopt::ssta {
class SstaTimer;  // statistical engine; shares the Timer's CSR structure
}

namespace doseopt::sta {

class Timer;
class BatchedTimer;

namespace detail {
/// Sentinels shared by the scalar and batched engines (identical values are
/// part of their bitwise-equivalence contract).
inline constexpr double kUnboundRequired = 1e30;
inline constexpr double kNoReqRel = -1e30;  ///< t_clk - required; "unbound"
}  // namespace detail

/// Lane count of the batched timing engine: one structure-of-arrays panel
/// holds kBatchLanes doubles (contiguous, one cache line), so one levelized
/// traversal times kBatchLanes variant assignments -- Monte-Carlo dies or
/// process corners -- simultaneously.
inline constexpr int kBatchLanes = 8;

/// Per-cell library-variant assignment (poly index, active index);
/// default-initialized to the nominal variant for every cell.
class VariantAssignment {
 public:
  explicit VariantAssignment(std::size_t cell_count)
      : variants_(cell_count,
                  {liberty::kVariantsPerLayer / 2,
                   liberty::kVariantsPerLayer / 2}) {}

  void set(netlist::CellId c, int poly_index, int active_index);
  std::pair<int, int> get(netlist::CellId c) const { return variants_[c]; }
  std::size_t size() const { return variants_.size(); }

  bool operator==(const VariantAssignment&) const = default;

 private:
  std::vector<std::pair<int, int>> variants_;
};

/// Fixed analysis conditions: the slew at every primary input, the slew at
/// every flop's clock pin, and the external load on every primary output.
inline constexpr double kInputSlewNs = 0.05;
inline constexpr double kClockSlewNs = 0.04;
inline constexpr double kOutputLoadFf = 4.0;

/// Analysis conditions.
struct TimingOptions {
  double clock_ns = 0.0;      ///< 0 => use the computed MCT as the clock
};

/// Per-cell timing quantities (all at the cell *output* unless noted).
struct CellTiming {
  double arrival_ns = 0.0;      ///< latest (max) arrival -- setup analysis
  double min_arrival_ns = 0.0;  ///< earliest (min) arrival -- hold analysis
  double required_ns = 0.0;
  double slack_ns = 0.0;
  double gate_delay_ns = 0.0;
  double input_slew_ns = 0.0;  ///< worst slew over input pins
  double output_slew_ns = 0.0;
  double load_ff = 0.0;        ///< capacitive load on the output net
};

/// A timing path: launch-to-capture cell chain with its total delay.
struct TimingPath {
  std::vector<netlist::CellId> cells;  ///< launch side first
  double delay_ns = 0.0;               ///< includes capture setup
  double slack_ns = 0.0;               ///< vs. the analysis clock
  /// Capture point: the flop whose input `capture_net` is, or kNoCell when
  /// `capture_net` is a primary output.
  netlist::CellId capture_cell = netlist::kNoCell;
  netlist::NetId capture_net = netlist::kNoNet;
};

/// Full analysis result.
struct TimingResult {
  std::vector<CellTiming> cells;
  double mct_ns = 0.0;    ///< worst path delay incl. setup = minimum cycle time
  double clock_ns = 0.0;  ///< the clock slacks were computed against
  double worst_slack_ns = 0.0;       ///< worst setup slack
  double worst_hold_slack_ns = 0.0;  ///< worst hold slack (min path - hold)
};

/// Persistent analysis state for incremental timing.  A default-constructed
/// state is empty; the first update() through it runs a full pass and later
/// updates re-time only what changed.  One state belongs to one Timer (it
/// re-initializes itself if handed to another) and is not thread-safe --
/// parallel consumers keep one TimingState per worker lane.
class TimingState {
 public:
  TimingState() = default;

  /// Drop all cached analysis; the next update() re-times from scratch.
  void invalidate() { valid_ = false; }
  bool valid() const { return valid_; }

  /// The most recent analysis result (valid() must hold).
  const TimingResult& result() const { return result_; }

 private:
  friend class Timer;
  friend class doseopt::ssta::SstaTimer;  ///< reads the propagated panels

  bool valid_ = false;
  const Timer* owner_ = nullptr;

  // Assignment snapshot and resolved per-cell characterized cells (kills
  // the per-pin repo.variant(il,iw).cell(...) lookup in the inner loop).
  std::vector<std::pair<int, int>> variants_;
  std::vector<const liberty::CharacterizedCell*> lib_cell_;
  std::vector<const liberty::Library*> lib_cache_;  ///< 21x21 variant grid

  // Per-net propagated quantities.
  std::vector<double> net_load_;
  std::vector<double> net_arrival_;
  std::vector<double> net_min_arrival_;
  std::vector<double> net_slew_;
  std::vector<double> net_req_rel_;  ///< t_clk - required; -1e30 = unbound

  // Cached Elmore delays, indexed by the Timer's deduped fanin-edge list
  // (they change only with parasitics or a consumer's input cap).
  std::vector<double> edge_wire_delay_;
  std::vector<double> edge_wire_slew_;
  std::vector<double> po_wire_delay_;  ///< per net; PO entries only

  TimingResult result_;

  // Worklist scratch, persisted across updates to avoid reallocation.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> cell_queued_;
  std::vector<std::uint32_t> net_req_queued_;
  std::vector<std::uint32_t> net_load_queued_;
  std::vector<std::uint32_t> net_par_queued_;
  std::vector<std::uint64_t> fwd_heap_;
  std::vector<std::uint64_t> bwd_heap_;
  std::vector<netlist::NetId> load_dirty_;
};

/// The timer: bound to a netlist + parasitics + variant library repository.
class Timer {
 public:
  Timer(const netlist::Netlist* nl, const extract::Parasitics* parasitics,
        liberty::LibraryRepository* repo, TimingOptions options = {});

  /// Full timing analysis under a variant assignment.
  TimingResult analyze(const VariantAssignment& variants) const;

  /// Incremental timing analysis.  On an empty/foreign `state` this is a
  /// full pass; otherwise only cells whose variant differs from the
  /// state's snapshot -- plus `changed_nets`, the nets whose *parasitics*
  /// were re-extracted since the last update -- are re-timed, with the
  /// change cone propagated forward and backward.  Returns the state-owned
  /// result; bit-identical to analyze(variants).
  const TimingResult& update(
      TimingState& state, const VariantAssignment& variants,
      const std::vector<netlist::NetId>& changed_nets = {}) const;

  /// Enumerate the K worst (largest-delay) launch-to-capture paths.  A
  /// path's delay is the backward recurrence from its capture point: the
  /// seed is arrival(driver) + wire + setup (no setup at a primary output),
  /// each step into driver d of cell c is
  ///   bound' = arrival[d] + (stage + (bound - arrival[c])),
  /// stage = wire delay into c + c's gate delay, and a primary-input launch
  /// at c ends it at stage + (bound - arrival[c]), with c's largest
  /// primary-input stage.  The list is ordered by delay (descending), then
  /// capture cell, capture net and the cell list (ascending) -- an order
  /// that no container's internals decide.
  std::vector<TimingPath> top_paths(const VariantAssignment& variants,
                                    std::size_t k) const;
  std::vector<TimingPath> top_paths(const VariantAssignment& variants,
                                    const TimingResult& timing,
                                    std::size_t k) const;

  const TimingOptions& options() const { return options_; }
  const netlist::Netlist& netlist() const { return *netlist_; }

 private:
  // --- shared kernels (identical for full and incremental passes) ---
  const liberty::CharacterizedCell* resolve_cell(TimingState& state,
                                                 netlist::CellId c) const;
  double compute_net_load(const TimingState& state, netlist::NetId n) const;
  /// Recompute the cached wire delay/slew of every fanin edge of `c`;
  /// returns true when any cached value changed.
  bool refresh_fanin_edges(TimingState& state, netlist::CellId c) const;
  /// Forward-timing kernel: load/slew/gate delay/arrivals of one cell.
  void compute_cell(TimingState& state, netlist::CellId c,
                    CellTiming& ct) const;
  /// Backward kernel: req_rel of a driven net from its consumers.
  double compute_req_rel(const TimingState& state, netlist::NetId n) const;
  /// MCT scan, required/slack finalize, worst-slack and hold scans.
  void finish(TimingState& state) const;

  void init_state(TimingState& state, const VariantAssignment& variants) const;
  const TimingResult& incremental_update(
      TimingState& state, const VariantAssignment& variants,
      const std::vector<netlist::NetId>& changed_nets) const;

  friend class BatchedTimer;  ///< shares the static CSR structure below
  friend class doseopt::ssta::SstaTimer;  ///< same CSR + cached base state

  const netlist::Netlist* netlist_;
  const extract::Parasitics* parasitics_;
  liberty::LibraryRepository* repo_;
  TimingOptions options_;
  std::vector<netlist::CellId> topo_order_;

  // --- static structure, precomputed once (netlist topology never changes
  // under dose/placement moves; only parasitics and variants do) ---
  std::vector<std::uint32_t> topo_pos_;  ///< cell -> index in topo_order_
  /// Deduped fanin edges (distinct input nets per cell, first-occurrence
  /// pin order), CSR over cells.  One edge = one (net -> cell) timing arc.
  std::vector<std::size_t> fanin_ptr_;
  std::vector<netlist::NetId> fanin_net_;
  /// Consumers of each net: (cell, fanin-edge index) pairs, CSR over nets.
  std::vector<std::size_t> net_cons_ptr_;
  std::vector<netlist::CellId> net_cons_cell_;
  std::vector<std::size_t> net_cons_edge_;
  std::vector<netlist::CellId> seq_cells_;  ///< ascending cell id
  std::vector<double> setup_ns_;            ///< per cell (seq only)
  std::vector<double> hold_ns_;             ///< per cell (seq only)
};

/// Result of one batched pass: per-lane design-level numbers plus (on
/// request) the per-cell timing of every lane, stored lane-major
/// (`cells[lane * cell_count + c]`).  Only the first `lanes` entries of the
/// per-lane arrays are meaningful.
struct BatchTimingResult {
  int lanes = 0;
  std::size_t cell_count = 0;
  std::array<double, kBatchLanes> mct_ns{};
  std::array<double, kBatchLanes> clock_ns{};
  std::array<double, kBatchLanes> worst_slack_ns{};
  std::array<double, kBatchLanes> worst_hold_slack_ns{};
  /// Lane-health verdict from the post-traversal checksum validation: a lane
  /// whose panels picked up a NaN/Inf anywhere (fault injection, corrupt
  /// tables) reports false and its numbers must not be trusted -- callers
  /// degrade that lane to the scalar path.
  std::array<bool, kBatchLanes> lane_ok{};
  std::vector<CellTiming> cells;  ///< lane-major; empty unless want_cells

  bool all_ok() const {
    for (int l = 0; l < lanes; ++l)
      if (!lane_ok[l]) return false;
    return true;
  }

  /// Repackage one lane as a scalar TimingResult (requires want_cells).
  TimingResult lane_result(int lane) const;
};

/// Reusable scratch of the batched engine: the structure-of-arrays lane
/// panels plus resolved per-library cell tables.  One workspace belongs to
/// one worker lane (not thread-safe); it rebinds itself if handed to a
/// different BatchedTimer.  Allocation happens once, the first analyze_batch
/// reuses it thereafter.
class BatchWorkspace {
 public:
  BatchWorkspace();
  ~BatchWorkspace();
  BatchWorkspace(BatchWorkspace&&) noexcept;
  BatchWorkspace& operator=(BatchWorkspace&&) noexcept;
  BatchWorkspace(const BatchWorkspace&) = delete;
  BatchWorkspace& operator=(const BatchWorkspace&) = delete;

 private:
  friend class BatchedTimer;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The batched timing engine: times up to kBatchLanes variant assignments in
/// ONE levelized traversal by widening every per-net/per-cell scalar of the
/// Timer's kernels into a lane panel (see kBatchLanes).  Lane arithmetic
/// reproduces the scalar kernels' expression and operand order exactly, so
/// every lane is bitwise-identical to an independent Timer::analyze() of the
/// same assignment -- lane 0 with no delta is bit-identical to
/// analyze(base).  Views the bound Timer's static CSR structure; the Timer
/// must outlive it.
class BatchedTimer {
 public:
  explicit BatchedTimer(const Timer* timer);

  /// Time `delta_l_nm.size()` lanes (1..kBatchLanes) in one traversal.
  /// Lane L's assignment is `base` with every cell's poly index shifted by
  /// liberty::shifted_poly_index(base_poly, delta_l_nm[L][cell]); a nullptr
  /// entry means "unshifted base".  Each non-null pointer must reference
  /// cell_count doubles.  Ragged batches (fewer than kBatchLanes lanes) pad
  /// internally by replicating the last real lane; padding never leaks into
  /// the result.
  BatchTimingResult analyze_batch(
      const VariantAssignment& base,
      const std::vector<const double*>& delta_l_nm, BatchWorkspace& ws,
      bool want_cells = false) const;

  /// Same traversal, but lane assignments are given directly as a lane-major
  /// poly-index panel (`poly_index[c * kBatchLanes + lane]`, values in
  /// [0, kVariantsPerLayer)); active indices come from `base`.  This is the
  /// entry the Monte-Carlo driver uses so the identical indices feed both
  /// timing and the leakage table gather.  `want_slacks = false` skips the
  /// backward required-time pass and the slack/hold reductions (the yield
  /// loop only consumes MCT); the skipped result fields read 0.0.
  /// `want_cells` implies slacks.
  BatchTimingResult analyze_batch_indices(const VariantAssignment& base,
                                          const std::uint8_t* poly_index,
                                          int lanes, BatchWorkspace& ws,
                                          bool want_cells = false,
                                          bool want_slacks = true) const;

  const Timer& timer() const { return *timer_; }

 private:
  const Timer* timer_;
};

/// Fraction (percent) of `paths` whose delay is within [lo_frac, 1.0] of the
/// MCT -- the statistic of Table VII.
double critical_path_percentage(const std::vector<TimingPath>& paths,
                                double mct_ns, double lo_frac);

}  // namespace doseopt::sta
