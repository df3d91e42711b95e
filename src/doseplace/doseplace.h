// Dose map-aware placement optimization (dosePl) -- the cell-swapping
// heuristic of the paper's Appendix (Algorithm 1).
//
// Given a placement-aware optimized dose map, swap setup-critical cells into
// higher-dose grids (and non-critical cells out) to further improve timing,
// under filters that protect wirelength and leakage:
//   * both cells must lie inside each other's fanin/fanout bounding boxes,
//   * their distance must not exceed a multiple of the gate pitch (gamma2),
//   * the HPWL of each cell's incident nets must not grow by more than
//     gamma3,
//   * the pair's combined leakage must not grow by more than gamma4.
// Each round performs up to gamma5 swaps, then legalizes, re-extracts
// parasitics (ECO), and re-times; rounds that do not improve the golden MCT
// are rolled back with their cells marked unswappable.
#pragma once

#include "dose/dose_map.h"
#include "extract/extract.h"
#include "liberty/repository.h"
#include "place/placement.h"
#include "sta/timer.h"

namespace doseopt::doseplace {

/// Heuristic controls (gamma4 and gamma5 of the paper, plus top-K; gamma1
/// to gamma3 are fixed in doseplace.cc).
struct DosePlOptions {
  std::size_t top_k_paths = 10000;   ///< K critical paths per round
  int rounds = 10;                   ///< total swap rounds
  double leak_increase_limit = 0.10;    ///< gamma4 (fractional)
  int max_swaps_per_round = 1;          ///< gamma5
};

/// Result of a dosePl run.
struct DosePlResult {
  int rounds_run = 0;
  int rounds_accepted = 0;
  int rounds_rolled_back = 0;  ///< rounds whose swaps did not improve MCT
  int swaps_accepted = 0;
  double initial_mct_ns = 0.0;
  double final_mct_ns = 0.0;
  double initial_leakage_uw = 0.0;
  double final_leakage_uw = 0.0;
  double runtime_s = 0.0;
};

/// The swapper.  Mutates `placement`, `parasitics`, and `variants` in place
/// (the caller keeps ownership); the dose maps stay fixed.
class DosePlacer {
 public:
  DosePlacer(netlist::Netlist* nl, place::Placement* placement,
             extract::Parasitics* parasitics,
             liberty::LibraryRepository* repo, const sta::Timer* timer,
             DosePlOptions options);

  /// Run the heuristic against `poly_map` (and optionally `active_map`).
  /// `variants` must correspond to the maps at the current placement; it is
  /// kept consistent as cells move between grids.
  DosePlResult run(const dose::DoseMap& poly_map,
                   const dose::DoseMap* active_map,
                   sta::VariantAssignment& variants);

 private:
  /// Refresh every cell's variant from its (possibly new) grid dose.
  void reassign_variants(const dose::DoseMap& poly_map,
                         const dose::DoseMap* active_map,
                         sta::VariantAssignment& variants) const;

  netlist::Netlist* nl_;
  place::Placement* placement_;
  extract::Parasitics* parasitics_;
  liberty::LibraryRepository* repo_;
  const sta::Timer* timer_;
  DosePlOptions options_;
};

}  // namespace doseopt::doseplace
