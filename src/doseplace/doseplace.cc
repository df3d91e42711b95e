#include "doseplace/doseplace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/error.h"
#include "place/bbox.h"
#include "place/placer.h"
#include "power/leakage.h"

namespace doseopt::doseplace {

using netlist::CellId;
using netlist::kNoCell;
using netlist::NetId;

namespace {

/// The paper's fixed swap filters: at most gamma1 swaps per critical path,
/// a swap distance of at most gamma2 = kDistancePitchFactor gate pitches,
/// and at most a gamma3 fractional HPWL increase on each cell's nets.
constexpr int kMaxSwapsPerPath = 1;            // gamma1
constexpr double kDistancePitchFactor = 20.0;  // gamma2
constexpr double kHpwlIncreaseLimit = 0.20;    // gamma3

/// Nets whose extracted parasitics differ between two extractions (exact
/// field compare) -- the incremental-timing invalidation set after an ECO.
std::vector<NetId> changed_parasitic_nets(const extract::Parasitics& before,
                                          const extract::Parasitics& after) {
  std::vector<NetId> changed;
  for (std::size_t n = 0; n < after.net_count(); ++n) {
    const auto id = static_cast<NetId>(n);
    const extract::NetParasitics& a = before.net(id);
    const extract::NetParasitics& b = after.net(id);
    if (a.length_um != b.length_um || a.wire_cap_ff != b.wire_cap_ff ||
        a.wire_res_kohm != b.wire_res_kohm)
      changed.push_back(id);
  }
  return changed;
}

}  // namespace

DosePlacer::DosePlacer(netlist::Netlist* nl, place::Placement* placement,
                       extract::Parasitics* parasitics,
                       liberty::LibraryRepository* repo,
                       const sta::Timer* timer, DosePlOptions options)
    : nl_(nl), placement_(placement), parasitics_(parasitics), repo_(repo),
      timer_(timer), options_(options) {
  DOSEOPT_CHECK(nl_ && placement_ && parasitics_ && repo_ && timer_,
                "DosePlacer: null dependency");
}

void DosePlacer::reassign_variants(const dose::DoseMap& poly_map,
                                   const dose::DoseMap* active_map,
                                   sta::VariantAssignment& variants) const {
  for (std::size_t c = 0; c < nl_->cell_count(); ++c) {
    const auto id = static_cast<CellId>(c);
    const std::size_t g =
        poly_map.grid_at(placement_->x_um(id), placement_->y_um(id));
    const double dp = poly_map.doses()[g];
    double da = 0.0;
    if (active_map != nullptr) {
      const std::size_t ga =
          active_map->grid_at(placement_->x_um(id), placement_->y_um(id));
      da = active_map->doses()[ga];
    }
    variants.set(id, liberty::dose_to_variant_index(dp),
                 liberty::dose_to_variant_index(da));
  }
}

DosePlResult DosePlacer::run(const dose::DoseMap& poly_map,
                             const dose::DoseMap* active_map,
                             sta::VariantAssignment& variants) {
  const auto t0 = std::chrono::steady_clock::now();
  DosePlResult result;

  const double gate_pitch_um =
      placement_->die().width_um /
      std::sqrt(static_cast<double>(nl_->cell_count()));
  const double max_distance_um = kDistancePitchFactor * gate_pitch_um;

  // Persistent incremental-STA state: a swap round only re-times the cone
  // of the moved cells' nets, not the whole design.
  sta::TimingState timing_state;
  result.initial_mct_ns = timer_->update(timing_state, variants).mct_ns;
  result.initial_leakage_uw = power::total_leakage_uw(*nl_, *repo_, variants);
  double best_mct = result.initial_mct_ns;

  std::unordered_set<CellId> fixed;  // rolled-back cells, never retried

  // Cells per grid for candidate lookup.  Valid until a round's ECO
  // actually moves cells (legalize after accepted swaps); a rolled-back
  // round restores every location exactly, so the binning survives it.
  std::vector<std::vector<CellId>> grid_cells(poly_map.grid_count());
  bool grid_cells_dirty = true;

  // Saved state for rollback (snapshotted at the top of each round).
  struct SavedLoc {
    CellId cell;
    place::CellLocation loc;
  };
  std::vector<SavedLoc> saved;
  saved.reserve(nl_->cell_count());

  // The round's critical path set with its eq. (13) weights, in top_paths'
  // order: non-decreasing slack, equal delays in the canonical order.  A
  // rolled-back round restores every location exactly, and extraction,
  // variant assignment, timing and top_paths are pure functions of the
  // placement and the maps, so the set survives a rollback unchanged.
  std::vector<sta::TimingPath> paths;
  std::vector<double> weight;
  std::vector<bool> critical;
  bool paths_stale = true;

  for (int round = 0; round < options_.rounds; ++round) {
    ++result.rounds_run;

    if (paths_stale) {
      // Golden analysis of the current state (no-op when unchanged).
      const sta::TimingResult& now = timer_->update(timing_state, variants);
      paths = timer_->top_paths(variants, now, options_.top_k_paths);

      // Weights (eq. (13)): W(cell) = sum over containing critical paths
      // of e^{-slack}.  Also mark criticality.
      weight.assign(nl_->cell_count(), 0.0);
      critical.assign(nl_->cell_count(), false);
      for (const sta::TimingPath& p : paths) {
        const double w = std::exp(-p.slack_ns);
        for (CellId c : p.cells) {
          weight[c] += w;
          critical[c] = true;
        }
      }

      paths_stale = false;
    }
    if (paths.empty()) break;

    if (grid_cells_dirty) {
      for (auto& cells : grid_cells) cells.clear();
      for (std::size_t c = 0; c < nl_->cell_count(); ++c) {
        const auto id = static_cast<CellId>(c);
        grid_cells[poly_map.grid_at(placement_->x_um(id),
                                    placement_->y_um(id))]
            .push_back(id);
      }
      grid_cells_dirty = false;
    }

    saved.clear();
    for (std::size_t c = 0; c < nl_->cell_count(); ++c)
      saved.push_back({static_cast<CellId>(c),
                       placement_->location(static_cast<CellId>(c))});

    // --- Algorithm 1: find up to gamma5 swaps ---
    int swaps_this_round = 0;
    std::vector<CellId> swapped_cells;
    std::vector<int> swaps_on_path(paths.size(), 0);

    for (std::size_t pk = 0;
         pk < paths.size() && swaps_this_round < options_.max_swaps_per_round;
         ++pk) {
      const sta::TimingPath& path = paths[pk];
      if (swaps_on_path[pk] >= kMaxSwapsPerPath) continue;

      // Cells of this path in non-increasing weight order.
      std::vector<CellId> cells = path.cells;
      std::sort(cells.begin(), cells.end(), [&weight](CellId a, CellId b) {
        return weight[a] > weight[b];
      });

      bool swapped = false;
      for (CellId cell_l : cells) {
        if (fixed.contains(cell_l)) continue;
        const std::size_t gl = poly_map.grid_at(placement_->x_um(cell_l),
                                                placement_->y_um(cell_l));
        const double dose_l = poly_map.doses()[gl];

        // Grids intersecting the cell's bounding box, by dose descending.
        const place::Rect bl = place::cell_bounding_box(*placement_, cell_l);
        std::vector<std::size_t> grids;
        {
          const std::size_t i_lo = poly_map.grid_at(bl.min_x, bl.min_y) /
                                   poly_map.cols();
          const std::size_t j_lo = poly_map.grid_at(bl.min_x, bl.min_y) %
                                   poly_map.cols();
          const std::size_t i_hi = poly_map.grid_at(bl.max_x, bl.max_y) /
                                   poly_map.cols();
          const std::size_t j_hi = poly_map.grid_at(bl.max_x, bl.max_y) %
                                   poly_map.cols();
          for (std::size_t gi = i_lo; gi <= i_hi; ++gi)
            for (std::size_t gj = j_lo; gj <= j_hi; ++gj)
              grids.push_back(poly_map.flat_index(gi, gj));
        }
        std::sort(grids.begin(), grids.end(),
                  [&poly_map](std::size_t a, std::size_t b) {
                    return poly_map.doses()[a] > poly_map.doses()[b];
                  });

        for (const std::size_t g : grids) {
          if (poly_map.doses()[g] <= dose_l) break;  // no dose gain left

          // Non-critical candidates in this grid, nearest first.  Distances
          // are computed once per candidate, not inside the comparator.
          std::vector<std::pair<double, CellId>> candidates;
          for (CellId cm : grid_cells[g])
            if (!critical[cm] && !fixed.contains(cm) && cm != cell_l)
              candidates.emplace_back(
                  place::cell_distance_um(*placement_, cell_l, cm), cm);
          std::sort(candidates.begin(), candidates.end());

          for (const auto& [dist_m, cell_m] : candidates) {
            if (dist_m > max_distance_um)
              break;  // sorted by distance: all further ones fail too
            const place::Rect bm =
                place::cell_bounding_box(*placement_, cell_m);
            if (!bm.contains(placement_->x_um(cell_l),
                             placement_->y_um(cell_l)) ||
                !bl.contains(placement_->x_um(cell_m),
                             placement_->y_um(cell_m)))
              continue;

            // HPWL filter (gamma3) on both cells' incident nets.
            const double hl0 = place::incident_hpwl_um(*placement_, cell_l);
            const double hm0 = place::incident_hpwl_um(*placement_, cell_m);
            placement_->swap_cells(cell_l, cell_m);
            const double hl1 = place::incident_hpwl_um(*placement_, cell_l);
            const double hm1 = place::incident_hpwl_um(*placement_, cell_m);
            const bool hpwl_ok =
                hl1 <= hl0 * (1.0 + kHpwlIncreaseLimit) + 1e-9 &&
                hm1 <= hm0 * (1.0 + kHpwlIncreaseLimit) + 1e-9;

            // Leakage filter (gamma4): pair leakage at the swapped grids.
            // Both dose maps are per location, so each cell takes over
            // the other's poly and active variant.
            const auto master_l = nl_->cell(cell_l).master_index;
            const auto master_m = nl_->cell(cell_m).master_index;
            const int vl_old = liberty::dose_to_variant_index(dose_l);
            const int vm_old =
                liberty::dose_to_variant_index(poly_map.doses()[g]);
            const int al = variants.get(cell_l).second;
            const int am = variants.get(cell_m).second;
            const double leak_before =
                repo_->variant(vl_old, al).cell(master_l).leakage_nw +
                repo_->variant(vm_old, am).cell(master_m).leakage_nw;
            const double leak_after =
                repo_->variant(vm_old, am).cell(master_l).leakage_nw +
                repo_->variant(vl_old, al).cell(master_m).leakage_nw;
            const bool leak_ok =
                leak_after <=
                leak_before * (1.0 + options_.leak_increase_limit);

            if (!hpwl_ok || !leak_ok) {
              placement_->swap_cells(cell_l, cell_m);  // undo
              continue;
            }

            // Accept this candidate swap.
            ++swaps_this_round;
            ++swaps_on_path[pk];
            swapped_cells.push_back(cell_l);
            swapped_cells.push_back(cell_m);
            swapped = true;
            break;
          }
          if (swapped) break;
        }
        if (swapped) break;
      }
    }

    if (swaps_this_round == 0) break;  // nothing left to try

    // --- ECO: legalize, re-extract, re-assign variants, golden re-time ---
    // The extraction replaces the whole Parasitics object, so diff it
    // against the previous one to hand the timer the exact set of nets to
    // re-time (legalization usually perturbs only nets near the swaps).
    place::legalize(*placement_);
    extract::Parasitics before_eco = *parasitics_;
    *parasitics_ = extract::extract(*placement_, repo_->device().node());
    reassign_variants(poly_map, active_map, variants);
    const sta::TimingResult& after = timer_->update(
        timing_state, variants,
        changed_parasitic_nets(before_eco, *parasitics_));

    if (after.mct_ns < best_mct - 1e-9) {
      best_mct = after.mct_ns;
      ++result.rounds_accepted;
      result.swaps_accepted += swaps_this_round;
      grid_cells_dirty = true;  // legalized locations stay
      paths_stale = true;
    } else {
      // Roll back: restore every location, re-assign, and re-sync the
      // timing state against the restored parasitics.  Extraction is a
      // pure function of the placement, so the pre-ECO parasitics are
      // exactly what re-extracting the restored placement would give:
      // swap them back instead.  The path set stays valid (see above).
      for (const SavedLoc& s : saved) placement_->set_location(s.cell, s.loc);
      std::swap(before_eco, *parasitics_);
      ++result.rounds_rolled_back;
      reassign_variants(poly_map, active_map, variants);
      timer_->update(timing_state, variants,
                     changed_parasitic_nets(before_eco, *parasitics_));
      for (CellId c : swapped_cells) fixed.insert(c);
    }
  }

  result.final_mct_ns = best_mct;
  result.final_leakage_uw = power::total_leakage_uw(*nl_, *repo_, variants);
  result.runtime_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return result;
}

}  // namespace doseopt::doseplace
