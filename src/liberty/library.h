// A characterized cell library at one (delta-L, delta-W) geometry variant.
//
// The optimization flow of the paper uses 21 characterized libraries for
// gate-length-only modulation (dose -5%..+5% in 0.5% steps at Ds = -2 nm/%)
// and 21x21 libraries when the active layer is modulated too.  A Library is
// one such variant: every master's NLDM delay/slew tables, pin caps, and
// leakage, all evaluated at (L_nominal + dL, W + dW).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/cell_master.h"
#include "liberty/nldm.h"
#include "tech/tech_node.h"

namespace doseopt::liberty {

/// Gate delay and output slew of a timing arc at one (slew, load) point,
/// each the worst (max) of rise and fall.
struct ArcTiming {
  double delay_ns = 0.0;
  double slew_ns = 0.0;
};

/// One timing arc (input pin -> output), rise and fall.
///
/// Move-only: finalize() caches raw views of the tables' buffers, which a
/// move carries along and a copy would not.
struct TimingArc {
  NldmTable delay_rise;
  NldmTable delay_fall;
  NldmTable slew_rise;
  NldmTable slew_fall;

  TimingArc() = default;
  TimingArc(const TimingArc&) = delete;
  TimingArc& operator=(const TimingArc&) = delete;
  TimingArc(TimingArc&&) noexcept = default;
  TimingArc& operator=(TimingArc&&) noexcept = default;

  /// Decide once whether all four tables share identical slew and load
  /// axes (the characterizer always builds arcs this way) and, if so,
  /// cache the fused view evaluate() reads; Library::add_cell calls it.
  /// An arc never finalized takes the per-table path, which is slower but
  /// equal.  Call it again after replacing or resizing a table.
  void finalize();

  /// The arc lookup of every timer.  With shared axes: one segment search
  /// per axis and four bilinear interpolations off the 56-byte fused view;
  /// otherwise max-of-rise/fall over four NldmTable::evaluate()
  /// calls.  Both paths pick the same segments and run the same
  /// interpolation expression, so the result is bitwise-equal to the
  /// per-table reference for every input; a NaN slew or load gives NaN.
  ArcTiming evaluate(double slew_ns, double load_ff) const {
    if (slew_axis_ == nullptr) return evaluate_per_table(slew_ns, load_ff);
    const double* sa = slew_axis_;
    const double* la = load_axis_;
    const std::size_t i = axis_segment(sa, n_slew_, slew_ns);
    const std::size_t j = axis_segment(la, n_load_, load_ff);
    const double ts = (slew_ns - sa[i]) / (sa[i + 1] - sa[i]);
    const double tl = (load_ff - la[j]) / (la[j + 1] - la[j]);
    const std::size_t nl = n_load_;
    return {std::max(bilinear(values_[0], nl, i, j, ts, tl),
                     bilinear(values_[1], nl, i, j, ts, tl)),
            std::max(bilinear(values_[2], nl, i, j, ts, tl),
                     bilinear(values_[3], nl, i, j, ts, tl))};
  }

 private:
  ArcTiming evaluate_per_table(double slew_ns, double load_ff) const;

  // The fused view, set by finalize() when the axes are shared: the shared
  // axes and the value grids of delay rise/fall and slew rise/fall.
  // slew_axis_ == nullptr selects the per-table path.
  const double* slew_axis_ = nullptr;
  const double* load_axis_ = nullptr;
  const double* values_[4] = {};
  std::uint32_t n_slew_ = 0;
  std::uint32_t n_load_ = 0;
};

/// A master characterized at this library's variant geometry.
struct CharacterizedCell {
  std::string name;          ///< master name, e.g. "NAND2X2"
  std::size_t master_index;  ///< index into the master list
  double input_cap_ff = 0.0;
  double leakage_nw = 0.0;
  TimingArc arc;  ///< identical template for every input pin
};

/// A characterized library: all masters at one (dL, dW).
class Library {
 public:
  Library(tech::TechNode node, double delta_l_nm, double delta_w_nm)
      : node_(std::move(node)), delta_l_nm_(delta_l_nm),
        delta_w_nm_(delta_w_nm) {}

  const tech::TechNode& node() const { return node_; }
  double delta_l_nm() const { return delta_l_nm_; }
  double delta_w_nm() const { return delta_w_nm_; }

  void add_cell(CharacterizedCell cell);

  std::size_t cell_count() const { return cells_.size(); }
  const CharacterizedCell& cell(std::size_t i) const;
  const CharacterizedCell& cell_by_name(const std::string& name) const;
  bool has_cell(const std::string& name) const;
  /// Index of a cell by name; throws if absent.
  std::size_t cell_index(const std::string& name) const;

  const std::vector<CharacterizedCell>& cells() const { return cells_; }

 private:
  tech::TechNode node_;
  double delta_l_nm_;
  double delta_w_nm_;
  std::vector<CharacterizedCell> cells_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace doseopt::liberty
