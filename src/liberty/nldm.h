// Non-linear delay model (NLDM) lookup tables.
//
// A table is a grid of values indexed by input transition time (slew, ns)
// and output load capacitance (fF), exactly as in Liberty `cell_delay` /
// `output_transition` groups.  Evaluation is bilinear interpolation inside
// the grid and linear extrapolation from the edge cells outside it, matching
// common STA tool behavior.
#pragma once

#include <cstddef>
#include <vector>

namespace doseopt::liberty {

/// A rectangular lookup table over (slew, load).
class NldmTable {
 public:
  NldmTable() = default;

  /// Construct with strictly increasing axes; values are zero-initialized.
  NldmTable(std::vector<double> slew_axis_ns, std::vector<double> load_axis_ff);

  std::size_t slew_points() const { return slew_axis_.size(); }
  std::size_t load_points() const { return load_axis_.size(); }

  const std::vector<double>& slew_axis() const { return slew_axis_; }
  const std::vector<double>& load_axis() const { return load_axis_; }

  double& at(std::size_t slew_idx, std::size_t load_idx);
  double at(std::size_t slew_idx, std::size_t load_idx) const;

  /// Bilinear interpolation (linear extrapolation beyond the axes).  The
  /// segment is found by binary search; a NaN query maps to the first
  /// segment and returns NaN.  TimingArc::evaluate() is the fused form the
  /// timers use; this per-table lookup is its reference.
  double evaluate(double slew_ns, double load_ff) const;

  /// Raw row-major value storage (slew index major), for the fused arc
  /// lookup of TimingArc.
  const double* values_data() const { return values_.data(); }

  /// Index of the axis point nearest to `slew_ns` (used for per-entry
  /// coefficient lookup, "nearest entry" in Section IV-B).
  std::size_t nearest_slew_index(double slew_ns) const;
  std::size_t nearest_load_index(double load_ff) const;

  /// True if axes and all values match exactly.
  bool operator==(const NldmTable& other) const = default;

 private:
  std::vector<double> slew_axis_;
  std::vector<double> load_axis_;
  std::vector<double> values_;  // row-major: slew index major
};

/// Segment i of a strictly increasing axis of n >= 2 points such that
/// axis[i] <= x <= axis[i+1], clamped to the edge segments so out-of-range
/// x extrapolates; NaN maps to segment 0.  A linear walk up from the first
/// segment: on the short characterized axes it beats a binary search (and,
/// in the batched timer's lane loop, a branch-free count of the interior
/// points), and it picks the segment the binary search of
/// NldmTable::evaluate() picks for every finite x.
inline std::size_t axis_segment(const double* axis, std::size_t n, double x) {
  std::size_t i = 0;
  while (i + 2 < n && x >= axis[i + 1]) ++i;
  return i;
}

/// Bilinear interpolation in the row-major grid `values` (`nl` load points
/// per slew row) inside cell (i, i+1) x (j, j+1), at axis fractions
/// (ts, tl) that may leave [0, 1] to extrapolate.  The one interpolation
/// expression of the library: NldmTable::evaluate() and
/// TimingArc::evaluate() both end here, so they agree bit for bit whenever
/// they pick the same cell.
inline double bilinear(const double* values, std::size_t nl, std::size_t i,
                       std::size_t j, double ts, double tl) {
  const double* v = values + i * nl + j;
  const double v0 = v[0] + (v[1] - v[0]) * tl;
  const double v1 = v[nl] + (v[nl + 1] - v[nl]) * tl;
  return v0 + (v1 - v0) * ts;
}

/// Default 7-point characterization axes used across the library.
std::vector<double> default_slew_axis_ns();
std::vector<double> default_load_axis_ff();

}  // namespace doseopt::liberty
