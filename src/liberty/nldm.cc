#include "liberty/nldm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace doseopt::liberty {

namespace {

void check_axis(const std::vector<double>& axis, const char* what) {
  DOSEOPT_CHECK(axis.size() >= 2, std::string(what) + ": need >= 2 points");
  for (std::size_t i = 1; i < axis.size(); ++i)
    DOSEOPT_CHECK(axis[i] > axis[i - 1],
                  std::string(what) + ": axis not strictly increasing");
}

/// Find i such that axis[i] <= x <= axis[i+1], clamped to valid segments so
/// out-of-range x extrapolates from the nearest edge segment.  NaN fails
/// every comparison and takes the first segment, like axis_segment().
std::size_t segment_index(const std::vector<double>& axis, double x) {
  if (!(x > axis.front())) return 0;
  if (x >= axis.back()) return axis.size() - 2;
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  return static_cast<std::size_t>(it - axis.begin()) - 1;
}

std::size_t nearest_index(const std::vector<double>& axis, double x) {
  const std::size_t seg = segment_index(axis, x);
  return (std::abs(x - axis[seg]) <= std::abs(axis[seg + 1] - x)) ? seg
                                                                  : seg + 1;
}

}  // namespace

NldmTable::NldmTable(std::vector<double> slew_axis_ns,
                     std::vector<double> load_axis_ff)
    : slew_axis_(std::move(slew_axis_ns)), load_axis_(std::move(load_axis_ff)) {
  check_axis(slew_axis_, "NldmTable slew axis");
  check_axis(load_axis_, "NldmTable load axis");
  values_.assign(slew_axis_.size() * load_axis_.size(), 0.0);
}

double& NldmTable::at(std::size_t slew_idx, std::size_t load_idx) {
  DOSEOPT_CHECK(slew_idx < slew_axis_.size() && load_idx < load_axis_.size(),
                "NldmTable::at out of range");
  return values_[slew_idx * load_axis_.size() + load_idx];
}

double NldmTable::at(std::size_t slew_idx, std::size_t load_idx) const {
  DOSEOPT_CHECK(slew_idx < slew_axis_.size() && load_idx < load_axis_.size(),
                "NldmTable::at out of range");
  return values_[slew_idx * load_axis_.size() + load_idx];
}

double NldmTable::evaluate(double slew_ns, double load_ff) const {
  DOSEOPT_CHECK(!values_.empty(), "NldmTable::evaluate on empty table");
  const std::size_t i = segment_index(slew_axis_, slew_ns);
  const std::size_t j = segment_index(load_axis_, load_ff);
  const double s0 = slew_axis_[i], s1 = slew_axis_[i + 1];
  const double l0 = load_axis_[j], l1 = load_axis_[j + 1];
  const double ts = (slew_ns - s0) / (s1 - s0);  // may be <0 or >1: extrapolate
  const double tl = (load_ff - l0) / (l1 - l0);
  return bilinear(values_.data(), load_axis_.size(), i, j, ts, tl);
}

std::size_t NldmTable::nearest_slew_index(double slew_ns) const {
  return nearest_index(slew_axis_, slew_ns);
}

std::size_t NldmTable::nearest_load_index(double load_ff) const {
  return nearest_index(load_axis_, load_ff);
}

std::vector<double> default_slew_axis_ns() {
  return {0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512};
}

std::vector<double> default_load_axis_ff() {
  return {0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6};
}

}  // namespace doseopt::liberty
