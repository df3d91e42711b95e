#include "liberty/library.h"

#include <algorithm>

#include "common/error.h"

namespace doseopt::liberty {

ArcTiming TimingArc::evaluate_per_table(double slew_ns,
                                        double load_ff) const {
  return {std::max(delay_rise.evaluate(slew_ns, load_ff),
                   delay_fall.evaluate(slew_ns, load_ff)),
          std::max(slew_rise.evaluate(slew_ns, load_ff),
                   slew_fall.evaluate(slew_ns, load_ff))};
}

void TimingArc::finalize() {
  // An empty (default) table keeps the per-table path, which rejects it.
  const bool shared = delay_rise.slew_points() > 0 &&
                      delay_rise.slew_axis() == delay_fall.slew_axis() &&
                      delay_rise.slew_axis() == slew_rise.slew_axis() &&
                      delay_rise.slew_axis() == slew_fall.slew_axis() &&
                      delay_rise.load_axis() == delay_fall.load_axis() &&
                      delay_rise.load_axis() == slew_rise.load_axis() &&
                      delay_rise.load_axis() == slew_fall.load_axis();
  slew_axis_ = nullptr;
  if (!shared) return;
  slew_axis_ = delay_rise.slew_axis().data();
  load_axis_ = delay_rise.load_axis().data();
  n_slew_ = static_cast<std::uint32_t>(delay_rise.slew_points());
  n_load_ = static_cast<std::uint32_t>(delay_rise.load_points());
  values_[0] = delay_rise.values_data();
  values_[1] = delay_fall.values_data();
  values_[2] = slew_rise.values_data();
  values_[3] = slew_fall.values_data();
}

void Library::add_cell(CharacterizedCell cell) {
  DOSEOPT_CHECK(!by_name_.contains(cell.name),
                "Library::add_cell: duplicate cell " + cell.name);
  by_name_.emplace(cell.name, cells_.size());
  cell.arc.finalize();
  cells_.push_back(std::move(cell));
}

const CharacterizedCell& Library::cell(std::size_t i) const {
  DOSEOPT_CHECK(i < cells_.size(), "Library::cell: index out of range");
  return cells_[i];
}

const CharacterizedCell& Library::cell_by_name(const std::string& name) const {
  return cells_[cell_index(name)];
}

bool Library::has_cell(const std::string& name) const {
  return by_name_.contains(name);
}

std::size_t Library::cell_index(const std::string& name) const {
  const auto it = by_name_.find(name);
  DOSEOPT_CHECK(it != by_name_.end(), "Library: unknown cell " + name);
  return it->second;
}

}  // namespace doseopt::liberty
