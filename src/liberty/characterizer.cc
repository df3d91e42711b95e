#include "liberty/characterizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace doseopt::liberty {

namespace {

// PMOS carries roughly half the current of an NMOS of equal width.
constexpr double kPmosDriveRatio = 2.0;

struct StageGeometry {
  double wp_nm, wn_nm;   // variant widths
  double l_nm;           // variant length
  double cpar_ff;        // output parasitic
};

StageGeometry variant_geometry(const tech::DeviceModel& device,
                               const StageTemplate& st, double delta_l_nm,
                               double delta_w_nm) {
  const tech::TechNode& node = device.node();
  StageGeometry g;
  g.l_nm = node.l_nominal_nm + delta_l_nm;
  g.wp_nm = st.wp_nm + delta_w_nm;
  g.wn_nm = st.wn_nm + delta_w_nm;
  DOSEOPT_CHECK(g.l_nm > 0.0 && g.wp_nm > 0.0 && g.wn_nm > 0.0,
                "characterize: non-physical variant geometry");
  g.cpar_ff =
      st.cpar_factor * device.gate_cap_ff(g.wp_nm + g.wn_nm, g.l_nm);
  return g;
}

/// Delay and output slew of one stage for the given edge.
void stage_eval(const tech::DeviceModel& device, const StageTemplate& st,
                const StageGeometry& g, double load_ff, double slew_in_ns,
                bool rising, double* delay_ns, double* slew_out_ns) {
  const double w = rising ? g.wp_nm / kPmosDriveRatio : g.wn_nm;
  const double rf = rising ? st.res_factor_rise : st.res_factor_fall;
  *delay_ns =
      device.stage_delay_ns(w, g.l_nm, rf, g.cpar_ff, load_ff, slew_in_ns);
  *slew_out_ns =
      device.stage_slew_ns(w, g.l_nm, rf, g.cpar_ff, load_ff, slew_in_ns);
}

/// Propagate through all stages of a master; returns total delay and final
/// output slew.  Edge polarity alternates through inverting stages; we
/// characterize the requested *output* edge and walk backwards to find each
/// stage's edge.
void cell_eval(const tech::DeviceModel& device, const CellMaster& m,
               double delta_l_nm, double delta_w_nm, double slew_ns,
               double load_ff, bool out_rising, double* delay_ns,
               double* slew_out_ns) {
  double total_delay = 0.0;
  double slew = slew_ns;
  const std::size_t n = m.stages.size();
  for (std::size_t s = 0; s < n; ++s) {
    const StageTemplate& st = m.stages[s];
    const StageGeometry g = variant_geometry(device, st, delta_l_nm,
                                             delta_w_nm);
    // Output edge of stage s, assuming each stage inverts.
    const bool stage_rising = ((n - 1 - s) % 2 == 0) == out_rising;
    double load;
    if (s + 1 < n) {
      const StageGeometry gnext =
          variant_geometry(device, m.stages[s + 1], delta_l_nm, delta_w_nm);
      load = device.gate_cap_ff(gnext.wp_nm + gnext.wn_nm, gnext.l_nm);
    } else {
      load = load_ff;
    }
    double d, so;
    stage_eval(device, st, g, load, slew, stage_rising, &d, &so);
    total_delay += d;
    slew = so;
  }
  *delay_ns = total_delay;
  *slew_out_ns = slew;
}

}  // namespace

double cell_leakage_nw(const tech::DeviceModel& device, const CellMaster& m,
                       double delta_l_nm, double delta_w_nm) {
  const double l_nm = device.node().l_nominal_nm + delta_l_nm;
  const double wn =
      m.wn_total_nm + static_cast<double>(m.nmos_count) * delta_w_nm;
  const double wp =
      m.wp_total_nm + static_cast<double>(m.pmos_count) * delta_w_nm;
  DOSEOPT_CHECK(wn > 0.0 && wp > 0.0 && l_nm > 0.0,
                "cell_leakage_nw: non-physical geometry");
  return m.leak_state_factor *
         (device.leakage_nw(wn, l_nm) + device.leakage_nw(wp, l_nm));
}

double cell_input_cap_ff(const tech::DeviceModel& device, const CellMaster& m,
                         double delta_l_nm, double delta_w_nm) {
  DOSEOPT_CHECK(!m.stages.empty(), "cell_input_cap_ff: master has no stages");
  const StageGeometry g =
      variant_geometry(device, m.stages.front(), delta_l_nm, delta_w_nm);
  return m.input_cap_factor * device.gate_cap_ff(g.wp_nm + g.wn_nm, g.l_nm);
}

double cell_delay_ns(const tech::DeviceModel& device, const CellMaster& m,
                     double delta_l_nm, double delta_w_nm, double slew_ns,
                     double load_ff, bool rising) {
  double d, so;
  cell_eval(device, m, delta_l_nm, delta_w_nm, slew_ns, load_ff, rising, &d,
            &so);
  return d;
}

double cell_out_slew_ns(const tech::DeviceModel& device, const CellMaster& m,
                        double delta_l_nm, double delta_w_nm, double slew_ns,
                        double load_ff, bool rising) {
  double d, so;
  cell_eval(device, m, delta_l_nm, delta_w_nm, slew_ns, load_ff, rising, &d,
            &so);
  return so;
}

Library characterize(const tech::DeviceModel& device,
                     const std::vector<CellMaster>& masters, double delta_l_nm,
                     double delta_w_nm, const CharacterizeOptions& options) {
  Library lib(device.node(), delta_l_nm, delta_w_nm);
  // Each master's tables depend only on immutable inputs (device model,
  // master template, geometry deltas), so the per-master sweep fans out
  // over the pool with one result slot per master and assembles in master
  // order -- bit-identical output at any thread count.
  std::vector<CharacterizedCell> cells(masters.size());
  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::global();
  pool.parallel_for(masters.size(), [&](std::size_t mi) {
    const CellMaster& m = masters[mi];
    CharacterizedCell& cell = cells[mi];
    cell.name = m.name;
    cell.master_index = mi;
    cell.input_cap_ff = cell_input_cap_ff(device, m, delta_l_nm, delta_w_nm);
    cell.leakage_nw = cell_leakage_nw(device, m, delta_l_nm, delta_w_nm);

    const NldmTable table(default_slew_axis_ns(), default_load_axis_ff());
    cell.arc.delay_rise = table;
    cell.arc.delay_fall = table;
    cell.arc.slew_rise = table;
    cell.arc.slew_fall = table;
    for (std::size_t i = 0; i < table.slew_points(); ++i) {
      for (std::size_t j = 0; j < table.load_points(); ++j) {
        const double slew = table.slew_axis()[i];
        const double load = table.load_axis()[j];
        double d, so;
        cell_eval(device, m, delta_l_nm, delta_w_nm, slew, load, true, &d,
                  &so);
        cell.arc.delay_rise.at(i, j) = d;
        cell.arc.slew_rise.at(i, j) = so;
        cell_eval(device, m, delta_l_nm, delta_w_nm, slew, load, false, &d,
                  &so);
        cell.arc.delay_fall.at(i, j) = d;
        cell.arc.slew_fall.at(i, j) = so;
      }
    }
  });
  for (CharacterizedCell& cell : cells) lib.add_cell(std::move(cell));
  return lib;
}

}  // namespace doseopt::liberty
