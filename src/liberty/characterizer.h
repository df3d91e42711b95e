// Library characterizer.
//
// Replaces the foundry characterization flow: builds NLDM delay/slew tables,
// pin capacitances, and leakage for every master at a given geometry variant
// (delta gate length from the poly-layer dose, delta gate width from the
// active-layer dose), using the analytic device model in src/tech.
#pragma once

#include <vector>

#include "common/thread_pool.h"
#include "liberty/cell_master.h"
#include "liberty/library.h"
#include "tech/device.h"

namespace doseopt::liberty {

/// Characterization controls.  Every table spans default_slew_axis_ns()
/// x default_load_axis_ff().
struct CharacterizeOptions {
  /// Pool for the per-master table sweep; nullptr = the process pool.
  /// Masters are characterized independently and assembled in master
  /// order, so the result is identical for any thread count.
  ThreadPool* pool = nullptr;
};

/// Characterize `masters` at gate length L_nominal + delta_l_nm and device
/// widths W + delta_w_nm.  Throws if the variant geometry is non-physical
/// (e.g. width driven below ~0).
Library characterize(const tech::DeviceModel& device,
                     const std::vector<CellMaster>& masters, double delta_l_nm,
                     double delta_w_nm, const CharacterizeOptions& options = {});

/// Leakage power (nW) of one master at a variant geometry; exposed
/// separately so device-level studies (Figs. 5/6) can sweep it directly.
double cell_leakage_nw(const tech::DeviceModel& device, const CellMaster& m,
                       double delta_l_nm, double delta_w_nm);

/// Input pin capacitance (fF) of one master at a variant geometry.
double cell_input_cap_ff(const tech::DeviceModel& device, const CellMaster& m,
                         double delta_l_nm, double delta_w_nm);

/// Single-arc propagation delay (ns) of one master at a variant geometry for
/// a given input slew and output load; `rising` selects the output edge.
double cell_delay_ns(const tech::DeviceModel& device, const CellMaster& m,
                     double delta_l_nm, double delta_w_nm, double slew_ns,
                     double load_ff, bool rising);

/// Output slew for the same conditions.
double cell_out_slew_ns(const tech::DeviceModel& device, const CellMaster& m,
                        double delta_l_nm, double delta_w_nm, double slew_ns,
                        double load_ff, bool rising);

}  // namespace doseopt::liberty
