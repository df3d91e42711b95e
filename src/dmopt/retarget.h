// Signoff-corrected retarget of the model timing bound tau.
//
// The fitted linear delay model ignores slew propagation and load coupling
// (as the paper's does), so the leakage QP's model bound tau is corrected
// against a signoff measurement of each solve: golden STA MCT in QP mode,
// the SSTA yield quantile in yield-target mode.  Each probe solves at one
// tau and measures the gap between signoff and the target; the next tau
// tightens by the gap, or relaxes by 0.6 x the gap after an overshoot,
// until the gap lies in the band [-2 tol, tol].
//
// Variant snapping makes the gap a step function of tau, so a step can be
// wider than the band and the plain rule then oscillates until its probe
// cap.  TauRetarget keeps the rule's steps and adds a bracket over the
// probes made: the largest feasible tau (gap <= tol) below, the smallest
// infeasible tau above.  When the next step would leave the bracket, the
// bracket is narrower than tol, or the cap is reached, the search returns
// the bracket's feasible end instead of its last probe.
#pragma once

#include <cstddef>
#include <vector>

#include "common/function_ref.h"

namespace doseopt::dmopt {

/// Probes one retarget search may make.
constexpr int kMaxRetargetProbes = 8;

/// Signoff tolerance of a retarget toward `tau_target_ns`: a search stops
/// when the gap lies in [-2 tol, tol], and a QP-mode result may end at most
/// tol above its timing bound.
double retarget_tolerance_ns(double tau_target_ns);

/// One probe: the model bound a QP was solved at and its signoff value.
struct TauProbe {
  double tau_ns = 0.0;    ///< model timing bound of the solve
  double value_ns = 0.0;  ///< signoff measurement (MCT or MCT quantile)
  bool rejected = false;  ///< failed a later check (MC yield verification)
};

class TauRetarget {
 public:
  /// The first search starts at `tau_start_ns`; steps stay within
  /// [`floor_ns`, `ceiling_ns`]; gaps are measured against `target_ns`.
  TauRetarget(double tau_start_ns, double floor_ns, double ceiling_ns,
              double target_ns, double tol_ns);

  /// Runs the search and returns the index of the chosen probe.
  /// `measure(tau)` solves at tau and returns the signoff value; each call
  /// appends one probe.  The first search begins with a probe at the start
  /// bound.  A search after reject() replays the rule from that probe
  /// without measuring it again, with every probe already made in its
  /// bracket.  Never returns a probe with gap > tol, or a rejected one,
  /// while a feasible probe exists.
  std::size_t search(FunctionRef<double(double)> measure);

  /// Marks probe `index` as failed and lowers the target by `shift_ns`.  A
  /// rejected probe counts as infeasible; a step from it is at least tol.
  void reject(std::size_t index, double shift_ns);

  const std::vector<TauProbe>& probes() const { return probes_; }

 private:
  double gap(const TauProbe& p) const { return p.value_ns - target_ns_; }
  bool feasible(const TauProbe& p) const {
    return !p.rejected && gap(p) <= tol_ns_;
  }
  /// The feasible probe with the largest tau, else `fallback`.
  std::size_t feasible_end(std::size_t fallback) const;

  double tau_start_ns_;
  double floor_ns_;
  double ceiling_ns_;
  double target_ns_;
  double tol_ns_;
  std::vector<TauProbe> probes_;
};

}  // namespace doseopt::dmopt
