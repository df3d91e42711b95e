#include "dmopt/retarget.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace doseopt::dmopt {

double retarget_tolerance_ns(double tau_target_ns) {
  return std::max(5e-4, 0.001 * tau_target_ns);
}

TauRetarget::TauRetarget(double tau_start_ns, double floor_ns,
                         double ceiling_ns, double target_ns, double tol_ns)
    : tau_start_ns_(tau_start_ns), floor_ns_(floor_ns),
      ceiling_ns_(ceiling_ns), target_ns_(target_ns), tol_ns_(tol_ns) {
  DOSEOPT_CHECK(tol_ns_ > 0.0, "TauRetarget: tolerance must be positive");
}

std::size_t TauRetarget::feasible_end(std::size_t fallback) const {
  std::size_t best = fallback;
  double best_tau = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (feasible(probes_[i]) && probes_[i].tau_ns > best_tau) {
      best = i;
      best_tau = probes_[i].tau_ns;
    }
  }
  return best;
}

void TauRetarget::reject(std::size_t index, double shift_ns) {
  DOSEOPT_CHECK(index < probes_.size(), "TauRetarget: no such probe");
  probes_[index].rejected = true;
  target_ns_ -= shift_ns;
}

std::size_t TauRetarget::search(FunctionRef<double(double)> measure) {
  int made = 0;
  const auto probe_at = [&](double tau) {
    probes_.push_back({tau, measure(tau)});
    ++made;
    return probes_.size() - 1;
  };
  // A search after reject() replays the rule from the start probe.
  std::size_t cur = probes_.empty() ? probe_at(tau_start_ns_) : 0;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (;;) {
    const TauProbe& p = probes_[cur];
    const double g = gap(p);
    double next;
    if (!feasible(p) && p.tau_ns > floor_ns_) {
      // A rejected probe may sit inside the band; step at least tol.
      next = std::max(floor_ns_, p.tau_ns - std::max(g, tol_ns_));
    } else if (feasible(p) && g < -2.0 * tol_ns_ && p.tau_ns < ceiling_ns_) {
      // Overshot: recover leakage headroom by relaxing the model bound.
      next = std::min(ceiling_ns_, p.tau_ns - 0.6 * g);
    } else {
      // In band, or pinned at the floor / ceiling.
      return feasible(p) ? cur : feasible_end(cur);
    }
    if (made >= kMaxRetargetProbes) return feasible_end(cur);

    // The bracket: largest feasible tau below, smallest infeasible above.
    double lo = -kInf, hi = kInf;
    for (const TauProbe& q : probes_) {
      if (feasible(q)) lo = std::max(lo, q.tau_ns);
      else hi = std::min(hi, q.tau_ns);
    }
    if (hi - lo < tol_ns_ || next <= lo || next >= hi)
      return feasible_end(cur);
    cur = probe_at(next);
  }
}

}  // namespace doseopt::dmopt
