// Seeded job trace for the serve_mix workload.
//
// A bounded set of small sessions (Table I design, scale) and a job
// sequence over them that mixes three classes at fixed positions, so every
// seed has the same class shares:
//   * cold:   the first job on a session -- the server builds, characterizes
//             and fits it, and writes it to its session cache;
//   * sweep:  a not-yet-seen parameter point on an already-opened session
//             (timing or leakage DMopt, some with dosePl), a context hit;
//   * repeat: an exact repeat of an earlier job, answered from the memo.
// Every third job (from job kRepeatLag on) is a repeat and session k opens
// at job k * kColdEvery; the seed picks the order sessions open in, the
// session each sweep lands on, its grid, smoothness and dose range, and which earlier
// job a repeat copies.  Sweeps alternate QCP and QP, and every seventh runs
// dosePl.  Repeats point at least kRepeatLag jobs back, so with fewer
// closed-loop clients than that the original has finished and the repeat
// reads the memo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lanebench {

/// A Table I design at a reduced scale, with its Table I generator seed.
struct SessionDef {
  std::string design;
  double scale = 0.0;
};

enum class JobClass { kCold, kSweep, kRepeat };

struct TraceJob {
  JobClass cls = JobClass::kSweep;
  int session = 0;
  std::string mode = "timing";  ///< "timing" (QCP) or "leakage" (QP)
  double grid_um = 10.0;
  double delta_pct = 2.0;
  double range_pct = 5.0;  ///< dose correction range +/-
  bool dosepl = false;
  int repeat_of = -1;  ///< index of the repeated job (kRepeat only)
};

struct ServeTrace {
  std::vector<SessionDef> sessions;
  std::vector<TraceJob> jobs;
};

inline constexpr int kRepeatLag = 6;
inline constexpr std::size_t kColdEvery = 4;

/// The class of job `i` (independent of the seed).
JobClass class_at(std::size_t i);

/// The serve_mix trace for `seed`, `jobs` long.
ServeTrace make_serve_trace(std::uint64_t seed, std::size_t jobs);

/// Stable 64-bit mix (splitmix64 finalizer) used to derive every
/// workload input from the benchmark seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace lanebench
