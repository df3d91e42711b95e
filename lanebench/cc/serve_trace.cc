#include "serve_trace.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"

namespace lanebench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
// Sessions: AES-65 at 10-14 % and JPEG-65 at 2.4-3.2 % of Table I size
// (JPEG-65 has 4.2x the cells of AES-65), 1.6k-2.3k cells each.  Sizes stay
// close so that which sessions a seed sweeps first barely moves the work.
constexpr struct {
  const char* design;
  double scale;
} kSessionShapes[] = {
    {"aes65", 0.10},   {"jpeg65", 0.024}, {"aes65", 0.12},
    {"jpeg65", 0.028}, {"aes65", 0.14},   {"jpeg65", 0.032},
};
// QCP probes the QP about eight times, so QCP sweeps get coarser grids than
// QP sweeps: both then cost about the same, the latency distribution has one
// mode, and its median does not sit on the edge between two.
constexpr double kTimingGrids[] = {20.0, 25.0, 30.0};
constexpr double kLeakageGrids[] = {10.0, 12.5, 15.0};
constexpr std::size_t kGridChoices = std::size(kTimingGrids);
constexpr double kDeltas[] = {1.0, 1.5, 2.0, 2.5, 3.0};
constexpr double kRanges[] = {4.0, 5.0, 6.0};
// Every kDoseplEvery-th sweep also runs dosePl.
constexpr std::size_t kDoseplEvery = 7;
}  // namespace

JobClass class_at(std::size_t i) {
  if (i % kColdEvery == 0 && i / kColdEvery < std::size(kSessionShapes))
    return JobClass::kCold;
  if (i % 3 == 2 && i >= static_cast<std::size_t>(kRepeatLag))
    return JobClass::kRepeat;
  return JobClass::kSweep;
}

ServeTrace make_serve_trace(std::uint64_t seed, std::size_t jobs) {
  ServeTrace t;
  doseopt::Rng rng(mix_seed(seed, 0x5e7e));
  for (const auto& shape : kSessionShapes)
    t.sessions.push_back({shape.design, shape.scale});
  std::size_t opened = 0;

  std::set<std::tuple<int, std::string, double, double, double, bool>> seen;
  std::vector<std::size_t> originals;  ///< non-repeat job indices
  std::size_t sweeps = 0;
  const auto key = [](const TraceJob& j) {
    return std::make_tuple(j.session, j.mode, j.grid_um, j.delta_pct,
                           j.range_pct, j.dosepl);
  };

  for (std::size_t i = 0; i < jobs; ++i) {
    TraceJob j;
    j.cls = class_at(i);
    if (j.cls == JobClass::kRepeat) {
      // Uniform over originals at least kRepeatLag jobs back.
      std::size_t n = 0;
      while (n < originals.size() && originals[n] + kRepeatLag <= i) ++n;
      const std::size_t k = originals[rng.uniform_index(n)];
      j = t.jobs[k];
      j.cls = JobClass::kRepeat;
      j.repeat_of = static_cast<int>(k);
    } else if (j.cls == JobClass::kCold) {
      j.session = static_cast<int>(opened++);
      j.mode = "timing";
      j.grid_um = kTimingGrids[0];
    } else {
      // Sweeps walk every (session slot, mode, grid) combination in a fixed
      // order, so each prefix of the trace carries the same work whatever
      // the seed; slots of sessions not yet opened fold onto opened ones.
      const std::size_t slot = sweeps % std::size(kSessionShapes);
      j.session = static_cast<int>(slot < opened ? slot : slot % opened);
      const bool timing = (sweeps / std::size(kSessionShapes)) % 2 == 0;
      const std::size_t grid =
          (sweeps / (2 * std::size(kSessionShapes))) % kGridChoices;
      j.mode = timing ? "timing" : "leakage";
      j.grid_um = timing ? kTimingGrids[grid] : kLeakageGrids[grid];
      j.dosepl = sweeps % kDoseplEvery == 3;
      ++sweeps;
    }
    if (j.cls != JobClass::kRepeat) {
      // A smoothness and range this point has not seen yet (15 pairs per
      // session, mode, grid and dosePl flag; a run sweeps each such point
      // about three times).
      for (int tries = 0; tries < 64; ++tries) {
        j.delta_pct = kDeltas[rng.uniform_index(std::size(kDeltas))];
        j.range_pct = kRanges[rng.uniform_index(std::size(kRanges))];
        if (seen.count(key(j)) == 0) break;
      }
      seen.insert(key(j));
      originals.push_back(i);
    }
    t.jobs.push_back(j);
  }
  return t;
}

}  // namespace lanebench
