// Order statistics the benchmark reports: the median, nearest-rank
// percentiles, and the tail rule -- the highest percentile that still has
// at least ten samples beyond it.
#pragma once

#include <cstddef>
#include <vector>

namespace lanebench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile `pct` in (0, 100] of a non-empty sample.
double percentile(std::vector<double> v, double pct);

/// Samples strictly above the nearest-rank position of `pct` in a sample of
/// `n` (the count "beyond" that percentile).
std::size_t samples_beyond(std::size_t n, double pct);

/// The tail a run may report.  `present` is false when no percentile of the
/// ladder {99.9, 99, 95, 90} has ten samples beyond it (fewer than 100
/// samples); the tail is then omitted, not guessed.
struct Tail {
  bool present = false;
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
inline constexpr std::size_t kTailMinBeyond = 10;
Tail tail_percentile(const std::vector<double>& v);

}  // namespace lanebench
