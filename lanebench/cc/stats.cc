#include "stats.h"

#include <algorithm>
#include <cmath>

namespace lanebench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
// 0-based nearest-rank index of percentile `pct` among n sorted samples.
// The epsilon keeps decimal percentiles such as 99.9 from rounding up a rank.
std::size_t rank_index(std::size_t n, double pct) {
  const double r = std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9);
  const std::size_t k = r < 1.0 ? 1 : static_cast<std::size_t>(r);
  return std::min(k, n) - 1;
}
}  // namespace

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[rank_index(v.size(), pct)];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, pct);
}

Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0}) {
    const std::size_t beyond = samples_beyond(v.size(), pct);
    if (beyond >= kTailMinBeyond) {
      t.present = true;
      t.pct = pct;
      t.value = percentile(v, pct);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

}  // namespace lanebench
