#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace doseopt {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) {
  DOSEOPT_CHECK(lo <= hi, "uniform: empty range");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  DOSEOPT_CHECK(n > 0, "uniform_index: n must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

int Rng::uniform_int(int lo, int hi) {
  DOSEOPT_CHECK(lo <= hi, "uniform_int: empty range");
  return lo + static_cast<int>(uniform_index(
                  static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
#if defined(__GLIBC__)
  // glibc's sincos shares the sin/cos kernels and returns bit-identical
  // values in one argument reduction; the Monte-Carlo sampler draws enough
  // normals per die that the second libm call is measurable.
  double sin_theta, cos_theta;
  ::sincos(theta, &sin_theta, &cos_theta);
#else
  const double sin_theta = std::sin(theta);
  const double cos_theta = std::cos(theta);
#endif
  cached_normal_ = r * sin_theta;
  has_cached_normal_ = true;
  return r * cos_theta;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  DOSEOPT_CHECK(!weights.empty(), "weighted_index: empty weights");
  double total = 0.0;
  for (double w : weights) {
    DOSEOPT_CHECK(w >= 0.0, "weighted_index: negative weight");
    total += w;
  }
  DOSEOPT_CHECK(total > 0.0, "weighted_index: all-zero weights");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

void PolarSampler::draw(Rng& rng, std::size_t pairs, double* out) {
  q_.resize(pairs);
  // Each pass tries one candidate per missing pair, so it can never accept
  // more points than are missing: the stream stops exactly where the
  // scalar rejection loop stops.  A rejected point is overwritten by the
  // next candidate; slot `acc` < pairs always holds.
  std::size_t done = 0;
  while (done < pairs) {
    const std::size_t need = pairs - done;
    std::size_t acc = done;
    for (std::size_t j = 0; j < need; ++j) {
      const double x = 2.0 * rng.uniform() - 1.0;
      const double y = 2.0 * rng.uniform() - 1.0;
      const double q = x * x + y * y;
      out[2 * acc] = x;
      out[2 * acc + 1] = y;
      q_[acc] = q;
      acc += static_cast<std::size_t>(q < 1.0) &
             static_cast<std::size_t>(q != 0.0);
    }
    done = acc;
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    const double q = q_[i];
    const double f = std::sqrt(-2.0 * std::log(q) / q);
    out[2 * i] *= f;
    out[2 * i + 1] *= f;
  }
}

}  // namespace doseopt
