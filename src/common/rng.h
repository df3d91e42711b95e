// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (circuit generators, placement
// perturbation) draw from Rng so that every experiment is exactly
// reproducible from a seed.  The engine is xoshiro256** seeded through
// SplitMix64, which has no pathological low-seed behavior.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace doseopt {

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit word.  Inline: the samplers draw millions of words
  /// per call and an out-of-line call costs more than the step itself.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of a word.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal variate (Box-Muller, cached pair).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// True with probability p.
  bool bernoulli(double p);

  /// Sample an index according to non-negative weights (need not sum to 1).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of an index-addressable container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derive an independent child generator (for parallel/substream use).
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Block sampler of standard normals by Marsaglia's polar method: each pair
/// is a uniform point (x, y) of the unit disc, rejection-sampled from the
/// square, scaled by sqrt(-2 ln q / q) with q = x^2 + y^2.  A log and a
/// sqrt per pair, no trig, so it is the draw of the hot samplers
/// (Monte-Carlo dies, the SSTA endpoint panel).
///
/// draw() returns exactly the values of `pairs` successive one-pair polar
/// draws and consumes exactly their uniforms: first every candidate point,
/// with branch-free compaction of the accepted ones, then one log/sqrt pass
/// over them.  Reads only uniform(); Rng::normal()'s cached value is left
/// alone.  The object only holds scratch, so keep one per worker lane.
class PolarSampler {
 public:
  /// Write 2 * pairs normals to out[0 .. 2 * pairs).
  void draw(Rng& rng, std::size_t pairs, double* out);

 private:
  std::vector<double> q_;  ///< squared radius of each accepted point
};

}  // namespace doseopt
