// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (circuit generators, placement
// perturbation) draw from Rng so that every experiment is exactly
// reproducible from a seed.  The engine is xoshiro256** seeded through
// SplitMix64, which has no pathological low-seed behavior.
#pragma once

#include <cstdint>
#include <vector>

namespace doseopt {

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal variate (Box-Muller, cached pair).
  double normal();

  /// Advance the stream exactly as `n` calls to normal() would (same
  /// state, same cached-normal state afterwards) using integer steps only:
  /// a pending cached normal is consumed first, each Box-Muller pair costs
  /// its two words plus the u1 <= 0 retries, and an odd remainder draws its
  /// last normal for real so the cache matches.  Lets a serial pass record
  /// the start state of every chunk of a long draw sequence cheaply.
  void discard_normals(std::uint64_t n);

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

}  // namespace doseopt
