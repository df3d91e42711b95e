// Unit tests for src/common: deterministic RNG, string helpers, text tables,
// and the error-checking macros.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "test_helpers.h"

namespace doseopt {
namespace {

/// One pair of polar normals per call: the scalar rejection loop that the
/// block sampler replaced, kept as the reference PolarSampler must match
/// value for value and uniform for uniform.
std::pair<double, double> polar_normal_pair(Rng& rng) {
  double x, y, q;
  do {
    x = 2.0 * rng.uniform() - 1.0;
    y = 2.0 * rng.uniform() - 1.0;
    q = x * x + y * y;
  } while (q >= 1.0 || q == 0.0);
  const double f = std::sqrt(-2.0 * std::log(q) / q);
  return {x * f, y * f};
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    DOSEOPT_CHECK(false, "bad thing");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad thing"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(DOSEOPT_CHECK(1 + 1 == 2, "math"));
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(DOSEOPT_FAIL("unreachable"), Error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(17);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, StreamsArePinned) {
  // The first values of each stream, recorded before next_u64/uniform
  // moved inline and before the Monte-Carlo sampler's polar draw became
  // one pair per call: every seeded experiment depends on them.  The polar
  // stream now comes from the block sampler.
  testing_support::Fnv1a words, uniforms, normals, polar;
  Rng w(42), u(43), n(44), p(45);
  for (int i = 0; i < 1000; ++i) words.add(w.next_u64());
  for (int i = 0; i < 1000; ++i) uniforms.add(u.uniform());
  for (int i = 0; i < 1001; ++i) normals.add(n.normal());  // odd: the cache
  std::vector<double> z(1000);
  PolarSampler sampler;
  sampler.draw(p, 500, z.data());
  for (const double x : z) polar.add(x);
  EXPECT_EQ(words.value(), 0x7724342798A193C9ULL);
  EXPECT_EQ(uniforms.value(), 0x5C3F6075B1796375ULL);
  EXPECT_EQ(normals.value(), 0xF95911E6FF97E6F8ULL);
  EXPECT_EQ(polar.value(), 0xB1E0F87A57B4AD48ULL);
}

TEST(Rng, PolarNormalMatchesStandardNormalMoments) {
  // Sample moments of 10^6 polar draws against the exact N(0, 1) values,
  // each within 4 standard errors: E z = 0, E z^2 = 1, E z^4 = 3 (the
  // standard errors use Var z^2 = 2 and Var z^4 = E z^8 - 9 = 96), and
  // P(|z| > 3) = erfc(3 / sqrt 2).
  constexpr int kPairs = 500000;
  constexpr double n = 2.0 * kPairs;
  Rng rng(20261017);
  std::vector<double> draws(2 * kPairs);
  PolarSampler sampler;
  sampler.draw(rng, kPairs, draws.data());
  double sum = 0.0, sq = 0.0, quad = 0.0, tail = 0.0;
  for (const double z : draws) {
    sum += z;
    sq += z * z;
    quad += z * z * z * z;
    if (std::fabs(z) > 3.0) tail += 1.0;
  }
  const double p_tail = std::erfc(3.0 / std::sqrt(2.0));
  EXPECT_NEAR(sum / n, 0.0, 4.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(sq / n, 1.0, 4.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(quad / n, 3.0, 4.0 * std::sqrt(96.0 / n));
  EXPECT_NEAR(tail / n, p_tail, 4.0 * std::sqrt(p_tail * (1.0 - p_tail) / n));
}

TEST(Rng, PolarSamplerMatchesScalarDraws) {
  // Same values bit for bit, and the same uniforms consumed: the next word
  // after the block equals the next word after the scalar loop.  One
  // sampler serves every count, so reused scratch is covered too.
  PolarSampler sampler;
  for (const std::size_t pairs : {0, 1, 2, 17, 5480}) {
    Rng scalar(77 + pairs), block(77 + pairs);
    std::vector<double> want;
    for (std::size_t i = 0; i < pairs; ++i) {
      const auto [z0, z1] = polar_normal_pair(scalar);
      want.push_back(z0);
      want.push_back(z1);
    }
    std::vector<double> got(2 * pairs + 1, -7.0);
    sampler.draw(block, pairs, got.data());
    for (std::size_t i = 0; i < 2 * pairs; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "pairs " << pairs << " value " << i;
    EXPECT_EQ(got[2 * pairs], -7.0) << "wrote past the block";
    EXPECT_EQ(block.next_u64(), scalar.next_u64()) << "pairs " << pairs;
  }
}

TEST(Rng, NormalScaled) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), Error);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), Error);
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), Error);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(37);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Rng, ForkIndependent) {
  Rng a(41);
  Rng b = a.fork();
  // The fork should not replay the parent's stream.
  bool differ = false;
  for (int i = 0; i < 16; ++i)
    if (a.next_u64() != b.next_u64()) differ = true;
  EXPECT_TRUE(differ);
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitMultipleDelims) {
  const auto parts = split("x 1\ty", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "1");
}

TEST(Strings, SplitEmpty) { EXPECT_TRUE(split("", ",").empty()); }

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(str_format("%.2f", 1.234), "1.23");
}

TEST(Table, AlignsColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator line exists.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, SeparatorRows) {
  TextTable t;
  t.add_row({"a"});
  t.add_separator();
  t.add_row({"b"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_f(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_pct(-3.456, 2), "-3.46");
}

}  // namespace
}  // namespace doseopt
