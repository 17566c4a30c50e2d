#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace guess {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntIsInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 5));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, IndexOfZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), CheckError);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, PickReturnsElementFromSpan) {
  Rng rng(19);
  std::vector<int> items = {10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    int v = rng.pick(std::span<const int>(items));
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(23);
  std::vector<int> items = {1, 2, 3, 4, 5, 6};
  auto copy = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(29);
  Rng child = parent.split();
  // The child stream should not mirror the parent's subsequent output.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform() == child.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- property tests over (n, k) for distinct sampling ---

class SampleIndicesTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SampleIndicesTest, ReturnsKDistinctInRange) {
  auto [n, k] = GetParam();
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    auto sample = rng.sample_indices(n, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (auto idx : sample) EXPECT_LT(idx, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleIndicesTest,
    ::testing::Values(std::make_tuple(1, 0), std::make_tuple(1, 1),
                      std::make_tuple(10, 3), std::make_tuple(10, 10),
                      std::make_tuple(100, 5), std::make_tuple(100, 99),
                      std::make_tuple(1000, 2), std::make_tuple(7, 6)));

TEST(Rng, SampleIndicesKLargerThanNThrows) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_indices(3, 4), CheckError);
}

// The sampler as it was before the sparse branch's membership table:
// partial Fisher–Yates when dense, rejection with a linear scan of the
// accepted prefix when sparse. Kept as the oracle for the draws: every
// pinned result depends on them not shifting by a single call.
std::vector<std::size_t> reference_sample(Rng& rng, std::size_t n,
                                          std::size_t k) {
  std::vector<std::size_t> out;
  if (k == 0) return out;
  if (k * 3 >= n) {
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + rng.index(n - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }
  while (out.size() < k) {
    std::size_t candidate = rng.index(n);
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
  }
  return out;
}

// Both entry points draw the oracle's exact sequence, on both sides of the
// sparse branch's scan/table threshold (k = 16) and at the pong (100, 5)
// and initial-seeding (10000, 101) shapes.
TEST(Rng, SampleIndicesIntoDrawIdentity) {
  Rng oracle(53);
  Rng into(53);
  Rng plain(53);
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  // Interleaved so a draw-count mismatch in any call desynchronises
  // everything after it.
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {1, 0}, {1, 1}, {10, 3}, {10, 10}, {100, 5},
      {100, 99}, {1000, 2}, {7, 6}, {64, 32},
      // Either side of the scan/table threshold, and the seeding shape.
      {100, 16}, {100, 17}, {64, 21}, {10000, 101}, {100000, 1000}};
  for (int round = 0; round < 50; ++round) {
    for (auto [n, k] : cases) {
      auto expected = reference_sample(oracle, n, k);
      into.sample_indices_into(n, k, out, scratch);
      ASSERT_EQ(out, expected) << "n=" << n << " k=" << k;
      ASSERT_EQ(plain.sample_indices(n, k), expected)
          << "n=" << n << " k=" << k;
    }
  }
  // Same number of raw draws consumed overall.
  const auto next = oracle.engine()();
  EXPECT_EQ(into.engine()(), next);
  EXPECT_EQ(plain.engine()(), next);
}

TEST(Rng, SampleIndicesUniformity) {
  // Every index should be sampled with roughly equal frequency.
  Rng rng(41);
  std::vector<int> counts(10, 0);
  const int rounds = 20000;
  for (int round = 0; round < rounds; ++round) {
    for (auto idx : rng.sample_indices(10, 3)) ++counts[idx];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / rounds, 0.3, 0.03);
  }
}

}  // namespace
}  // namespace guess
