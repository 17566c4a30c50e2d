#include "common/zipf.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "../testsupport/zipf_reference.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

namespace guess {
namespace {

class ZipfAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaTest, PmfSumsToOne) {
  ZipfDistribution zipf(500, GetParam());
  double sum = 0.0;
  for (std::size_t r = 0; r < zipf.n(); ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfAlphaTest, PmfNonIncreasingInRank) {
  ZipfDistribution zipf(200, GetParam());
  for (std::size_t r = 1; r < zipf.n(); ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-12);
  }
}

TEST_P(ZipfAlphaTest, SamplesStayInRange) {
  ZipfDistribution zipf(50, GetParam());
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.sample(rng), 50u);
  }
}

TEST_P(ZipfAlphaTest, EmpiricalFrequencyTracksPmf) {
  ZipfDistribution zipf(20, GetParam());
  Rng rng(7);
  std::vector<int> counts(20, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 20; ++r) {
    double observed = static_cast<double>(counts[r]) / trials;
    EXPECT_NEAR(observed, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.5));

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
  }
}

TEST(Zipf, HigherAlphaConcentratesHead) {
  ZipfDistribution flat(100, 0.5);
  ZipfDistribution skewed(100, 1.5);
  EXPECT_GT(skewed.pmf(0), flat.pmf(0));
  EXPECT_LT(skewed.pmf(99), flat.pmf(99));
}

TEST(Zipf, SingleRankAlwaysSamplesZero) {
  ZipfDistribution zipf(1, 1.0);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, InvalidParametersThrow) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), CheckError);
  EXPECT_THROW(ZipfDistribution(10, -0.1), CheckError);
  ZipfDistribution zipf(10, 1.0);
  EXPECT_THROW(zipf.pmf(10), CheckError);
}

// --- oracle: the guide-table search against a plain binary search ---

using testsupport::zipf_reference_cdf;
using testsupport::zipf_reference_rank;

class ZipfGuideTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

// Every u where the two searches could part: each of the guide's bucket
// edges b/(kBucketsPerRank * n) and each CDF value, with both neighbouring
// doubles, plus both ends of [0, 1).
TEST_P(ZipfGuideTest, RankMatchesLowerBoundAtEveryEdge) {
  auto [n, alpha] = GetParam();
  ZipfDistribution zipf(n, alpha);
  const std::vector<double> cdf = zipf_reference_cdf(n, alpha);
  std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
  auto add_with_neighbours = [&us](double u) {
    us.push_back(u);
    if (u > 0.0) us.push_back(std::nextafter(u, 0.0));
    us.push_back(std::nextafter(u, 2.0));
  };
  const std::size_t buckets = n * ZipfDistribution::kBucketsPerRank;
  for (std::size_t b = 0; b < buckets; ++b) {
    add_with_neighbours(static_cast<double>(b) /
                        static_cast<double>(buckets));
  }
  for (double c : cdf) add_with_neighbours(c);
  for (double u : us) {
    ASSERT_EQ(zipf.rank(u), zipf_reference_rank(cdf, u))
        << "n=" << n << " alpha=" << alpha << " u=" << std::hexfloat << u;
  }
}

TEST_P(ZipfGuideTest, SampleReplaysBinarySearchDraws) {
  auto [n, alpha] = GetParam();
  ZipfDistribution zipf(n, alpha);
  const std::vector<double> cdf = zipf_reference_cdf(n, alpha);
  Rng a(61);
  Rng b(61);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(zipf.sample(a), zipf_reference_rank(cdf, b.uniform()))
        << "draw " << i;
  }
  EXPECT_EQ(a.engine()(), b.engine()());
}

// One rank; uniform; the default model's catalog and query universe and a
// size between; and (100, 3.0), where rank 0 holds 83% of the mass, so
// most buckets share one start rank.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfGuideTest,
    ::testing::Values(std::make_tuple(std::size_t{1}, 1.0),
                      std::make_tuple(std::size_t{10}, 0.0),
                      std::make_tuple(std::size_t{500}, 0.8),
                      std::make_tuple(std::size_t{8000}, 0.8),
                      std::make_tuple(std::size_t{10000}, 0.8),
                      std::make_tuple(std::size_t{100}, 3.0)),
    [](const auto& info) {
      std::string alpha = std::to_string(std::get<1>(info.param));
      std::replace(alpha.begin(), alpha.end(), '.', '_');
      return "n" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             alpha.substr(0, alpha.find('_') + 2);
    });

TEST(Zipf, NormalizerMatchesDirectSum) {
  ZipfDistribution zipf(100, 0.8);
  double h = 0.0;
  for (std::size_t r = 1; r <= 100; ++r) {
    h += std::pow(static_cast<double>(r), -0.8);
  }
  EXPECT_NEAR(zipf.normalizer(), h, 1e-9);
}

}  // namespace
}  // namespace guess
