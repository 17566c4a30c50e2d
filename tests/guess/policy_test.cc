#include "guess/policy.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess {
namespace {

CacheEntry entry(PeerId id, sim::Time ts, std::uint32_t files,
                 std::uint32_t res) {
  return CacheEntry{id, ts, files, res};
}

TEST(Policy, MruPrefersRecentTimestamps) {
  Rng rng(1);
  EXPECT_GT(selection_score(Policy::kMRU, entry(1, 100.0, 0, 0), rng),
            selection_score(Policy::kMRU, entry(2, 50.0, 0, 0), rng));
}

TEST(Policy, LruPrefersOldTimestamps) {
  Rng rng(1);
  EXPECT_GT(selection_score(Policy::kLRU, entry(1, 50.0, 0, 0), rng),
            selection_score(Policy::kLRU, entry(2, 100.0, 0, 0), rng));
}

TEST(Policy, MfsPrefersMoreFiles) {
  Rng rng(1);
  EXPECT_GT(selection_score(Policy::kMFS, entry(1, 0.0, 500, 0), rng),
            selection_score(Policy::kMFS, entry(2, 0.0, 10, 0), rng));
}

TEST(Policy, MrPrefersMoreResults) {
  Rng rng(1);
  EXPECT_GT(selection_score(Policy::kMR, entry(1, 0.0, 0, 7), rng),
            selection_score(Policy::kMR, entry(2, 0.0, 0, 2), rng));
}

TEST(Policy, RandomScoresVary) {
  Rng rng(1);
  CacheEntry e = entry(1, 0.0, 0, 0);
  double a = selection_score(Policy::kRandom, e, rng);
  double b = selection_score(Policy::kRandom, e, rng);
  EXPECT_NE(a, b);
}

TEST(Replacement, LfsEvictsFewestFiles) {
  // Lower retention = evicted first.
  EXPECT_LT(deterministic_retention_score(Replacement::kLFS,
                                          entry(1, 0.0, 3, 0), false),
            deterministic_retention_score(Replacement::kLFS,
                                          entry(2, 0.0, 100, 0), false));
}

TEST(Replacement, LrEvictsFewestResults) {
  EXPECT_LT(deterministic_retention_score(Replacement::kLR,
                                          entry(1, 0.0, 0, 0), false),
            deterministic_retention_score(Replacement::kLR,
                                          entry(2, 0.0, 0, 5), false));
}

TEST(Replacement, LruEvictsOldest) {
  EXPECT_LT(deterministic_retention_score(Replacement::kLRU,
                                          entry(1, 10.0, 0, 0), false),
            deterministic_retention_score(Replacement::kLRU,
                                          entry(2, 90.0, 0, 0), false));
}

TEST(Replacement, MruEvictsNewest) {
  EXPECT_LT(deterministic_retention_score(Replacement::kMRU,
                                          entry(1, 90.0, 0, 0), false),
            deterministic_retention_score(Replacement::kMRU,
                                          entry(2, 10.0, 0, 0), false));
}

class PolicyRoundTrip : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyRoundTrip, ToStringParsesBack) {
  EXPECT_EQ(parse_policy(to_string(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(All, PolicyRoundTrip,
                         ::testing::Values(Policy::kRandom, Policy::kMRU,
                                           Policy::kLRU, Policy::kMFS,
                                           Policy::kMR));

class ReplacementRoundTrip : public ::testing::TestWithParam<Replacement> {};

TEST_P(ReplacementRoundTrip, ToStringParsesBack) {
  EXPECT_EQ(parse_replacement(to_string(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(All, ReplacementRoundTrip,
                         ::testing::Values(Replacement::kRandom,
                                           Replacement::kLRU,
                                           Replacement::kMRU,
                                           Replacement::kLFS,
                                           Replacement::kLR));

TEST(Policy, ParseAcceptsLongRandomAlias) {
  EXPECT_EQ(parse_policy("Random"), Policy::kRandom);
  EXPECT_EQ(parse_replacement("Random"), Replacement::kRandom);
}

TEST(Policy, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_policy("XYZ"), CheckError);
  EXPECT_THROW(parse_replacement("MFS2"), CheckError);
}

}  // namespace
}  // namespace guess
