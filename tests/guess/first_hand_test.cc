// The first-hand trust model behind MR* and the detection-triggered policy
// switch: stored NumRes values circulate unmodified, but ranking and
// retention ignore claims the owner did not verify personally.
#include <gtest/gtest.h>

#include "common/check.h"
#include "guess/link_cache.h"

namespace guess {
namespace {

constexpr PeerId kOwner = 77;

TEST(FirstHand, TrustedValueDependsOnProvenance) {
  CacheEntry foreign{1, 0.0, 10, 20, /*first_hand=*/false};
  CacheEntry own{2, 0.0, 10, 20, /*first_hand=*/true};
  EXPECT_EQ(foreign.trusted_num_res(false), 20u);  // trusting mode
  EXPECT_EQ(foreign.trusted_num_res(true), 0u);    // first-hand-only mode
  EXPECT_EQ(own.trusted_num_res(true), 20u);       // verified personally
}

TEST(FirstHand, MrSelectionIgnoresForeignClaims) {
  LinkCache cache(kOwner, 4);
  cache.configure_indices({Policy::kMR}, Replacement::kRandom);
  Rng rng(1);
  cache.insert_free(CacheEntry{1, 0.0, 0, 50, false});  // loud claim
  cache.insert_free(CacheEntry{2, 0.0, 0, 2, true});    // verified producer

  // Trusting mode: the claim wins.
  EXPECT_EQ(cache.select_best(Policy::kMR, rng)->id, 1u);

  // First-hand-only: the claim ranks as 0, the verified producer wins.
  cache.set_first_hand_only(true);
  EXPECT_EQ(cache.select_best(Policy::kMR, rng)->id, 2u);
}

TEST(FirstHand, LrRetentionProtectsVerifiedProducers) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLR);
  Rng rng(1);
  cache.set_first_hand_only(true);
  cache.insert_free(CacheEntry{1, 0.0, 0, 50, false});  // unverified claim
  cache.insert_free(CacheEntry{2, 0.0, 0, 1, true});    // verified producer
  // A new verified producer evicts the claim (treated as 0), never the
  // first-hand entry.
  EXPECT_TRUE(cache.offer(CacheEntry{3, 0.0, 0, 2, true}, Replacement::kLR,
                          rng));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(FirstHand, ForeignZeroCandidateCannotDisplaceForeignZeroVictim) {
  LinkCache cache(kOwner, 1);
  cache.configure_indices({}, Replacement::kLR);
  Rng rng(1);
  cache.set_first_hand_only(true);
  cache.insert_free(CacheEntry{1, 0.0, 0, 50, false});
  // Tie at trusted value 0: candidate must strictly beat the victim.
  EXPECT_FALSE(cache.offer(CacheEntry{2, 0.0, 0, 99, false},
                           Replacement::kLR, rng));
  EXPECT_TRUE(cache.contains(1));
}

TEST(FirstHand, SetNumResUpgradesProvenance) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({Policy::kMR}, Replacement::kRandom);
  cache.insert_free(CacheEntry{1, 0.0, 0, 20, false});
  EXPECT_FALSE(cache.get(1)->first_hand);
  cache.set_num_res(1, 3);  // the owner probed the peer itself
  EXPECT_TRUE(cache.get(1)->first_hand);
  EXPECT_EQ(cache.get(1)->num_res, 3u);
  Rng rng(1);
  cache.set_first_hand_only(true);
  EXPECT_EQ(cache.select_best(Policy::kMR, rng)->id, 1u);
}

TEST(FirstHand, StoredClaimSurvivesModeForDetection) {
  // The mode changes what rankings USE, never what is STORED — the §6.4
  // detection heuristic needs the original outsized claim as evidence.
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLR);
  cache.set_first_hand_only(true);
  Rng rng(1);
  cache.offer(CacheEntry{1, 0.0, 0, 42, false}, Replacement::kLR, rng);
  EXPECT_EQ(cache.get(1)->num_res, 42u);
  EXPECT_FALSE(cache.get(1)->first_hand);
}

TEST(FirstHand, MfsUnaffectedByMode) {
  // First-hand-only governs NumRes only; NumFiles stays trusted (the MFS
  // gullibility the paper analyzes is a separate axis).
  LinkCache cache(kOwner, 4);
  cache.configure_indices({Policy::kMFS}, Replacement::kRandom);
  Rng rng(1);
  cache.set_first_hand_only(true);
  cache.insert_free(CacheEntry{1, 0.0, 500, 0, false});
  cache.insert_free(CacheEntry{2, 0.0, 10, 0, true});
  EXPECT_EQ(cache.select_best(Policy::kMFS, rng)->id, 1u);
}

}  // namespace
}  // namespace guess
