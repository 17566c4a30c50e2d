#include "guess/link_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/check.h"

namespace guess {
namespace {

constexpr PeerId kOwner = 999;

CacheEntry entry(PeerId id, sim::Time ts = 0.0, std::uint32_t files = 0,
                 std::uint32_t res = 0) {
  return CacheEntry{id, ts, files, res};
}

TEST(LinkCache, InsertAndLookup) {
  LinkCache cache(kOwner, 4);
  cache.insert_free(entry(1, 5.0, 10, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains(1));
  auto got = cache.get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 5.0);
  EXPECT_EQ(got->num_files, 10u);
  EXPECT_EQ(got->num_res, 2u);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LinkCache, InsertFreePreconditions) {
  LinkCache cache(kOwner, 1);
  EXPECT_THROW(cache.insert_free(entry(kOwner)), CheckError);  // self
  cache.insert_free(entry(1));
  EXPECT_THROW(cache.insert_free(entry(2)), CheckError);  // full
  LinkCache cache2(kOwner, 2);
  cache2.insert_free(entry(1));
  EXPECT_THROW(cache2.insert_free(entry(1)), CheckError);  // duplicate
}

TEST(LinkCache, OfferFillsFreeSpace) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLFS);
  Rng rng(1);
  EXPECT_TRUE(cache.offer(entry(1), Replacement::kLFS, rng));
  EXPECT_TRUE(cache.offer(entry(2), Replacement::kLFS, rng));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LinkCache, OfferRejectsSelfAndDuplicates) {
  LinkCache cache(kOwner, 4);
  Rng rng(1);
  EXPECT_FALSE(cache.offer(entry(kOwner), Replacement::kRandom, rng));
  EXPECT_TRUE(cache.offer(entry(1, 1.0), Replacement::kRandom, rng));
  // Second offer for the same id is ignored; fields stay as first stored.
  EXPECT_FALSE(cache.offer(entry(1, 99.0), Replacement::kRandom, rng));
  EXPECT_EQ(cache.get(1)->ts, 1.0);
}

TEST(LinkCache, LfsReplacementKeepsBigSharers) {
  LinkCache cache(kOwner, 3);
  cache.configure_indices({}, Replacement::kLFS);
  Rng rng(1);
  cache.insert_free(entry(1, 0.0, 10, 0));
  cache.insert_free(entry(2, 0.0, 50, 0));
  cache.insert_free(entry(3, 0.0, 100, 0));
  // Candidate with more files than the minimum replaces the minimum.
  EXPECT_TRUE(cache.offer(entry(4, 0.0, 60, 0), Replacement::kLFS, rng));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(4));
  // Candidate weaker than every entry is rejected.
  EXPECT_FALSE(cache.offer(entry(5, 0.0, 5, 0), Replacement::kLFS, rng));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LinkCache, LrReplacementKeepsProductivePeers) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLR);
  Rng rng(1);
  cache.insert_free(entry(1, 0.0, 0, 5));
  cache.insert_free(entry(2, 0.0, 0, 1));
  EXPECT_TRUE(cache.offer(entry(3, 0.0, 0, 3), Replacement::kLR, rng));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
}

TEST(LinkCache, LruReplacementEvictsStalest) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLRU);
  Rng rng(1);
  cache.insert_free(entry(1, 10.0));
  cache.insert_free(entry(2, 90.0));
  EXPECT_TRUE(cache.offer(entry(3, 50.0), Replacement::kLRU, rng));
  EXPECT_FALSE(cache.contains(1));
}

TEST(LinkCache, MruReplacementEvictsFreshest) {
  // The paper's pathological "fairness" policy: stale entries survive.
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kMRU);
  Rng rng(1);
  cache.insert_free(entry(1, 10.0));
  cache.insert_free(entry(2, 90.0));
  EXPECT_TRUE(cache.offer(entry(3, 50.0), Replacement::kMRU, rng));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
}

TEST(LinkCache, RandomReplacementAlwaysInserts) {
  LinkCache cache(kOwner, 5);
  Rng rng(1);
  for (PeerId id = 1; id <= 5; ++id) cache.insert_free(entry(id));
  for (PeerId id = 100; id < 150; ++id) {
    EXPECT_TRUE(cache.offer(entry(id), Replacement::kRandom, rng));
    EXPECT_EQ(cache.size(), 5u);
    EXPECT_TRUE(cache.contains(id));
  }
}

TEST(LinkCache, EvictRemovesAndReports) {
  LinkCache cache(kOwner, 3);
  cache.insert_free(entry(1));
  cache.insert_free(entry(2));
  EXPECT_TRUE(cache.evict(1));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.evict(1));  // already gone
  EXPECT_TRUE(cache.contains(2));
}

TEST(LinkCache, TouchAndSetNumResUpdateFields) {
  LinkCache cache(kOwner, 2);
  cache.insert_free(entry(1, 0.0, 10, 0));
  cache.touch(1, 42.0);
  cache.set_num_res(1, 3);
  EXPECT_EQ(cache.get(1)->ts, 42.0);
  EXPECT_EQ(cache.get(1)->num_res, 3u);
  // No-ops for absent ids.
  cache.touch(9, 1.0);
  cache.set_num_res(9, 1);
}

TEST(LinkCache, SelectBestFollowsPolicy) {
  LinkCache cache(kOwner, 4);
  cache.configure_indices({Policy::kMRU, Policy::kLRU, Policy::kMFS,
                           Policy::kMR},
                          Replacement::kRandom);
  Rng rng(1);
  cache.insert_free(entry(1, 10.0, 5, 1));
  cache.insert_free(entry(2, 90.0, 50, 0));
  cache.insert_free(entry(3, 50.0, 20, 9));
  EXPECT_EQ(cache.select_best(Policy::kMRU, rng)->id, 2u);
  EXPECT_EQ(cache.select_best(Policy::kLRU, rng)->id, 1u);
  EXPECT_EQ(cache.select_best(Policy::kMFS, rng)->id, 2u);
  EXPECT_EQ(cache.select_best(Policy::kMR, rng)->id, 3u);
}

TEST(LinkCache, SelectBestOnEmptyReturnsNothing) {
  LinkCache cache(kOwner, 2);
  Rng rng(1);
  EXPECT_FALSE(cache.select_best(Policy::kRandom, rng).has_value());
}

TEST(LinkCache, SelectTopReturnsDescendingByPolicy) {
  LinkCache cache(kOwner, 5);
  cache.configure_indices({Policy::kMFS}, Replacement::kRandom);
  Rng rng(1);
  for (PeerId id = 1; id <= 5; ++id) {
    cache.insert_free(entry(id, 0.0, static_cast<std::uint32_t>(id * 10), 0));
  }
  auto top = cache.select_top(Policy::kMFS, 3, rng);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 5u);
  EXPECT_EQ(top[1].id, 4u);
  EXPECT_EQ(top[2].id, 3u);
}

TEST(LinkCache, SelectTopBreaksScoreTiesByInsertionIndex) {
  // Duplicate scores: without an explicit index tie-break the winners among
  // equal-score entries would depend on the heap layout. Insertion (index)
  // order is the contract.
  LinkCache cache(kOwner, 6);
  cache.configure_indices({Policy::kMFS}, Replacement::kRandom);
  Rng rng(1);
  cache.insert_free(entry(10, 0.0, 50, 0));
  cache.insert_free(entry(20, 0.0, 50, 0));
  cache.insert_free(entry(30, 0.0, 50, 0));
  cache.insert_free(entry(40, 0.0, 50, 0));
  cache.insert_free(entry(50, 0.0, 99, 0));
  cache.insert_free(entry(60, 0.0, 50, 0));
  for (int round = 0; round < 20; ++round) {
    auto top = cache.select_top(Policy::kMFS, 3, rng);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].id, 50u);  // unique max first
    EXPECT_EQ(top[1].id, 10u);  // then ties in insertion order
    EXPECT_EQ(top[2].id, 20u);
  }
}

TEST(LinkCache, SelectTopAllTiedReturnsPrefixInInsertionOrder) {
  LinkCache cache(kOwner, 8);
  cache.configure_indices({Policy::kMFS}, Replacement::kRandom);
  Rng rng(3);
  for (PeerId id = 1; id <= 8; ++id) {
    cache.insert_free(entry(id, 0.0, 7, 0));
  }
  auto top = cache.select_top(Policy::kMFS, 4, rng);
  ASSERT_EQ(top.size(), 4u);
  for (PeerId i = 0; i < 4; ++i) EXPECT_EQ(top[i].id, i + 1);
}

TEST(LinkCache, SelectTopClampsToSize) {
  LinkCache cache(kOwner, 4);
  Rng rng(1);
  cache.insert_free(entry(1));
  auto top = cache.select_top(Policy::kRandom, 10, rng);
  EXPECT_EQ(top.size(), 1u);
  EXPECT_TRUE(cache.select_top(Policy::kRandom, 0, rng).empty());
}

TEST(LinkCache, SelectTopRandomIsDistinct) {
  LinkCache cache(kOwner, 10);
  Rng rng(1);
  for (PeerId id = 1; id <= 10; ++id) cache.insert_free(entry(id));
  for (int round = 0; round < 50; ++round) {
    auto top = cache.select_top(Policy::kRandom, 5, rng);
    std::set<PeerId> ids;
    for (const auto& e : top) ids.insert(e.id);
    EXPECT_EQ(ids.size(), 5u);
  }
}

TEST(LinkCache, RandomSelectionIsRoughlyUniform) {
  LinkCache cache(kOwner, 4);
  Rng rng(1);
  for (PeerId id = 0; id < 4; ++id) cache.insert_free(entry(id + 1));
  std::map<PeerId, int> counts;
  for (int i = 0; i < 8000; ++i) {
    ++counts[cache.select_best(Policy::kRandom, rng)->id];
  }
  for (const auto& [id, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / 8000.0, 0.25, 0.03)
        << "peer " << id;
  }
}

TEST(LinkCache, CountIfMatchesPredicate) {
  LinkCache cache(kOwner, 4);
  cache.insert_free(entry(1, 0.0, 10, 0));
  cache.insert_free(entry(2, 0.0, 30, 0));
  cache.insert_free(entry(3, 0.0, 50, 0));
  EXPECT_EQ(cache.count_if([](const CacheEntry& e) {
    return e.num_files >= 30;
  }),
            2u);
}

TEST(LinkCache, ZeroCapacityRejected) {
  EXPECT_THROW(LinkCache(kOwner, 0), CheckError);
}

// Only configured orderings can be selected or replaced by; kRandom needs
// none. The check holds even when the cache could answer without one.
TEST(LinkCache, UnconfiguredPolicyRejected) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({Policy::kMFS}, Replacement::kLFS);
  Rng rng(1);
  EXPECT_THROW(cache.select_best(Policy::kMR, rng), CheckError);
  EXPECT_THROW(cache.select_top(Policy::kLRU, 1, rng), CheckError);
  EXPECT_THROW(cache.offer(entry(1), Replacement::kLR, rng), CheckError);
  EXPECT_TRUE(cache.offer(entry(1), Replacement::kLFS, rng));
  EXPECT_TRUE(cache.offer(entry(2), Replacement::kRandom, rng));
  EXPECT_EQ(cache.select_best(Policy::kMFS, rng)->id, 1u);
  EXPECT_EQ(cache.select_top(Policy::kRandom, 2, rng).size(), 2u);

  // A retention ordering keyed by a policy's score does not configure that
  // policy for selection.
  LinkCache retained(kOwner, 2);
  retained.configure_indices({}, Replacement::kLFS);
  EXPECT_TRUE(retained.offer(entry(1), Replacement::kLFS, rng));
  EXPECT_THROW(retained.select_best(Policy::kMFS, rng), CheckError);
}

// --- first-hand floor (eclipse resistance, DESIGN.md §11) ------------------

TEST(LinkCacheFloor, FirstHandCountTracksObservationsAndEvictions) {
  LinkCache cache(kOwner, 4);
  EXPECT_EQ(cache.first_hand_count(), 0u);
  cache.insert_free(entry(1));
  cache.insert_free(entry(2));
  EXPECT_EQ(cache.first_hand_count(), 0u);  // pong entries are foreign
  cache.set_num_res(1, 3);                  // own probe observation
  EXPECT_EQ(cache.first_hand_count(), 1u);
  cache.set_num_res(1, 5);                  // already first-hand: no double count
  EXPECT_EQ(cache.first_hand_count(), 1u);
  cache.set_num_res(2, 0);
  EXPECT_EQ(cache.first_hand_count(), 2u);
  cache.evict(1);
  EXPECT_EQ(cache.first_hand_count(), 1u);
  cache.evict(2);
  EXPECT_EQ(cache.first_hand_count(), 0u);
}

TEST(LinkCacheFloor, RefusesDisplacingProtectedFirstHandEntries) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLFS);
  cache.set_first_hand_floor(2);
  Rng rng(3);
  cache.insert_free(entry(1, 0.0, 10, 0));
  cache.insert_free(entry(2, 0.0, 20, 0));
  cache.set_num_res(1, 1);
  cache.set_num_res(2, 1);
  ASSERT_EQ(cache.first_hand_count(), 2u);

  // A foreign candidate with arbitrarily strong claims cannot dig into the
  // protected reserve — under scored retention...
  EXPECT_FALSE(cache.offer(entry(50, 0.0, 100000, 0), Replacement::kLFS, rng));
  // ... or random retention (which otherwise always inserts when full).
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(
        cache.offer(entry(60 + i, 0.0, 100000, 0), Replacement::kRandom, rng));
  }
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LinkCacheFloor, ReplacementAllowedDownToTheFloorNotBelow) {
  LinkCache cache(kOwner, 3);
  cache.configure_indices({}, Replacement::kLFS);
  cache.set_first_hand_floor(1);
  Rng rng(4);
  cache.insert_free(entry(1, 0.0, 1, 0));
  cache.insert_free(entry(2, 0.0, 2, 0));
  cache.insert_free(entry(3, 0.0, 3, 0));
  for (PeerId id = 1; id <= 3; ++id) cache.set_num_res(id, 1);
  ASSERT_EQ(cache.first_hand_count(), 3u);

  // Above the floor, better foreign candidates replace first-hand victims
  // normally (LFS victim = fewest files).
  EXPECT_TRUE(cache.offer(entry(50, 0.0, 1000, 0), Replacement::kLFS, rng));
  EXPECT_EQ(cache.first_hand_count(), 2u);
  EXPECT_TRUE(cache.offer(entry(51, 0.0, 1000, 0), Replacement::kLFS, rng));
  EXPECT_EQ(cache.first_hand_count(), 1u);
  // Now the last first-hand entry is protected.
  EXPECT_FALSE(cache.offer(entry(52, 0.0, 1000, 0), Replacement::kLFS, rng));
  EXPECT_EQ(cache.first_hand_count(), 1u);
  EXPECT_TRUE(cache.contains(3));
}

TEST(LinkCacheFloor, FirstHandCandidatesAndNonFirstHandVictimsUnaffected) {
  LinkCache cache(kOwner, 2);
  cache.configure_indices({}, Replacement::kLFS);
  cache.set_first_hand_floor(2);
  Rng rng(5);
  cache.insert_free(entry(1, 0.0, 10, 0));
  cache.insert_free(entry(2, 0.0, 20, 0));
  cache.set_num_res(1, 1);  // entry 2 stays foreign

  // LFS picks entry 1 (fewest files) as the victim; it is first-hand and
  // the count (1) is within the floor, so a foreign candidate is refused.
  EXPECT_FALSE(cache.offer(entry(50, 0.0, 1000, 0), Replacement::kLFS, rng));

  // A first-hand candidate may displace into the reserve (the guard only
  // blocks *foreign* candidates).
  CacheEntry own = entry(51, 0.0, 1000, 0);
  own.first_hand = true;
  EXPECT_TRUE(cache.offer(own, Replacement::kLFS, rng));
  EXPECT_EQ(cache.first_hand_count(), 1u);  // swapped one first-hand for another

  // With the floor disabled the reserve vanishes.
  cache.set_first_hand_floor(0);
  EXPECT_TRUE(cache.offer(entry(52, 0.0, 5000, 0), Replacement::kLFS, rng));
}

TEST(LinkCacheFloor, EvictionsIgnoreTheFloor) {
  LinkCache cache(kOwner, 2);
  cache.set_first_hand_floor(2);
  cache.insert_free(entry(1));
  cache.set_num_res(1, 1);
  // Dead/blacklisted peers must always be removable: the floor protects
  // against displacement, not against maintenance.
  EXPECT_TRUE(cache.evict(1));
  EXPECT_EQ(cache.first_hand_count(), 0u);
}

// --- id lookup --------------------------------------------------------------
//
// A scan of a 32-bit id column replaced the FlatIdMap hash index. These keep
// its tests' names and contracts, observed through contains / get / evict:
// insert, find and erase; lookup after a swap-remove moved an entry; checked
// misuse; an unsizable capacity; and a fuzz against std::unordered_map.

// The all-ones 32-bit value is never stored: ids must lie below it.
constexpr PeerId kIdBound = std::numeric_limits<std::uint32_t>::max();

TEST(FlatIdMap, InsertFindErase) {
  LinkCache cache(kOwner, 8);
  EXPECT_FALSE(cache.contains(3));
  EXPECT_FALSE(cache.get(3).has_value());
  cache.insert_free(entry(3, 10.0));
  ASSERT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.get(3)->ts, 10.0);
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.evict(3));
  EXPECT_FALSE(cache.contains(3));
  EXPECT_FALSE(cache.evict(3));
  EXPECT_EQ(cache.size(), 0u);
}

// Eviction swap-removes: the last entry moves into the hole, and lookups
// and in-place updates must follow it there. The sizes put the moved entry
// in the scan's scalar tail (3), just past its first 8-wide block (9), and
// in its second block (16).
TEST(FlatIdMap, AssignOverwritesExisting) {
  for (PeerId n : {3, 9, 16}) {
    SCOPED_TRACE(n);
    LinkCache cache(kOwner, n);
    for (PeerId id = 0; id < n; ++id) {
      cache.insert_free(entry(id, static_cast<double>(id)));
    }
    ASSERT_TRUE(cache.evict(0));
    PeerId moved = n - 1;
    cache.touch(moved, 500.0);
    cache.set_num_res(moved, 7);
    ASSERT_TRUE(cache.get(moved).has_value());
    EXPECT_EQ(cache.get(moved)->ts, 500.0);
    EXPECT_EQ(cache.get(moved)->num_res, 7u);
    EXPECT_FALSE(cache.contains(0));
    for (PeerId id = 1; id < n; ++id) EXPECT_TRUE(cache.contains(id)) << id;
    EXPECT_TRUE(cache.evict(moved));
    EXPECT_FALSE(cache.contains(moved));
    EXPECT_EQ(cache.size(), n - 2);
  }
}

TEST(FlatIdMap, CheckedMisuseThrows) {
  LinkCache cache(kOwner, 4);
  Rng rng(1);
  cache.insert_free(entry(1));
  EXPECT_THROW(cache.insert_free(entry(1)), CheckError);  // duplicate
  // Ids are stored in 32 bits: one at or past the bound is refused before
  // anything is recorded, on every insertion path.
  for (PeerId id : {kIdBound, kIdBound + 1, kInvalidPeer}) {
    EXPECT_THROW(cache.insert_free(entry(id)), CheckError) << id;
    EXPECT_THROW(cache.offer(entry(id), Replacement::kRandom, rng),
                 CheckError)
        << id;
    EXPECT_FALSE(cache.contains(id)) << id;
  }
  for (PeerId id = 2; id <= 4; ++id) cache.insert_free(entry(id));
  EXPECT_THROW(cache.offer(entry(kIdBound), Replacement::kRandom, rng),
               CheckError);  // the replacement path
  EXPECT_EQ(cache.size(), 4u);
  for (PeerId id = 1; id <= 4; ++id) EXPECT_TRUE(cache.contains(id)) << id;
  // An id past 32 bits never aliases the stored id it would narrow to.
  EXPECT_FALSE(cache.contains((PeerId{1} << 32) + 1));
  EXPECT_FALSE(cache.evict((PeerId{1} << 32) + 1));
  EXPECT_EQ(cache.size(), 4u);
}

// Positions are 32 bits: a capacity they cannot index throws before
// anything is sized.
TEST(FlatIdMap, UnsizableCapacityThrows) {
  EXPECT_THROW(LinkCache(kOwner, std::numeric_limits<std::size_t>::max()),
               CheckError);
  EXPECT_THROW(LinkCache(kOwner, std::size_t{1} << 32), CheckError);
}

// Offer / evict / touch churn against a plain map. Keys come from two
// narrow windows, one at the bottom of the id range and one just under the
// 32-bit bound, so entries keep moving between the scan's blocks and tail.
TEST(FlatIdMapFuzz, MatchesUnorderedMapUnderChurn) {
  constexpr std::size_t kCapacity = 40;
  constexpr PeerId kHigh = kIdBound - 48;
  Rng draws(2026);
  Rng rng(7);
  LinkCache cache(kOwner, kCapacity);
  std::unordered_map<PeerId, CacheEntry> model;
  auto key = [&](std::size_t i) {
    return i < 48 ? PeerId{i} : kHigh + (i - 48);
  };
  for (int step = 0; step < 30000; ++step) {
    PeerId id = key(draws.index(96));
    double roll = draws.uniform();
    if (roll < 0.45) {
      CacheEntry e = entry(id, static_cast<double>(step));
      bool inserted = cache.offer(e, Replacement::kRandom, rng);
      ASSERT_EQ(inserted, !model.contains(id)) << "step " << step;
      if (inserted && model.size() == kCapacity) {
        // A full cache replaced a uniformly drawn victim: find which.
        std::erase_if(model, [&](const auto& kv) {
          return !cache.contains(kv.first);
        });
        ASSERT_EQ(model.size(), kCapacity - 1) << "step " << step;
      }
      if (inserted) model.emplace(id, e);
    } else if (roll < 0.70) {
      ASSERT_EQ(cache.evict(id), model.erase(id) > 0) << "step " << step;
    } else if (roll < 0.85) {
      auto num_res = static_cast<std::uint32_t>(step % 5);
      cache.touch(id, static_cast<double>(step));
      cache.set_num_res(id, num_res);
      auto it = model.find(id);
      if (it != model.end()) {
        it->second.ts = static_cast<double>(step);
        it->second.num_res = num_res;
      }
    }
    if (step % 128 == 0 || roll >= 0.85) {
      ASSERT_EQ(cache.size(), model.size()) << "step " << step;
      for (std::size_t i = 0; i < 96; ++i) {
        auto got = cache.get(key(i));
        auto it = model.find(key(i));
        ASSERT_EQ(got.has_value(), it != model.end())
            << "key " << key(i) << " at step " << step;
        if (got) {
          ASSERT_EQ(got->ts, it->second.ts) << "step " << step;
          ASSERT_EQ(got->num_res, it->second.num_res) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace guess
