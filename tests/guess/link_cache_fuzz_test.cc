// Model-based fuzzing of LinkCache: random operation sequences are applied
// both to the cache and to a trivially correct reference model; observable
// state must stay identical and invariants must hold at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/check.h"
#include "guess/link_cache.h"

namespace guess {
namespace {

constexpr PeerId kOwner = 424242;

// Reference model: a flat map with the same replacement semantics.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t capacity, Replacement policy)
      : capacity_(capacity), policy_(policy) {}

  bool contains(PeerId id) const { return entries_.contains(id); }
  std::size_t size() const { return entries_.size(); }

  // Mirrors LinkCache::offer for deterministic policies. Returns whether
  // the candidate was inserted (Random is excluded from the fuzz because
  // its victim choice consumes RNG in implementation-specific order).
  bool offer(const CacheEntry& candidate) {
    if (candidate.id == kOwner || contains(candidate.id)) return false;
    if (entries_.size() < capacity_) {
      entries_[candidate.id] = candidate;
      return true;
    }
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [&](const auto& a, const auto& b) {
          return retention(a.second) < retention(b.second);
        });
    if (retention(candidate) <= retention(victim->second)) return false;
    entries_.erase(victim);
    entries_[candidate.id] = candidate;
    return true;
  }

  bool evict(PeerId id) { return entries_.erase(id) > 0; }

  void touch(PeerId id, sim::Time now) {
    auto it = entries_.find(id);
    if (it != entries_.end()) it->second.ts = now;
  }

  void set_num_res(PeerId id, std::uint32_t num_res) {
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      it->second.num_res = num_res;
      it->second.first_hand = true;
    }
  }

  const std::map<PeerId, CacheEntry>& entries() const { return entries_; }

 private:
  double retention(const CacheEntry& entry) const {
    return deterministic_retention_score(policy_, entry,
                                         /*first_hand_only=*/false);
  }

  std::size_t capacity_;
  Replacement policy_;
  std::map<PeerId, CacheEntry> entries_;
};

class LinkCacheFuzz
    : public ::testing::TestWithParam<std::tuple<Replacement, int>> {};

TEST_P(LinkCacheFuzz, MatchesReferenceModel) {
  auto [policy, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Rng cache_rng(1);  // deterministic policies never consume it
  const std::size_t capacity = 8;
  LinkCache cache(kOwner, capacity);
  cache.configure_indices({}, policy);
  ReferenceCache reference(capacity, policy);

  double now = 0.0;
  // Scores are kept unique (but randomly ordered): tie-breaking between
  // equal retention scores is implementation-defined and would make model
  // equivalence meaningless.
  std::set<std::uint32_t> used;
  auto unique_value = [&]() {
    for (;;) {
      auto v = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
      if (used.insert(v).second) return v;
    }
  };
  for (int step = 0; step < 4000; ++step) {
    now += 0.001 + rng.uniform();
    // Small id space forces collisions, duplicates and re-offers.
    PeerId id = static_cast<PeerId>(rng.uniform_int(1, 24));
    if (rng.bernoulli(0.02)) id = kOwner;  // poke the self-rejection path
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        CacheEntry entry{id, rng.uniform(0.0, 1000.0), unique_value(),
                         unique_value()};
        EXPECT_EQ(cache.offer(entry, policy, cache_rng),
                  reference.offer(entry))
            << "step " << step;
        break;
      }
      case 1:
        EXPECT_EQ(cache.evict(id), reference.evict(id)) << "step " << step;
        break;
      case 2:
        cache.touch(id, now);
        reference.touch(id, now);
        break;
      case 3: {
        std::uint32_t n = unique_value();
        cache.set_num_res(id, n);
        reference.set_num_res(id, n);
        break;
      }
    }

    // Invariants + full state equivalence.
    ASSERT_LE(cache.size(), capacity);
    ASSERT_EQ(cache.size(), reference.size());
    ASSERT_FALSE(cache.contains(kOwner));
    for (const auto& [ref_id, ref_entry] : reference.entries()) {
      auto got = cache.get(ref_id);
      ASSERT_TRUE(got.has_value()) << "missing " << ref_id;
      ASSERT_DOUBLE_EQ(got->ts, ref_entry.ts);
      ASSERT_EQ(got->num_files, ref_entry.num_files);
      ASSERT_EQ(got->num_res, ref_entry.num_res);
      ASSERT_EQ(got->first_hand, ref_entry.first_hand);
    }
    // No extra entries: sizes match and every reference entry was found.
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, LinkCacheFuzz,
    ::testing::Combine(::testing::Values(Replacement::kLRU, Replacement::kMRU,
                                         Replacement::kLFS, Replacement::kLR),
                       ::testing::Values(1, 2, 3)));

TEST(LinkCacheFuzzRandom, InvariantsHoldUnderRandomReplacement) {
  // Random replacement can't be model-checked exactly (victim choice is
  // random) but its invariants must still hold.
  Rng rng(99);
  const std::size_t capacity = 8;
  LinkCache cache(kOwner, capacity);
  for (int step = 0; step < 4000; ++step) {
    PeerId id = static_cast<PeerId>(rng.uniform_int(1, 24));
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        bool was_present = cache.contains(id);
        bool inserted = cache.offer(CacheEntry{id, 0.0, 0, 0},
                                    Replacement::kRandom, rng);
        // Random replacement always admits a novel candidate.
        EXPECT_EQ(inserted, !was_present && id != kOwner);
        break;
      }
      case 1:
        cache.evict(id);
        break;
      case 2:
        cache.touch(id, static_cast<double>(step));
        break;
    }
    ASSERT_LE(cache.size(), capacity);
    // Index consistency: every listed entry is findable by id.
    for (const CacheEntry& entry : cache.entries()) {
      ASSERT_TRUE(cache.contains(entry.id));
    }
  }
}

// --- eclipse-resistance property (DESIGN.md §11) ---------------------------
//
// Randomized interleavings of attacker pongs (foreign entries under
// top-of-distribution claims, like an eclipse cohort's) and honest activity
// (pongs plus the owner's own probe observations) against a floor-protected
// cache. Properties, checked at every step:
//  * a foreign offer never drops the first-hand count below the floor:
//    count_after >= min(count_before, floor);
//  * attacker entries never count as first-hand (the owner never probes
//    them successfully, so they can never enter the protected reserve);
//  * the incremental first_hand_count always equals a fresh recount.
class EclipseResistanceFuzz
    : public ::testing::TestWithParam<std::tuple<Replacement, int>> {};

TEST_P(EclipseResistanceFuzz, FloorPreservesFirstHandCoverage) {
  auto [policy, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t capacity = 16;
  const std::size_t floor = 6;
  constexpr PeerId kAttackerBase = 1000;
  LinkCache cache(kOwner, capacity);
  cache.configure_indices({}, policy);
  cache.set_first_hand_floor(floor);

  std::uint32_t next_unique = 1;
  double now = 0.0;
  for (int step = 0; step < 6000; ++step) {
    now += rng.uniform();
    std::size_t before = cache.first_hand_count();
    bool offered_foreign = false;
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // honest pong: modest unique claims, foreign
        PeerId id = static_cast<PeerId>(rng.uniform_int(1, 40));
        cache.offer(CacheEntry{id, now, next_unique++, 0}, policy, rng);
        offered_foreign = true;
        break;
      }
      case 1: {  // attacker pong: colluder id, top-of-distribution claims
        PeerId id = kAttackerBase + static_cast<PeerId>(rng.uniform_int(0, 50));
        cache.offer(
            CacheEntry{id, now, 1u << 20 | next_unique++, 20}, policy, rng);
        offered_foreign = true;
        break;
      }
      case 2: {  // the owner probes an honest cache resident: first-hand now
        PeerId id = static_cast<PeerId>(rng.uniform_int(1, 40));
        cache.set_num_res(id, next_unique++ % 5);
        break;
      }
      case 3: {  // churn: an honest entry dies (evictions bypass the floor)
        if (rng.bernoulli(0.9)) break;  // keep deaths rare
        PeerId id = static_cast<PeerId>(rng.uniform_int(1, 40));
        cache.evict(id);
        break;
      }
    }

    if (offered_foreign) {
      ASSERT_GE(cache.first_hand_count(), std::min(before, floor))
          << "foreign offer dug into the protected reserve at step " << step;
    }
    std::size_t recount = cache.count_if(
        [](const CacheEntry& e) { return e.first_hand; });
    ASSERT_EQ(cache.first_hand_count(), recount) << "step " << step;
    for (const CacheEntry& entry : cache.entries()) {
      if (entry.id >= kAttackerBase) {
        ASSERT_FALSE(entry.first_hand)
            << "attacker entry counted as first-hand at step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, EclipseResistanceFuzz,
    ::testing::Combine(::testing::Values(Replacement::kLFS, Replacement::kLR,
                                         Replacement::kLRU,
                                         Replacement::kRandom),
                       ::testing::Values(11, 12, 13)));

// Without evictions the reserve is monotone: once the owner has established
// `floor` first-hand entries, no attacker barrage can ever shrink the count
// below the floor again.
TEST(EclipseResistanceFuzz, EstablishedFloorIsMonotoneWithoutChurn) {
  Rng rng(77);
  const std::size_t floor = 4;
  LinkCache cache(kOwner, 8);
  cache.configure_indices({}, Replacement::kLFS);
  cache.set_first_hand_floor(floor);
  std::uint32_t unique = 1;
  // Establish the reserve — probed residents rank ABOVE the remaining
  // foreign entries, so the attack first displaces the unprotected foreign
  // half before it runs into the floor.
  for (PeerId id = 1; id <= static_cast<PeerId>(floor); ++id) {
    cache.offer(CacheEntry{id, 0.0, 1000 + unique++, 0}, Replacement::kLFS,
                rng);
    cache.set_num_res(id, 1);
  }
  for (PeerId id = floor + 1; id <= 8; ++id) {
    cache.offer(CacheEntry{id, 0.0, unique++, 0}, Replacement::kLFS, rng);
  }
  ASSERT_EQ(cache.first_hand_count(), floor);

  std::size_t admitted = 0;
  for (int step = 0; step < 2000; ++step) {
    PeerId attacker = 500 + static_cast<PeerId>(rng.uniform_int(0, 30));
    if (cache.offer(CacheEntry{attacker, 1.0, (1u << 24) + unique++, 20},
                    Replacement::kLFS, rng)) {
      ++admitted;
    }
    ASSERT_GE(cache.first_hand_count(), floor) << "step " << step;
    for (PeerId id = 1; id <= static_cast<PeerId>(floor); ++id) {
      ASSERT_TRUE(cache.contains(id)) << "probed entry displaced, step "
                                      << step;
    }
  }
  // The attack did take the unprotected half — the floor is a reserve, not
  // a general shield.
  EXPECT_EQ(admitted, 8 - floor);
}

}  // namespace
}  // namespace guess
