// The incremental ScoreIndex selection paths against a full-scan oracle: a
// configured LinkCache fed a randomized operation sequence must make exactly
// the decisions a rescan of its current entries makes — same offer
// outcomes, same victims, same select_best / select_top orders — for every
// deterministic policy, with first-hand-only flipped mid-stream. The scan
// keeps the first maximum (selection) or minimum (retention) in position
// order and sorts top-k by (score desc, position asc); that is the contract
// pinned GUESS results were produced under.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "guess/link_cache.h"

namespace guess {
namespace {

constexpr PeerId kOwner = 424242;

bool entry_eq(const CacheEntry& a, const CacheEntry& b) {
  return a.id == b.id && a.ts == b.ts && a.num_files == b.num_files &&
         a.num_res == b.num_res && a.first_hand == b.first_hand;
}

// --- the full-scan oracle ---------------------------------------------------

std::size_t scan_best(std::span<const CacheEntry> entries, Policy policy,
                      bool first_hand_only) {
  std::size_t best = 0;
  double best_score =
      deterministic_selection_score(policy, entries[0], first_hand_only);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    double s =
        deterministic_selection_score(policy, entries[i], first_hand_only);
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> scan_top(std::span<const CacheEntry> entries,
                                  Policy policy, std::size_t count,
                                  bool first_hand_only) {
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    scored.emplace_back(
        deterministic_selection_score(policy, entries[i], first_hand_only),
        i);
  }
  count = std::min(count, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(count),
                    scored.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < count; ++k) out.push_back(scored[k].second);
  return out;
}

/// (position, score) of the replacement victim: the lowest retention score,
/// first position on ties.
std::pair<std::size_t, double> scan_victim(std::span<const CacheEntry> entries,
                                           Replacement retention,
                                           bool first_hand_only) {
  std::size_t victim = 0;
  double victim_score =
      deterministic_retention_score(retention, entries[0], first_hand_only);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    double s =
        deterministic_retention_score(retention, entries[i], first_hand_only);
    if (s < victim_score) {
      victim_score = s;
      victim = i;
    }
  }
  return {victim, victim_score};
}

/// Offer `candidate` and check the outcome, and the victim it replaced,
/// against the scan.
void offer_and_check(LinkCache& cache, const CacheEntry& candidate,
                     Replacement retention, bool first_hand_only, Rng& rng) {
  const bool novel = candidate.id != kOwner && !cache.contains(candidate.id);
  if (!novel || !cache.full()) {
    std::size_t size = cache.size();
    ASSERT_EQ(cache.offer(candidate, retention, rng), novel);
    if (novel) {
      ASSERT_TRUE(entry_eq(cache.entries()[size], candidate));
    }
    return;
  }
  auto [victim, victim_score] =
      scan_victim(cache.entries(), retention, first_hand_only);
  bool expected = deterministic_retention_score(retention, candidate,
                                                first_hand_only) >
                  victim_score;
  ASSERT_EQ(cache.offer(candidate, retention, rng), expected)
      << "offer decision diverged from the scan";
  if (expected) {
    ASSERT_TRUE(entry_eq(cache.entries()[victim], candidate))
        << "replaced a different victim than the scan's";
  }
}

TEST(LinkCacheIndexEquivalence, RandomisedChurnAllDeterministicPolicies) {
  const std::vector<Policy> kSelections = {Policy::kMRU, Policy::kLRU,
                                           Policy::kMFS, Policy::kMR};
  const std::vector<Replacement> kRetentions = {
      Replacement::kLRU, Replacement::kMRU, Replacement::kLFS,
      Replacement::kLR};

  for (Replacement retention : kRetentions) {
    SCOPED_TRACE("retention " + std::to_string(static_cast<int>(retention)));
    LinkCache cache(kOwner, 16);
    cache.configure_indices(
        {Policy::kMRU, Policy::kLRU, Policy::kMFS, Policy::kMR}, retention);
    Rng rng(99);
    Rng driver(7 + static_cast<std::uint64_t>(retention));
    bool first_hand_only = false;

    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      double roll = driver.uniform();
      if (roll < 0.45) {
        // Offer a candidate; collisions with the owner, residents and ties
        // in every score dimension are all exercised by the narrow ranges.
        CacheEntry candidate;
        candidate.id = driver.index(40);
        candidate.ts = static_cast<sim::Time>(driver.index(20));
        candidate.num_files = static_cast<std::uint32_t>(driver.index(6));
        candidate.num_res = static_cast<std::uint32_t>(driver.index(4));
        candidate.first_hand = driver.bernoulli(0.3);
        ASSERT_NO_FATAL_FAILURE(offer_and_check(cache, candidate, retention,
                                                first_hand_only, rng));
      } else if (roll < 0.55) {
        PeerId victim = driver.index(40);
        bool present = cache.contains(victim);
        ASSERT_EQ(cache.evict(victim), present);
      } else if (roll < 0.65) {
        cache.touch(driver.index(40), static_cast<sim::Time>(step));
      } else if (roll < 0.75) {
        PeerId id = driver.index(40);
        cache.set_num_res(id, static_cast<std::uint32_t>(driver.index(5)));
      } else if (roll < 0.80) {
        // Flip the MR* lens mid-stream: the indices must re-rank exactly
        // like the scans do.
        first_hand_only = driver.bernoulli(0.5);
        cache.set_first_hand_only(first_hand_only);
      } else if (roll < 0.90) {
        Policy policy = kSelections[driver.index(kSelections.size())];
        auto best = cache.select_best(policy, rng);
        ASSERT_EQ(best.has_value(), !cache.empty());
        if (best) {
          std::size_t pos =
              scan_best(cache.entries(), policy, first_hand_only);
          ASSERT_TRUE(entry_eq(*best, cache.entries()[pos]))
              << "select_best diverged from the scan";
        }
      } else {
        Policy policy = kSelections[driver.index(kSelections.size())];
        std::size_t count = 1 + driver.index(20);
        auto top = cache.select_top(policy, count, rng);
        auto expected =
            scan_top(cache.entries(), policy, count, first_hand_only);
        ASSERT_EQ(top.size(), expected.size());
        for (std::size_t i = 0; i < top.size(); ++i) {
          ASSERT_TRUE(entry_eq(top[i], cache.entries()[expected[i]]))
              << "select_top order diverged at rank " << i;
        }
      }
    }
    EXPECT_TRUE(cache.full());  // the churn actually filled it
  }
}

// kRandom draws per decision and is deliberately never indexed: a full
// cache replaces a uniformly drawn victim, and a random pong is a uniform
// k-subset. Pinned draw for draw against an identically seeded stream so a
// future "optimisation" of the random path can't silently skew draw order.
TEST(LinkCacheIndexEquivalence, RandomPolicyKeepsIdenticalDrawSequence) {
  LinkCache cache(kOwner, 8);
  cache.configure_indices({Policy::kMRU}, Replacement::kRandom);
  Rng rng(5);
  Rng oracle(5);
  Rng driver(11);
  for (int step = 0; step < 500; ++step) {
    CacheEntry candidate;
    candidate.id = driver.index(24);
    candidate.ts = static_cast<sim::Time>(step);
    bool novel = !cache.contains(candidate.id);
    if (novel && cache.full()) {
      std::size_t victim = oracle.index(cache.size());
      ASSERT_TRUE(cache.offer(candidate, Replacement::kRandom, rng));
      ASSERT_TRUE(entry_eq(cache.entries()[victim], candidate));
    } else {
      ASSERT_EQ(cache.offer(candidate, Replacement::kRandom, rng), novel);
    }
    auto top = cache.select_top(Policy::kRandom, 4, rng);
    auto expected = oracle.sample_indices(
        cache.size(), std::min<std::size_t>(4, cache.size()));
    ASSERT_EQ(top.size(), expected.size());
    for (std::size_t i = 0; i < top.size(); ++i) {
      ASSERT_TRUE(entry_eq(top[i], cache.entries()[expected[i]]));
    }
  }
  // Both streams consumed the same number of draws: the next raw outputs
  // agree.
  EXPECT_EQ(rng.engine()(), oracle.engine()());
}

// select_top_into must be a pure allocation shape change: identical output
// to select_top and to the scan, draw for draw.
TEST(LinkCacheIndexEquivalence, SelectTopIntoMatchesSelectTop) {
  LinkCache cache(kOwner, 12);
  cache.configure_indices({Policy::kMFS, Policy::kLRU}, Replacement::kLR);
  Rng rng(3);
  Rng driver(13);
  std::vector<CacheEntry> out;
  for (int step = 0; step < 400; ++step) {
    CacheEntry candidate;
    candidate.id = driver.index(30);
    candidate.ts = static_cast<sim::Time>(driver.index(10));
    candidate.num_files = static_cast<std::uint32_t>(driver.index(8));
    ASSERT_NO_FATAL_FAILURE(
        offer_and_check(cache, candidate, Replacement::kLR, false, rng));

    Policy policy = driver.bernoulli(0.5) ? Policy::kMFS : Policy::kLRU;
    std::size_t count = 1 + driver.index(14);
    cache.select_top_into(policy, count, rng, out);
    auto expected = cache.select_top(policy, count, rng);
    auto scanned = scan_top(cache.entries(), policy, count, false);
    ASSERT_EQ(out.size(), expected.size());
    ASSERT_EQ(out.size(), scanned.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(entry_eq(out[i], expected[i]));
      ASSERT_TRUE(entry_eq(out[i], cache.entries()[scanned[i]]));
    }
  }
}

}  // namespace
}  // namespace guess
