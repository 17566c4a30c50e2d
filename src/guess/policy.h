// The paper's policy framework (Section 4).
//
// Five policy *types* govern how cache entries are used:
//   QueryProbe / PingProbe  — which entry to contact next (selection)
//   QueryPong / PingPong    — which entries to hand out in a Pong (selection)
//   CacheReplacement        — which entry to evict (replacement)
//
// Selection policies (paper names): Random, MRU, LRU, MFS, MR. The MR*
// variant is MR combined with ProtocolParams::reset_num_results — it is a
// flag on how foreign NumRes values are ingested, not a different ordering.
//
// Replacement policies are named for what they EVICT (paper §4): LFS evicts
// the fewest-files entry (thereby retaining the most-files ones), LR evicts
// least-results, LRU evicts least-recently-used (retaining fresh entries),
// MRU evicts most-recently-used (the paper's pathological "fairness" choice).
#pragma once

#include <string>

#include "common/rng.h"
#include "guess/cache_entry.h"

namespace guess {

enum class Policy { kRandom, kMRU, kLRU, kMFS, kMR };

enum class Replacement { kRandom, kLRU, kMRU, kLFS, kLR };

namespace detail {
/// Throws CheckError: `what` ("random policy" / "random replacement") has
/// no deterministic score. Out of line, so that the score functions stay
/// small enough to inline into the link cache's heap sifts.
[[noreturn]] void no_deterministic_score(const char* what);
}  // namespace detail

/// Deterministic-policy scores for the link cache's incremental orderings
/// (checked: the policy must not be kRandom — random scores are fresh draws
/// per decision and cannot be cached in an ordering). Inline: the orderings
/// recompute a key per heap comparison.
/// With `first_hand_only` (the MR* behaviour), kMR scores foreign NumRes
/// values as 0 — only the owner's direct experience counts.
inline double deterministic_selection_score(Policy policy,
                                            const CacheEntry& entry,
                                            bool first_hand_only) {
  switch (policy) {
    case Policy::kRandom:
      break;
    case Policy::kMRU:
      return entry.ts;
    case Policy::kLRU:
      return -entry.ts;
    case Policy::kMFS:
      return static_cast<double>(entry.num_files);
    case Policy::kMR:
      return static_cast<double>(entry.trusted_num_res(first_hand_only));
  }
  detail::no_deterministic_score("random policy");
}

/// Score for selection policies: the entry with the HIGHEST score is probed
/// first / preferred in Pongs. Random policy scores are fresh uniform draws;
/// deterministic policies get no jitter (ties are broken by the caller's
/// iteration order, which is itself deterministic per seed).
inline double selection_score(Policy policy, const CacheEntry& entry,
                              Rng& rng, bool first_hand_only = false) {
  if (policy == Policy::kRandom) return rng.uniform();
  return deterministic_selection_score(policy, entry, first_hand_only);
}

/// The selection ordering a replacement policy retains by: the entry with
/// the LOWEST score under it is the eviction victim. LRU evicts the least
/// recently used, so it retains by MRU's score (TS); MRU retains by LRU's
/// (stale entries survive); LFS by MFS; LR by MR. kRandom has none.
constexpr Policy retained_by(Replacement policy) {
  switch (policy) {
    case Replacement::kLRU: return Policy::kMRU;
    case Replacement::kMRU: return Policy::kLRU;
    case Replacement::kLFS: return Policy::kMFS;
    case Replacement::kLR: return Policy::kMR;
    case Replacement::kRandom: break;
  }
  return Policy::kRandom;
}

/// Score for replacement policies: the entry with the LOWEST score is the
/// eviction victim. A Pong candidate is inserted into a full cache only if
/// its retention score exceeds the victim's. kRandom has no score (checked):
/// the candidate always wins and replaces a uniformly chosen victim (the
/// always-insert / evict-uniformly baseline — LinkCache::offer draws it).
inline double deterministic_retention_score(Replacement policy,
                                            const CacheEntry& entry,
                                            bool first_hand_only) {
  if (policy == Replacement::kRandom) {
    detail::no_deterministic_score("random replacement");
  }
  return deterministic_selection_score(retained_by(policy), entry,
                                       first_hand_only);
}

/// The CacheEntry field a selection policy's score reads (kRandom reads
/// none; kNumRes covers first_hand too, which trusted_num_res reads). A
/// link-cache ordering is re-sifted only when a mutation changes its field.
enum class ScoreField { kNone, kTs, kNumFiles, kNumRes };

constexpr ScoreField score_field(Policy policy) {
  switch (policy) {
    case Policy::kMRU:
    case Policy::kLRU: return ScoreField::kTs;
    case Policy::kMFS: return ScoreField::kNumFiles;
    case Policy::kMR: return ScoreField::kNumRes;
    case Policy::kRandom: break;
  }
  return ScoreField::kNone;
}

std::string to_string(Policy policy);
std::string to_string(Replacement replacement);

/// Parse the paper's abbreviations ("Ran", "MRU", "LRU", "MFS", "MR").
Policy parse_policy(const std::string& name);

/// Parse "Ran", "LRU", "MRU", "LFS", "LR".
Replacement parse_replacement(const std::string& name);

}  // namespace guess
