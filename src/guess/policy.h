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

/// Score for selection policies: the entry with the HIGHEST score is probed
/// first / preferred in Pongs. Random policy scores are fresh uniform draws;
/// deterministic policies get no jitter (ties are broken by the caller's
/// iteration order, which is itself deterministic per seed).
/// With `first_hand_only` (the MR* behaviour), kMR scores foreign NumRes
/// values as 0 — only the owner's direct experience counts.
double selection_score(Policy policy, const CacheEntry& entry, Rng& rng,
                       bool first_hand_only = false);

/// Deterministic-policy scores for the incremental score index (checked:
/// the policy must not be kRandom — random scores are fresh draws per
/// decision and cannot be cached in an ordering).
double deterministic_selection_score(Policy policy, const CacheEntry& entry,
                                     bool first_hand_only);

/// Score for replacement policies: the entry with the LOWEST score is the
/// eviction victim. A Pong candidate is inserted into a full cache only if
/// its retention score exceeds the victim's. kRandom has no score (checked):
/// the candidate always wins and replaces a uniformly chosen victim (the
/// always-insert / evict-uniformly baseline — LinkCache::offer draws it).
double deterministic_retention_score(Replacement policy,
                                     const CacheEntry& entry,
                                     bool first_hand_only);

std::string to_string(Policy policy);
std::string to_string(Replacement replacement);

/// Parse the paper's abbreviations ("Ran", "MRU", "LRU", "MFS", "MR").
Policy parse_policy(const std::string& name);

/// Parse "Ran", "LRU", "MRU", "LFS", "LR".
Replacement parse_replacement(const std::string& name);

}  // namespace guess
