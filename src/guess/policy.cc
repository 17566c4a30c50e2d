#include "guess/policy.h"

#include "common/check.h"

namespace guess {

double selection_score(Policy policy, const CacheEntry& entry, Rng& rng,
                       bool first_hand_only) {
  switch (policy) {
    case Policy::kRandom:
      return rng.uniform();
    case Policy::kMRU:
      return entry.ts;
    case Policy::kLRU:
      return -entry.ts;
    case Policy::kMFS:
      return static_cast<double>(entry.num_files);
    case Policy::kMR:
      return static_cast<double>(entry.trusted_num_res(first_hand_only));
  }
  GUESS_CHECK_MSG(false, "unreachable");
  return 0.0;
}

double deterministic_selection_score(Policy policy, const CacheEntry& entry,
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
  GUESS_CHECK_MSG(false, "random policy has no deterministic score");
  return 0.0;
}

double deterministic_retention_score(Replacement policy,
                                     const CacheEntry& entry,
                                     bool first_hand_only) {
  switch (policy) {
    case Replacement::kRandom:
      break;
    case Replacement::kLRU:
      // Evict least-recently-used: retain high TS.
      return entry.ts;
    case Replacement::kMRU:
      // Evict most-recently-used: retain low TS (stale entries survive).
      return -entry.ts;
    case Replacement::kLFS:
      return static_cast<double>(entry.num_files);
    case Replacement::kLR:
      return static_cast<double>(entry.trusted_num_res(first_hand_only));
  }
  GUESS_CHECK_MSG(false, "random replacement has no deterministic score");
  return 0.0;
}

std::string to_string(Policy policy) {
  switch (policy) {
    case Policy::kRandom: return "Ran";
    case Policy::kMRU: return "MRU";
    case Policy::kLRU: return "LRU";
    case Policy::kMFS: return "MFS";
    case Policy::kMR: return "MR";
  }
  return "?";
}

std::string to_string(Replacement replacement) {
  switch (replacement) {
    case Replacement::kRandom: return "Ran";
    case Replacement::kLRU: return "LRU";
    case Replacement::kMRU: return "MRU";
    case Replacement::kLFS: return "LFS";
    case Replacement::kLR: return "LR";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "Ran" || name == "Random") return Policy::kRandom;
  if (name == "MRU") return Policy::kMRU;
  if (name == "LRU") return Policy::kLRU;
  if (name == "MFS") return Policy::kMFS;
  if (name == "MR") return Policy::kMR;
  GUESS_CHECK_MSG(false, "unknown policy: " << name);
  return Policy::kRandom;
}

Replacement parse_replacement(const std::string& name) {
  if (name == "Ran" || name == "Random") return Replacement::kRandom;
  if (name == "LRU") return Replacement::kLRU;
  if (name == "MRU") return Replacement::kMRU;
  if (name == "LFS") return Replacement::kLFS;
  if (name == "LR") return Replacement::kLR;
  GUESS_CHECK_MSG(false, "unknown replacement policy: " << name);
  return Replacement::kRandom;
}

}  // namespace guess
