#include "guess/policy.h"

#include "common/check.h"

namespace guess {

void detail::no_deterministic_score(const char* what) {
  GUESS_CHECK_MSG(false, what << " has no deterministic score");
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
