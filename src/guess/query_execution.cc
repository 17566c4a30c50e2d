#include "guess/query_execution.h"

#include <algorithm>

#include "common/check.h"
#include "guess/params.h"

namespace guess {

void ProbeCounters::count(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kGood: ++good; break;
    case ProbeOutcome::kDead: ++dead; break;
    case ProbeOutcome::kRefused: ++refused; break;
  }
}

ProbeCounters& ProbeCounters::operator+=(const ProbeCounters& other) {
  good += other.good;
  dead += other.dead;
  refused += other.refused;
  return *this;
}

QueryExecution::QueryExecution(PeerId origin, content::FileId file,
                               std::uint32_t desired, Policy probe_policy,
                               sim::Time start, std::size_t parallel,
                               bool first_hand_only)
    : origin_(origin),
      file_(file),
      desired_(desired),
      probe_policy_(probe_policy),
      start_(start),
      issue_(start),
      first_hand_only_(first_hand_only),
      parallel_(parallel) {
  GUESS_CHECK(desired >= 1);
  GUESS_CHECK(parallel >= 1);
}

void QueryExecution::reset(PeerId origin, content::FileId file,
                           std::uint32_t desired, Policy probe_policy,
                           sim::Time start, std::size_t parallel,
                           bool first_hand_only) {
  GUESS_CHECK(desired >= 1);
  GUESS_CHECK(parallel >= 1);
  origin_ = origin;
  file_ = file;
  desired_ = desired;
  probe_policy_ = probe_policy;
  start_ = start;
  issue_ = start;
  first_hand_only_ = first_hand_only;
  heap_.clear();
  candidates_.clear();
  seen_.clear();
  next_seq_ = 0;
  results_ = 0;
  counters_ = ProbeCounters{};
  parallel_ = parallel;
  resultless_slots_ = 0;
  stalled_slots_ = 0;
  slot_results_baseline_ = 0;
  slot_probes_issued_ = 0;
  slot_outstanding_ = 0;
  slot_creditless_ = false;
  slot_issuing_ = false;
  token_ = 0;
}

void QueryExecution::note_slot(bool any_results, bool adaptive) {
  if (any_results) {
    resultless_slots_ = 0;
    return;
  }
  ++resultless_slots_;
  if (adaptive && resultless_slots_ >= kAdaptiveParallelTrigger) {
    // Double, capped at the maximum, but never shrink below the starting
    // width.
    parallel_ = std::max(parallel_,
                         std::min(parallel_ * 2, kAdaptiveParallelMax));
    resultless_slots_ = 0;
  }
}

bool QueryExecution::add_candidate(const CacheEntry& entry, PeerId source,
                                   Rng& rng) {
  if (entry.id == origin_) return false;
  if (!seen_.insert(entry.id)) return false;
  auto idx = static_cast<std::uint32_t>(candidates_.size());
  candidates_.push_back(Candidate{entry, source});
  heap_.push_back(Scored{
      selection_score(probe_policy_, entry, rng, first_hand_only_),
      next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end());
  return true;
}

std::optional<QueryExecution::Candidate> QueryExecution::next_candidate() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end());
  std::uint32_t idx = heap_.back().idx;
  heap_.pop_back();
  return candidates_[idx];
}

}  // namespace guess
