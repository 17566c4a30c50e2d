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
  clear_seen();
  heap_.clear();
  candidates_.clear();
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

void QueryExecution::clear_seen() {
  // Every set bit is an id this query accepted, and the payload pool is
  // append-only (popped candidates stay in it), so zeroing the words of its
  // ids clears the bitmap.
  for (const Payload& candidate : candidates_) {
    seen_bits_[candidate.id / 64] = 0;
  }
}

void QueryExecution::trim(std::size_t max_candidates) {
  if (candidates_.capacity() <= max_candidates) return;
  clear_seen();
  // Move-assigning an empty vector frees (`= {}` would keep the capacity).
  candidates_ = std::vector<Payload>();
  heap_ = std::vector<Scored>();
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
  GUESS_CHECK_MSG(entry.id < kNoPeer &&
                      (source < kNoPeer || source == kInvalidPeer),
                  "query cache stores 32-bit peer ids; got id "
                      << entry.id << " source " << source);
  std::size_t word = entry.id / 64;
  std::uint64_t bit = std::uint64_t{1} << (entry.id % 64);
  if (word >= seen_bits_.size()) {
    // A peer born after reserve_candidates: resize (not assign) keeps the
    // bits already set this query.
    seen_bits_.resize(std::max(word + 1, seen_bits_.size() * 2));
  }
  if ((seen_bits_[word] & bit) != 0) return false;
  seen_bits_[word] |= bit;
  auto idx = static_cast<std::uint32_t>(candidates_.size());
  candidates_.push_back(Payload{
      static_cast<std::uint32_t>(entry.id),
      source == kInvalidPeer ? kNoPeer : static_cast<std::uint32_t>(source),
      entry.num_res});
  heap_.push_back(Scored{
      selection_score(probe_policy_, entry, rng, first_hand_only_), idx});
  std::push_heap(heap_.begin(), heap_.end());
  return true;
}

std::optional<QueryExecution::Candidate> QueryExecution::next_candidate() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end());
  const Payload& payload = candidates_[heap_.back().idx];
  heap_.pop_back();
  return Candidate{payload.id,
                   payload.source == kNoPeer ? kInvalidPeer : payload.source,
                   payload.num_res};
}

}  // namespace guess
