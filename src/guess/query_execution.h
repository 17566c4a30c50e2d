// Execution state of one GUESS query (§2.3).
//
// A querying peer iterates through candidates drawn from its link cache and
// its per-query query cache, probing one peer per probe slot (serially, per
// the GUESS spec) until enough results arrive or candidates run out. Pong
// entries received during the query flow into the query cache, extending the
// candidate set far past the link cache's bounds.
//
// This class holds the candidate ordering (a max-heap keyed by the
// QueryProbe policy score), the de-duplication bitmap (a peer is probed at
// most once per query), and the per-query probe accounting. Message exchange
// is driven by the GUESS backend (search/guess.h), which pools executions
// between queries: a pooled execution keeps its stores, up to a bound
// (trim) past which it frees them, so one large query does not pin its
// stores in the pool for the rest of the run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "content/types.h"
#include "guess/cache_entry.h"
#include "guess/policy.h"
#include "sim/time.h"

namespace guess {

/// Outcome of a single probe, for accounting.
enum class ProbeOutcome {
  kGood,     ///< live peer processed the query (result or not)
  kDead,     ///< target has left the network: timeout, wasted probe
  kRefused,  ///< target is overloaded and dropped the probe (§6.3)
};

/// Per-query probe counters (the paper's good/dead/refused breakdown).
struct ProbeCounters {
  std::uint64_t good = 0;
  std::uint64_t dead = 0;
  std::uint64_t refused = 0;

  std::uint64_t total() const { return good + dead + refused; }
  void count(ProbeOutcome outcome);
  ProbeCounters& operator+=(const ProbeCounters& other);
};

class QueryExecution {
 public:
  /// @param origin   querying peer
  /// @param file     query target
  /// @param desired  NumDesiredResults
  /// @param probe_policy  the QueryProbe policy ordering the candidates
  /// @param parallel      probes issued per probe slot (1 for spec-compliant
  ///                      serial probing; higher for selfish peers or the
  ///                      §6.2 parallel-walk extension)
  /// @param first_hand_only  MR* scoring: foreign NumRes claims rank as 0
  QueryExecution(PeerId origin, content::FileId file, std::uint32_t desired,
                 Policy probe_policy, sim::Time start,
                 std::size_t parallel = 1, bool first_hand_only = false);

  /// Re-arm a pooled execution for a new query: every per-query field is
  /// reinitialized; the heap's, pool's and bitmap's storage is retained, so
  /// a recycled execution performs zero heap allocations. The bitmap is
  /// cleared by walking the payload pool (O(candidates), which the inserts
  /// already paid). Equivalent to constructing afresh.
  void reset(PeerId origin, content::FileId file, std::uint32_t desired,
             Policy probe_policy, sim::Time start, std::size_t parallel = 1,
             bool first_hand_only = false);

  /// Pre-size the candidate heap and pool for `n` candidates and the dedup
  /// bitmap for ids below `id_bound` (start_next_query passes the
  /// link-cache size plus the expected Pong fan-in, and the network's next
  /// unminted id, so arrivals do not grow either one doubling at a time).
  /// A larger id arriving later still works: the bitmap grows, keeping its
  /// bits.
  void reserve_candidates(std::size_t n, PeerId id_bound) {
    if (heap_.capacity() < n) heap_.reserve(n);
    if (candidates_.capacity() < n) candidates_.reserve(n);
    auto words = static_cast<std::size_t>((id_bound + 63) / 64);
    if (seen_bits_.size() < words) seen_bits_.resize(words);
  }

  /// Bound what a pooled execution keeps: if this query grew the candidate
  /// stores past `max_candidates`, clear its bitmap words and free the
  /// stores (the next query's reserve_candidates regrows them). The bitmap
  /// itself is kept. Call between queries, before reset().
  void trim(std::size_t max_candidates);

  /// Candidates the stores hold without growing.
  std::size_t candidate_capacity() const { return candidates_.capacity(); }

  PeerId origin() const { return origin_; }
  content::FileId file() const { return file_; }
  sim::Time start_time() const { return start_; }

  /// External issue time (open-loop arrival instant, or the enqueue time of
  /// a closed-loop burst): start_time() minus any per-peer queueing delay.
  /// Defaults to start_time() until the network stamps it after reset.
  sim::Time issue_time() const { return issue_; }
  void set_issue_time(sim::Time issued) { issue_ = issued; }

  /// A dequeued candidate: the peer to probe, the peer whose Pong referred
  /// it (kInvalidPeer for entries taken from the origin's own link cache —
  /// the provenance the §6.4 detection heuristic scores), and the NumRes
  /// its entry claimed (the §6.4 liar check). The entry's other fields only
  /// rank it, so they are not kept past insertion.
  struct Candidate {
    PeerId id;
    PeerId source;
    std::uint32_t num_res;
  };

  /// Offer a candidate (link-cache entry at start, or Pong entry during the
  /// query). Ignored if it is the origin or was already offered — the query
  /// cache only accepts addresses "not already seen before" (§5.1).
  /// Ids (and sources other than kInvalidPeer) must be below 2^32 - 1: the
  /// cache stores them in 32 bits (checked before anything is recorded).
  /// @returns true if the candidate joined the queue.
  bool add_candidate(const CacheEntry& entry, Rng& rng) {
    return add_candidate(entry, kInvalidPeer, rng);
  }
  bool add_candidate(const CacheEntry& entry, PeerId source, Rng& rng);

  /// Next peer to probe, by descending QueryProbe score (ties in insertion
  /// order). nullopt when exhausted.
  std::optional<Candidate> next_candidate();

  /// Candidates still queued (not yet probed).
  std::size_t queued() const { return heap_.size(); }

  /// Total distinct peers ever offered (the query-cache population): the
  /// pool is append-only, one payload per accepted offer.
  std::size_t seen() const { return candidates_.size(); }

  void record_outcome(ProbeOutcome outcome) { counters_.count(outcome); }
  void add_results(std::uint32_t n) { results_ += n; }

  std::uint32_t results() const { return results_; }
  bool satisfied() const { return results_ >= desired_; }
  const ProbeCounters& counters() const { return counters_; }

  // --- per-slot pacing state ---

  /// Probes to issue in the next slot.
  std::size_t slot_parallel() const { return parallel_; }

  /// Record the outcome of one probe slot for the §6.2 adaptive extension:
  /// with `adaptive`, after kAdaptiveParallelTrigger consecutive result-less
  /// slots the per-slot probe count doubles (capped at kAdaptiveParallelMax,
  /// never below the starting width).
  void note_slot(bool any_results, bool adaptive);

  /// A slot in which no probe could be sent (creditless under payments).
  void note_stalled_slot() { ++stalled_slots_; }
  void reset_stall() { stalled_slots_ = 0; }
  std::size_t stalled_slots() const { return stalled_slots_; }

  // --- transport-driven slot lifecycle ---
  //
  // Probes travel through a Transport and may resolve asynchronously
  // (LossyTransport), so the end-of-slot evaluation fires when the last
  // probe of the slot resolves, not when the issue loop returns. The
  // bracket: begin_slot() -> note_probe_issued()* -> end_issuing(), with
  // note_probe_resolved() per completion; whichever of end_issuing /
  // note_probe_resolved sees the slot drained (returns true) runs the slot
  // epilogue. Under SynchronousTransport completions run inside the issue
  // loop, so end_issuing() always closes the slot — reproducing the
  // pre-transport in-event ordering exactly.

  /// Open a probe slot: snapshot the result count (for note_slot's
  /// any-results decision) and reset the per-slot issue accounting.
  void begin_slot() {
    slot_results_baseline_ = results_;
    slot_probes_issued_ = 0;
    slot_creditless_ = false;
    slot_outstanding_ = 0;
    slot_issuing_ = true;
  }
  void note_probe_issued() {
    ++slot_probes_issued_;
    ++slot_outstanding_;
  }
  void note_creditless() { slot_creditless_ = true; }

  /// Close the issue loop. @returns true if every probe of the slot has
  /// already resolved (run the slot epilogue now).
  bool end_issuing() {
    slot_issuing_ = false;
    return slot_outstanding_ == 0;
  }

  /// One probe of the current slot resolved. @returns true if it was the
  /// last one and the issue loop has finished (run the slot epilogue now).
  bool note_probe_resolved() {
    --slot_outstanding_;
    return !slot_issuing_ && slot_outstanding_ == 0;
  }

  std::size_t slot_probes_issued() const { return slot_probes_issued_; }
  bool slot_creditless() const { return slot_creditless_; }
  std::uint32_t slot_results_baseline() const {
    return slot_results_baseline_;
  }
  std::size_t slot_outstanding() const { return slot_outstanding_; }

  /// Network-assigned token matching in-flight transport completions to
  /// this execution (a late completion whose token mismatches the origin's
  /// current query is dropped — the query it belonged to already finished).
  void set_token(std::uint64_t token) { token_ = token; }
  std::uint64_t token() const { return token_; }

 private:
  // 32-bit id storage; the all-ones value stands for kInvalidPeer.
  static constexpr std::uint32_t kNoPeer = ~std::uint32_t{0};

  /// Zero the bitmap words of every id this query accepted.
  void clear_seen();

  // What probing reads back after insertion: 12 bytes per candidate.
  struct Payload {
    std::uint32_t id;
    std::uint32_t source;  // kNoPeer: the origin's own link cache
    std::uint32_t num_res;
  };
  static_assert(sizeof(Payload) == 12);

  // The heap orders 16-byte (score, idx) keys over the payload pool. idx
  // counts accepted inserts from 0 within a query, so it is also the FIFO
  // tie-break: (score desc, idx asc) is a total order, and pop order is
  // independent of heap layout. Queries ingest far more candidates than
  // they probe (a satisfied query abandons most of its queue), so cheap
  // push/sift moves dominate.
  struct Scored {
    double score;
    std::uint32_t idx;  // payload slot in candidates_
    bool operator<(const Scored& other) const {
      if (score != other.score) return score < other.score;
      return idx > other.idx;
    }
  };
  static_assert(sizeof(Scored) == 16);

  PeerId origin_;
  content::FileId file_;
  std::uint32_t desired_;
  Policy probe_policy_;
  sim::Time start_;
  sim::Time issue_ = 0.0;
  bool first_hand_only_;

  // Max-heap via push_heap/pop_heap over a plain vector (what
  // priority_queue does under the hood, per the standard) so a pooled
  // execution can clear it while keeping the storage.
  std::vector<Scored> heap_;
  std::vector<Payload> candidates_;  // append-only per query; idx-stable
  // One bit per PeerId accepted this query. Ids are dense from 0 and never
  // reused (guess/types.h), so a bit cannot be inherited by a newborn —
  // unlike a bit per PeerTable slot, which a birth may reuse mid-query —
  // and dead or fabricated ids need no slot.
  std::vector<std::uint64_t> seen_bits_;

  std::uint32_t results_ = 0;
  ProbeCounters counters_;

  std::size_t parallel_;
  std::size_t resultless_slots_ = 0;
  std::size_t stalled_slots_ = 0;

  // Transport-driven slot state (see the slot-lifecycle section above).
  std::uint32_t slot_results_baseline_ = 0;
  std::size_t slot_probes_issued_ = 0;
  std::size_t slot_outstanding_ = 0;
  bool slot_creditless_ = false;
  bool slot_issuing_ = false;
  std::uint64_t token_ = 0;
};

}  // namespace guess
