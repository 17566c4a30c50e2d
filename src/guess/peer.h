// A GUESS peer: link cache, shared library, capacity limiter, and the
// per-peer bookkeeping the experiments measure.
//
// Peers hold state and local decisions; message exchange and the churn /
// workload machinery live in the GUESS backend (search/guess.h).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "content/content_model.h"
#include "guess/link_cache.h"
#include "guess/params.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace guess {

class Peer {
 public:
  Peer(PeerId id, sim::Time birth, content::Library library,
       std::size_t cache_capacity, bool malicious, bool selfish = false);

  PeerId id() const { return id_; }
  sim::Time birth_time() const { return birth_; }
  bool malicious() const { return malicious_; }

  /// Selfish peers (§3.3) blast parallel probes instead of probing serially.
  bool selfish() const { return selfish_; }

  const content::Library& library() const { return library_; }
  std::uint32_t num_files() const {
    return static_cast<std::uint32_t>(library_.size());
  }

  LinkCache& cache() { return cache_; }
  const LinkCache& cache() const { return cache_; }

  /// Results this peer returns for a query probe: number of matching files
  /// in its library capped at what the querier asked for. Malicious peers
  /// return nothing (§6.4: "they will only return a corrupt Pong message").
  std::uint32_t answer_query(content::FileId file,
                             std::uint32_t max_results) const;

  /// Account one received query probe against MaxProbesPerSecond within the
  /// current 1-second window. @returns false if the peer is overloaded and
  /// refuses the probe (§6.3).
  bool accept_probe(sim::Time now, std::uint32_t max_probes_per_second);

  // --- probe-payment economy (§3.3) ---

  void set_credit(double credit) { credit_ = credit; }
  double credit() const { return credit_; }
  /// Affordable = credit minus what probes already in flight have reserved.
  /// Reservations are a *count*, not a summed amount: every in-flight probe
  /// reserves the same kProbeCost, so the ledger stays exact (no
  /// floating-point residue from repeated add/subtract).
  bool can_afford(double cost) const {
    return credit_ - static_cast<double>(reserved_) * cost >= cost;
  }
  /// Spend must be affordable (checked).
  void spend_credit(double cost);
  void earn_credit(double reward, double cap);

  /// Reserve `cost` for a probe being issued — must be affordable (checked).
  /// Under an asynchronous transport several probes of a slot are in flight
  /// together; reserving at issue time keeps can_afford honest about credit
  /// that is already committed. Resolve each reservation with exactly one of
  /// commit_credit (probe served: the reservation becomes a spend) or
  /// release_credit (no service rendered: the credit returns untouched).
  void reserve_credit(double cost);
  void commit_credit(double cost);
  void release_credit();
  std::uint32_t reserved_probes() const { return reserved_; }

  // --- adaptive ping maintenance (§6.1) ---

  void set_ping_interval(sim::Duration interval) {
    ping_interval_ = interval;
  }
  sim::Duration ping_interval() const { return ping_interval_; }

  /// Record one ping outcome; with `adaptive`, every kPingAdaptWindow pings
  /// the interval is adjusted by the dead fraction (§6.1).
  void note_ping_result(bool dead, bool adaptive);

  // --- malicious-referral detection (§6.4) ---

  bool blacklisted(PeerId id) const { return blacklist_.contains(id); }
  std::size_t blacklist_size() const { return blacklist_.size(); }

  /// Record that `source` referred an entry that proved good or bad.
  /// @returns true if this tipped `source` over the blacklist threshold.
  bool note_referral(PeerId source, bool bad, const DetectionParams& params);

  /// Blacklist `source` immediately, skipping referral accumulation — for
  /// evidence that is unambiguous on one observation (an oversized pong:
  /// honest pongs structurally cannot exceed PongSize). Shares the
  /// conviction bookkeeping with note_referral (referral stats and backoff
  /// cleared), and — being proof of an active attack rather than a
  /// statistical verdict — trips the adaptive MR -> MR* switch at once
  /// instead of waiting for switch_threshold convictions.
  /// @returns true if `source` was newly blacklisted.
  bool blacklist_now(PeerId source, const DetectionParams& params);

  /// True once the peer has switched itself to first-hand-only ingestion
  /// (the detection-triggered MR → MR* adaptation).
  bool first_hand_only() const { return first_hand_only_; }

  // --- pong-server rebootstrap (§6.1) ---

  sim::Time last_reseed() const { return last_reseed_; }
  void set_last_reseed(sim::Time at) { last_reseed_ = at; }

  // --- querier-side backoff (§6.3, DoBackoff) ---

  /// No-op for blacklisted targets: blacklist is the stronger verdict
  /// (never probed again), so tracking a backoff window for one would only
  /// leave the two mechanisms disagreeing about the same peer.
  void set_backoff(PeerId target, sim::Time until) {
    if (blacklisted(target)) return;
    backoff_until_[target] = until;
  }
  /// Non-const: an expired entry is erased on lookup, so the map holds only
  /// live backoffs instead of growing with every peer ever backed off.
  bool backed_off(PeerId target, sim::Time now);
  /// Drop any backoff window for `target` (used by tests; note_referral
  /// clears it automatically when a target crosses into the blacklist).
  void clear_backoff(PeerId target) { backoff_until_.erase(target); }
  std::size_t backoff_entries() const { return backoff_until_.size(); }

  // --- load accounting (Figure 13/14) ---

  void count_received_probe() { ++probes_received_; }
  void count_received_ping() { ++pings_received_; }
  std::uint64_t probes_received() const { return probes_received_; }
  std::uint64_t pings_received() const { return pings_received_; }

  // --- workload state: a peer executes queries strictly one at a time ---

  /// One waiting query: the file plus when it was issued (the external
  /// arrival time under open-loop load; the enqueue time for closed-loop
  /// bursts), so queueing delay is part of its measured latency.
  struct PendingQuery {
    content::FileId file = 0;
    sim::Time issued = 0.0;
  };

  void enqueue_query(content::FileId file, sim::Time issued) {
    pending_queries_.push_back(PendingQuery{file, issued});
  }
  bool has_pending_query() const {
    return pending_head_ < pending_queries_.size();
  }
  PendingQuery pop_pending_query();
  /// Visit every still-waiting entry in FIFO order (open-query censusing
  /// and abandonment accounting — cold paths).
  template <typename Visitor>
  void visit_pending_queries(Visitor&& visit) const {
    for (std::size_t i = pending_head_; i < pending_queries_.size(); ++i) {
      visit(pending_queries_[i]);
    }
  }
  bool query_active() const { return query_active_; }
  void set_query_active(bool active) { query_active_ = active; }

  /// Periodic-event handles owned by the network, cancelled at death.
  sim::EventHandle ping_timer;
  sim::EventHandle burst_timer;

 private:
  PeerId id_;
  sim::Time birth_;
  bool malicious_;
  bool selfish_;
  content::Library library_;
  LinkCache cache_;
  double credit_ = 0.0;
  std::uint32_t reserved_ = 0;  // in-flight probes holding a reservation

  std::int64_t window_ = -1;         // capacity window index (whole seconds)
  std::uint32_t window_probes_ = 0;  // probes accepted in the window

  std::unordered_map<PeerId, sim::Time> backoff_until_;

  sim::Duration ping_interval_ = 30.0;
  std::size_t ping_window_total_ = 0;
  std::size_t ping_window_dead_ = 0;

  /// Shared conviction bookkeeping: blacklist `source` and drop its
  /// now-redundant referral stats and backoff window.
  void convict(PeerId source);

  struct ReferralStats {
    std::uint32_t total = 0;
    std::uint32_t bad = 0;
  };
  // Bounded at the link-cache working set (see note_referral): when full, a
  // new referrer displaces the entry with the least evidence.
  std::unordered_map<PeerId, ReferralStats> referral_stats_;
  std::unordered_set<PeerId> blacklist_;
  bool first_hand_only_ = false;
  sim::Time last_reseed_ = -1e18;  // "never"

  std::uint64_t probes_received_ = 0;
  std::uint64_t pings_received_ = 0;

  // FIFO as a vector + head index (allocation-free once warm: the storage
  // is reclaimed wholesale whenever the queue drains).
  std::vector<PendingQuery> pending_queries_;
  std::size_t pending_head_ = 0;
  bool query_active_ = false;
};

}  // namespace guess
