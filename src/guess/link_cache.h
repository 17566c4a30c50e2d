// The GUESS link cache (§2.1–2.2): a bounded list of pointers to other
// peers, maintained via Pings and fed by Pong entry sharing.
//
// Invariants: at most `capacity` entries; at most one entry per peer id;
// never contains the owner's own id.
//
// Hot-path structure: the id -> position index is a flat open-addressing
// table (FlatIdMap) sized once for the bounded capacity, and the policy
// orderings the run uses are maintained incrementally as ScoreIndex heaps
// (configure_indices), so select_best is O(1), select_top is O(k log n),
// and a full-cache offer decides accept/reject in O(1) — none of which
// rescores the whole cache or allocates. Every non-random policy a caller
// selects or replaces by must have been passed to configure_indices
// (CheckError otherwise); kRandom needs no ordering.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/id_map.h"
#include "common/rng.h"
#include "guess/cache_entry.h"
#include "guess/policy.h"
#include "guess/score_index.h"

namespace guess {

class LinkCache {
 public:
  /// @param owner     id of the owning peer (own entries are rejected)
  /// @param capacity  the paper's CacheSize parameter
  LinkCache(PeerId owner, std::size_t capacity);

  /// Maintain incremental score orderings for the given selection policies
  /// and retention policy (kRandom entries are ignored — random scores are
  /// per-decision draws and cannot be indexed). Call once after
  /// construction; select_best, select_top and offer reject any other
  /// non-random policy.
  void configure_indices(std::initializer_list<Policy> selection,
                         Replacement retention);

  /// First-hand-only mode (MR* / detection-triggered switch): ranking and
  /// retention treat NumRes values not set by the owner's own probes as 0.
  /// Stored and forwarded values are untouched (§2.2).
  void set_first_hand_only(bool enabled);
  bool first_hand_only() const { return first_hand_only_; }

  /// Eclipse resistance (DetectionParams::first_hand_floor): when > 0, a
  /// full cache refuses to replace a first-hand entry with a non-first-hand
  /// candidate while at most `floor` first-hand entries remain. Attack
  /// pongs are never first-hand, so a colluding cohort cannot displace the
  /// victim's last `floor` entries of direct experience. Evictions (dead or
  /// blacklisted peers) are unaffected.
  void set_first_hand_floor(std::size_t floor) { first_hand_floor_ = floor; }
  std::size_t first_hand_floor() const { return first_hand_floor_; }

  /// Number of entries whose NumRes is the owner's own observation
  /// (maintained incrementally; the floor guard and tests read it).
  std::size_t first_hand_count() const { return first_hand_count_; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= capacity_; }
  bool contains(PeerId id) const { return index_.contains(id); }

  /// All current entries (unspecified order; stable between mutations).
  std::span<const CacheEntry> entries() const { return entries_; }

  /// Entry for a peer, if present.
  std::optional<CacheEntry> get(PeerId id) const;

  /// Insert an entry without replacement pressure (cache must not be full,
  /// entry must not be present). Used when seeding a newborn's cache.
  void insert_free(const CacheEntry& entry);

  /// Offer a Pong-received candidate (§2.2): skipped if it is the owner or
  /// already cached; inserted directly if space remains; otherwise it
  /// replaces the replacement policy's victim iff its retention score beats
  /// the victim's. Fields are taken as-is (Pong entries are not updated on
  /// receipt). @returns true if the candidate was inserted.
  bool offer(const CacheEntry& candidate, Replacement policy, Rng& rng);

  /// Remove the entry for `id` (no-op if absent). Used when a probe finds
  /// the peer dead (or refusing, per §6.3's implicit throttling).
  /// @returns true if an entry was removed.
  bool evict(PeerId id);

  /// Update the TS field after an interaction with `id` (no-op if absent).
  void touch(PeerId id, sim::Time now);

  /// Overwrite NumRes after a query probe to `id` (no-op if absent); the
  /// value is now first-hand knowledge.
  void set_num_res(PeerId id, std::uint32_t num_res);

  /// Entry to contact next under a selection policy (highest score wins).
  /// @returns nullopt if the cache is empty.
  std::optional<CacheEntry> select_best(Policy policy, Rng& rng) const;

  /// Up to `count` entries for a Pong, preferred by the selection policy
  /// (highest scores first).
  std::vector<CacheEntry> select_top(Policy policy, std::size_t count,
                                     Rng& rng) const;

  /// Allocation-free select_top: clears and fills `out` (which keeps its
  /// capacity across calls — a warmed caller never allocates). Working
  /// buffers are per thread, shared by every cache the thread runs.
  void select_top_into(Policy policy, std::size_t count, Rng& rng,
                       std::vector<CacheEntry>& out) const;

  /// Number of entries matching a predicate — used by the cache-health
  /// metrics (fraction live, good entries).
  template <typename Pred>
  std::size_t count_if(Pred&& pred) const {
    std::size_t n = 0;
    for (const auto& e : entries_)
      if (pred(e)) ++n;
    return n;
  }

 private:
  struct SelectionIndex {
    Policy policy;
    ScoreIndex index;
  };

  void erase_at(std::size_t pos);
  /// Index maintenance after entries_.push_back / entries_[pos] = ...
  void note_insert();
  void note_update(std::size_t pos);
  void rebuild_indices();
  const ScoreIndex* find_selection(Policy policy) const;
  /// The ordering for a configured selection policy; CheckError otherwise.
  const ScoreIndex& configured_selection(Policy policy) const;
  /// The first-hand-floor guard: true iff replacing `victim` with
  /// `candidate` would dig into the protected first-hand reserve.
  bool floor_protects(std::size_t victim, const CacheEntry& candidate) const {
    return first_hand_floor_ > 0 && !candidate.first_hand &&
           entries_[victim].first_hand &&
           first_hand_count_ <= first_hand_floor_;
  }

  PeerId owner_;
  std::size_t capacity_;
  bool first_hand_only_ = false;
  std::size_t first_hand_floor_ = 0;
  std::size_t first_hand_count_ = 0;
  std::vector<CacheEntry> entries_;
  FlatIdMap index_;  // id -> position

  std::vector<SelectionIndex> selection_indices_;
  Replacement retention_policy_ = Replacement::kRandom;  // kRandom = none
  bool has_retention_index_ = false;
  ScoreIndex retention_index_;
};

}  // namespace guess
