// The GUESS link cache (§2.1–2.2): a bounded list of pointers to other
// peers, maintained via Pings and fed by Pong entry sharing.
//
// Invariants: at most `capacity` entries; at most one entry per peer id;
// never contains the owner's own id.
//
// Hot-path structure, 36 bytes per entry plus 8 per maintained ordering:
//  * the entries, with a 32-bit id column beside them. An id lookup scans
//    that column, eight ids per SSE2 compare: at the default CacheSize a
//    scan of a few hundred bytes beats a hash table's extra block and its
//    cache miss. Ids must be below 2^32 - 1 (checked on insert).
//  * the policy orderings the run uses, maintained incrementally as
//    ScoreIndex heaps of positions (configure_indices). select_best is
//    O(1), select_top walks the heap best-first in O(k log k), and a
//    full-cache offer decides accept/reject in O(1) — none of which
//    rescores the whole cache or allocates. A mutation re-sifts only the
//    orderings whose score reads the field it changed.
// Every non-random policy a caller selects or replaces by must have been
// passed to configure_indices (CheckError otherwise); kRandom needs no
// ordering.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "guess/cache_entry.h"
#include "guess/policy.h"
#include "guess/score_index.h"

namespace guess {

class LinkCache {
 public:
  /// @param owner     id of the owning peer (own entries are rejected)
  /// @param capacity  the paper's CacheSize parameter (positions are
  ///                  32-bit: at most 2^32 - 1, checked)
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
  bool contains(PeerId id) const { return find(id) != kNotFound; }

  /// All current entries (unspecified order; stable between mutations).
  std::span<const CacheEntry> entries() const { return entries_; }

  /// Entry for a peer, if present.
  std::optional<CacheEntry> get(PeerId id) const;

  /// Insert an entry without replacement pressure (cache must not be full,
  /// entry must not be present, id below 2^32 - 1). Used when seeding a
  /// newborn's cache.
  void insert_free(const CacheEntry& entry);

  /// Offer a Pong-received candidate (§2.2): skipped if it is the owner or
  /// already cached; inserted directly if space remains; otherwise it
  /// replaces the replacement policy's victim iff its retention score beats
  /// the victim's. Fields are taken as-is (Pong entries are not updated on
  /// receipt). An inserted id must be below 2^32 - 1 (checked).
  /// @returns true if the candidate was inserted.
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
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  // One maintained ordering, keyed by a selection policy's score: either a
  // selection ordering (highest first) or, last in orderings_, the
  // retention ordering, keyed by retained_by(retention) and lowest first.
  struct Ordering {
    Policy policy;
    ScoreIndex index;
  };

  /// Position of `id`, or kNotFound (a scan of the id column).
  std::uint32_t find(PeerId id) const;
  void append(const CacheEntry& entry);
  void replace_at(std::uint32_t pos, const CacheEntry& entry);
  void erase_at(std::uint32_t pos);
  /// A policy's key over the current entries: position -> score.
  auto key(Policy policy) const;
  /// Re-sift `pos` in the orderings whose score reads `changed`.
  void note_update(std::uint32_t pos, ScoreField changed);
  void rebuild_indices();
  /// The ordering for a configured selection policy; CheckError otherwise.
  const Ordering& configured_selection(Policy policy) const;
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
  /// Per Policy, 1 + the position in orderings_ of its selection ordering,
  /// or 0 when it has none; fixed by configure_indices.
  std::array<std::uint8_t, static_cast<std::size_t>(Policy::kMR) + 1>
      selection_slot_{};
  std::size_t first_hand_floor_ = 0;
  std::size_t first_hand_count_ = 0;
  std::vector<CacheEntry> entries_;
  std::vector<std::uint32_t> ids_;  // entries_[i].id, narrowed

  std::vector<Ordering> orderings_;
  Replacement retention_policy_ = Replacement::kRandom;  // kRandom = none
};

}  // namespace guess
