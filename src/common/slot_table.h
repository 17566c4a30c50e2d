// Dense peer identity: id -> slot mapping with generation tags, shared by
// every backend that keeps a live population (GUESS, flood, gossip).
//
// Payloads live in a contiguous slab of slots. A birth claims a slot from the
// free list (LIFO) or appends one; a death returns the slot and bumps its
// generation so stale slot references can never resurrect a dead id. Ids
// are allocated monotonically by the owning backend, so the id -> slot map
// is a plain vector indexed by id — every lookup on the query hot path is
// two array indexings, no hashing.
//
// The table also owns the alive list (push_back on birth, swap-remove on
// death) and each live payload's position in it, so a backend's iteration
// and sampling orders depend only on the birth/death sequence, never on
// which slot a peer happens to occupy (the slot-shuffle determinism test
// pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace guess {

template <typename T>
class SlotTable {
 public:
  using Id = std::uint64_t;

  /// Sentinel slot index: "this id has no live payload".
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Construct `T(id, args...)` in a free slot. `id` must be fresh (never
  /// used before) — ids are monotonic, so the id map only grows.
  /// The returned reference is valid until the next create() (slab growth
  /// may move payloads; nothing outside an event keeps payload pointers).
  template <typename... Args>
  T& create(Id id, Args&&... args) {
    // Reject tombstoned / live ids before touching any slot state, so a
    // rejected re-create (a recycled sybil identity, say) cannot leak a
    // free-list slot.
    if (id >= id_to_slot_.size()) {
      id_to_slot_.resize(static_cast<std::size_t>(id) + 1,
                         IdRef{kNoSlot, 0});
    }
    GUESS_CHECK_MSG(id_to_slot_[id].slot == kNoSlot &&
                        id_to_slot_[id].generation == 0,
                    "PeerId reused");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    GUESS_CHECK(!s.payload.has_value());
    s.payload.emplace(id, std::forward<Args>(args)...);
    s.alive_pos = static_cast<std::uint32_t>(alive_ids_.size());
    id_to_slot_[id] = IdRef{slot, s.generation};
    alive_ids_.push_back(id);
    return *s.payload;
  }

  /// Destroy the payload for `id` (checked): swap-removes it from the alive
  /// list, frees its slot, and bumps the slot's generation.
  void destroy(Id id) {
    GUESS_CHECK_MSG(id < id_to_slot_.size() && id_to_slot_[id].slot != kNoSlot,
                    "destroy of unknown peer " << id);
    std::uint32_t slot = id_to_slot_[id].slot;
    Slot& s = slots_[slot];
    // Swap-remove from the alive list, re-keying the moved id's position.
    std::uint32_t pos = s.alive_pos;
    std::uint32_t last = static_cast<std::uint32_t>(alive_ids_.size()) - 1;
    if (pos != last) {
      Id moved = alive_ids_[last];
      alive_ids_[pos] = moved;
      slots_[id_to_slot_[moved].slot].alive_pos = pos;
    }
    alive_ids_.pop_back();
    // Tombstone (generation 1, vs 0 for never-born): lookups still miss, but
    // create() can tell a retired id from a fresh one and reject reuse.
    id_to_slot_[id] = IdRef{kNoSlot, 1};
    s.payload.reset();
    ++s.generation;  // stale (slot, generation) references die here
    free_slots_.push_back(slot);
  }

  T* find(Id id) {
    std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &*slots_[slot].payload;
  }
  const T* find(Id id) const {
    std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &*slots_[slot].payload;
  }
  bool alive(Id id) const { return slot_of(id) != kNoSlot; }

  /// Slot of a live id, or kNoSlot.
  std::uint32_t slot_of(Id id) const {
    if (id >= id_to_slot_.size()) return kNoSlot;
    return id_to_slot_[id].slot;
  }

  /// The payload in an occupied slot (unchecked: callers hold a slot they
  /// got from slot_of() or from a slot-indexed structure of live peers).
  T& in_slot(std::uint32_t slot) { return *slots_[slot].payload; }

  /// Position of a live id in alive_ids() (checked).
  std::uint32_t alive_pos(Id id) const {
    std::uint32_t slot = slot_of(id);
    GUESS_CHECK(slot != kNoSlot);
    return slots_[slot].alive_pos;
  }

  /// Live ids in birth order with swap-remove holes.
  const std::vector<Id>& alive_ids() const { return alive_ids_; }
  std::size_t size() const { return alive_ids_.size(); }

  /// Total slots ever allocated (live + free); per-slot side arrays are
  /// sized against this.
  std::size_t slot_count() const { return slots_.size(); }

  /// Current generation of a slot (bumped on each death in the slot).
  std::uint32_t generation(std::uint32_t slot) const {
    GUESS_CHECK(slot < slots_.size());
    return slots_[slot].generation;
  }

  /// Resolve a (slot, generation) reference: the payload if the slot is
  /// occupied by the same incarnation the reference was taken against,
  /// nullptr otherwise. A reference taken before a death never resolves to
  /// the slot's next tenant.
  T* peer_in_slot(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    if (!s.payload.has_value() || s.generation != gen) return nullptr;
    return &*s.payload;
  }

  /// The victims of a mass kill: floor(fraction × size()) distinct live ids,
  /// drawn by one sample_indices over the alive list and copied out (each
  /// removal swap-mutates the list underneath the indices). A fraction of
  /// 1 takes everyone.
  std::vector<Id> sample_alive(double fraction, Rng& rng) const {
    GUESS_CHECK(fraction >= 0.0 && fraction <= 1.0);
    auto count =
        static_cast<std::size_t>(fraction * static_cast<double>(size()));
    std::vector<Id> victims;
    victims.reserve(count);
    for (std::size_t i : rng.sample_indices(size(), count)) {
      victims.push_back(alive_ids_[i]);
    }
    return victims;
  }

  void reserve(std::size_t n) {
    slots_.reserve(n);
    alive_ids_.reserve(n);
    free_slots_.reserve(n);
  }

  /// Test hook: pre-allocate `order.size()` empty slots and arrange the
  /// free list so births claim slots in exactly `order` — lets the
  /// determinism suite prove results do not depend on slot assignment.
  /// Must be called on an empty table; `order` must be a permutation of
  /// [0, order.size()).
  void debug_seed_free_slots(std::vector<std::uint32_t> order) {
    GUESS_CHECK_MSG(slots_.empty() && alive_ids_.empty(),
                    "free-list seeding requires an empty table");
    slots_.resize(order.size());
    // The free list pops from the back: store the order reversed so births
    // claim order[0], order[1], ...
    free_slots_.assign(order.rbegin(), order.rend());
  }

 private:
  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t alive_pos = 0;  // valid while occupied
    std::optional<T> payload;
  };
  struct IdRef {
    std::uint32_t slot;
    std::uint32_t generation;
  };

  std::vector<Slot> slots_;
  std::vector<IdRef> id_to_slot_;          // indexed by id
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::vector<Id> alive_ids_;
};

}  // namespace guess
