// Fixed-capacity open-addressing map from 64-bit ids to 32-bit values.
//
// The link cache's id -> position index mutates on every Pong offer that
// replaces an entry; a node-based map pays an allocation (and a free) per
// replacement. This table is flat, sized once for the cache's bounded
// capacity, and deletes by backward-shift (no tombstones), so steady-state
// cache churn performs zero heap allocations and lookups stay one cache
// line away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace guess {

class FlatIdMap {
 public:
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  /// @param capacity  maximum number of live keys (the table is sized to
  ///                  keep the load factor at or below 0.5)
  explicit FlatIdMap(std::size_t capacity = 0) { reset(capacity); }

  void reset(std::size_t capacity) {
    // Beyond this the doubling below would wrap to 0 and never terminate.
    GUESS_CHECK_MSG(capacity <= std::numeric_limits<std::size_t>::max() / 4,
                    "FlatIdMap capacity " << capacity << " cannot be sized");
    std::size_t want = 8;
    while (want < capacity * 2) want *= 2;
    slots_.assign(want, Slot{});
    mask_ = want - 1;
    size_ = 0;
    capacity_ = capacity;
  }

  std::size_t size() const { return size_; }

  /// Value for `key`, or kNotFound.
  std::uint32_t find(std::uint64_t key) const {
    std::size_t i = mix(key) & mask_;
    for (;;) {
      const Slot& slot = slots_[i];
      if (!slot.used) return kNotFound;
      if (slot.key == key) return slot.value;
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint64_t key) const { return find(key) != kNotFound; }

  /// Insert a new key (checked: absent, capacity not exceeded).
  void insert(std::uint64_t key, std::uint32_t value) {
    GUESS_CHECK_MSG(size_ < capacity_ || capacity_ == 0,
                    "FlatIdMap over capacity");
    if (capacity_ == 0 && (size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = mix(key) & mask_;
    for (;;) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot.used = true;
        slot.key = key;
        slot.value = value;
        ++size_;
        return;
      }
      GUESS_CHECK_MSG(slot.key != key, "FlatIdMap duplicate insert");
      i = (i + 1) & mask_;
    }
  }

  /// Overwrite the value of an existing key (checked: present).
  void assign(std::uint64_t key, std::uint32_t value) {
    std::size_t i = mix(key) & mask_;
    for (;;) {
      Slot& slot = slots_[i];
      GUESS_CHECK_MSG(slot.used, "FlatIdMap assign to missing key");
      if (slot.key == key) {
        slot.value = value;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Remove `key` if present (backward-shift deletion: the probe chain is
  /// compacted in place, so no tombstones accumulate).
  /// @returns true if a mapping was removed.
  bool erase(std::uint64_t key) {
    std::size_t i = mix(key) & mask_;
    for (;;) {
      Slot& slot = slots_[i];
      if (!slot.used) return false;
      if (slot.key == key) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift: pull subsequent chain members over the hole while
    // doing so shortens (never breaks) their probe distance.
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (slots_[j].used) {
      std::size_t home = mix(slots_[j].key) & mask_;
      // Move j into the hole iff the hole lies cyclically within
      // [home, j): the element stays reachable from its home slot.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    bool used = false;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) insert(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // 0 = unbounded (grows); else fixed
};

}  // namespace guess
