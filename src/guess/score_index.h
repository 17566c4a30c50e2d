// Incremental policy-score ordering over link-cache positions.
//
// LinkCache's select_best / select_top / offer answer from these orderings
// instead of rescanning (and rescoring) every cache entry per call. A
// ScoreIndex keeps one policy's ordering as an indexed binary heap of
// 32-bit cache positions, updated as entries are inserted, evicted,
// replaced, or refreshed — O(log n) per mutation, O(1) for the best entry,
// O(k log k) for a top-k.
//
// The heap stores positions only (8 bytes per entry with the position ->
// slot map). Every operation that compares takes `key`, a callable mapping
// a position to its entry's current score, and recomputes keys from the
// cache's entries as it sifts. The index holds no pointer into the cache:
// caches live in peers, and peers move when the peer table grows.
//
// Determinism contract: the best entry is the strict score optimum at the
// LOWEST current position (a scan keeping the first maximum/minimum), and
// top-k yields (score desc, position asc) order. Since (score, position)
// pairs are unique, the heap layout cannot influence results.
// tests/guess/link_cache_index_test.cc holds a full-scan oracle to this
// contract.
//
// Positions are live indices into LinkCache's entries, which swap-remove:
// remove() drops the evicted position while its entry is still in place,
// and relabel() re-keys the entry that then moved into it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace guess {

class ScoreIndex {
 public:
  enum class Order {
    kMaxFirst,  ///< selection policies: highest score probed first
    kMinFirst,  ///< retention policies: lowest score is the eviction victim
  };

  /// A top_k frontier element: a heap slot with its position and key.
  struct Frontier {
    double score;
    std::uint32_t pos;
    std::uint32_t slot;
  };

  explicit ScoreIndex(Order order) : order_(order) {}

  /// Empty the index for positions below `capacity`.
  void reset(std::size_t capacity) {
    heap_.clear();
    heap_.reserve(capacity);
    slot_of_.assign(capacity, 0);
  }

  /// Entry appended at position `pos` (== previous size).
  template <typename Key>
  void on_insert(std::uint32_t pos, const Key& key) {
    GUESS_CHECK(pos == heap_.size());
    heap_.push_back(pos);
    sift(pos, pos, key);
  }

  /// Entry at `pos` re-scored in place (touch / set_num_res / replacement).
  template <typename Key>
  void on_update(std::uint32_t pos, const Key& key) {
    sift(slot_of_[pos], pos, key);
  }

  /// First half of a swap-remove: drop `pos` while its entry is intact.
  template <typename Key>
  void remove(std::uint32_t pos, const Key& key) {
    std::uint32_t slot = slot_of_[pos];
    std::uint32_t back = heap_.back();
    heap_.pop_back();
    if (slot < heap_.size()) sift(slot, back, key);
  }

  /// Second half: the entry at `from` (the old last position) now lives at
  /// `to`, the removed one's position. Its score is unchanged but its
  /// tie-break position dropped, which can only raise its priority.
  template <typename Key>
  void relabel(std::uint32_t from, std::uint32_t to, const Key& key) {
    sift(slot_of_[from], to, key);
  }

  /// The ordering's optimum: the position of the first entry, in position
  /// order, with the best score.
  std::uint32_t top() const {
    GUESS_CHECK(!heap_.empty());
    return heap_[0];
  }

  /// Calls `visit(pos)` for the first `k` positions in selection order.
  /// Walks the heap best-first: `frontier` holds the children of the slots
  /// taken so far (at most k + 1), itself a heap under the same order. It
  /// keeps its capacity across calls, so a warmed caller never allocates.
  template <typename Key, typename Visit>
  void top_k(std::size_t k, const Key& key, std::vector<Frontier>& frontier,
             Visit&& visit) const {
    frontier.clear();
    if (heap_.empty()) return;
    auto worse = [this](const Frontier& a, const Frontier& b) {
      return better(b.score, b.pos, a.score, a.pos);
    };
    auto push = [&](std::size_t slot) {
      std::uint32_t pos = heap_[slot];
      frontier.push_back(
          Frontier{key(pos), pos, static_cast<std::uint32_t>(slot)});
      std::push_heap(frontier.begin(), frontier.end(), worse);
    };
    push(0);
    for (; k > 0 && !frontier.empty(); --k) {
      std::pop_heap(frontier.begin(), frontier.end(), worse);
      Frontier taken = frontier.back();
      frontier.pop_back();
      visit(taken.pos);
      std::size_t child = 2 * std::size_t{taken.slot} + 1;
      if (child < heap_.size()) push(child);
      if (child + 1 < heap_.size()) push(child + 1);
    }
  }

 private:
  bool better(double a_score, std::uint32_t a_pos, double b_score,
              std::uint32_t b_pos) const {
    if (a_score != b_score) {
      return order_ == Order::kMaxFirst ? a_score > b_score
                                        : a_score < b_score;
    }
    return a_pos < b_pos;
  }

  void place(std::uint32_t slot, std::uint32_t pos) {
    heap_[slot] = pos;
    slot_of_[pos] = slot;
  }

  /// Put `pos` in the hole at `slot`, moving the hole up, then down, to
  /// where `pos` belongs.
  template <typename Key>
  void sift(std::uint32_t slot, std::uint32_t pos, const Key& key) {
    const double score = key(pos);
    while (slot > 0) {
      std::uint32_t parent = (slot - 1) / 2;
      std::uint32_t above = heap_[parent];
      if (!better(score, pos, key(above), above)) break;
      place(slot, above);
      slot = parent;
    }
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * std::size_t{slot} + 1; child < n;
         child = 2 * std::size_t{slot} + 1) {
      std::uint32_t below = heap_[child];
      double below_score = key(below);
      if (child + 1 < n) {
        std::uint32_t right = heap_[child + 1];
        double right_score = key(right);
        if (better(right_score, right, below_score, below)) {
          ++child;
          below = right;
          below_score = right_score;
        }
      }
      if (!better(below_score, below, score, pos)) break;
      place(slot, below);
      slot = static_cast<std::uint32_t>(child);
    }
    place(slot, pos);
  }

  Order order_;
  std::vector<std::uint32_t> heap_;     // binary heap of positions
  std::vector<std::uint32_t> slot_of_;  // position -> heap slot
};

}  // namespace guess
