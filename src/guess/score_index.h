// Incremental policy-score ordering over link-cache positions.
//
// LinkCache's select_best / select_top / offer answer from these orderings
// instead of rescanning (and rescoring) every cache entry per call. A
// ScoreIndex keeps one policy's ordering as an indexed binary heap over
// (score, position) pairs, updated as entries are inserted, evicted,
// replaced, or refreshed — O(log n) per mutation, O(1) for the best entry,
// O(k log n) for a top-k.
//
// Determinism contract: the best entry is the strict score optimum at the
// LOWEST current position (a scan keeping the first maximum/minimum), and
// top-k pops in (score desc, position asc) order. Since (score, position)
// pairs are unique, the heap layout cannot influence results: pops follow
// the total order. tests/guess/link_cache_index_test.cc holds a full-scan
// oracle to this contract.
//
// Positions are live indices into LinkCache::entries_, which swap-removes:
// on_swap_remove() both deletes the evicted position and re-keys the entry
// that moved into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace guess {

class ScoreIndex {
 public:
  struct Item {
    double score = 0.0;
    std::uint32_t pos = 0;
  };

  enum class Order {
    kMaxFirst,  ///< selection policies: highest score probed first
    kMinFirst,  ///< retention policies: lowest score is the eviction victim
  };

  void reset(Order order, std::size_t capacity) {
    order_ = order;
    heap_.clear();
    heap_.reserve(capacity);
    slot_of_.clear();
    slot_of_.reserve(capacity);
  }

  std::size_t size() const { return heap_.size(); }

  /// Entry appended at position `pos` (== previous size).
  void on_insert(std::size_t pos, double score) {
    GUESS_CHECK(pos == heap_.size());
    heap_.push_back(Item{score, static_cast<std::uint32_t>(pos)});
    slot_of_.push_back(static_cast<std::uint32_t>(pos));
    sift_up(heap_.size() - 1);
  }

  /// Entry at `pos` re-scored in place (touch / set_num_res / replacement).
  void on_update(std::size_t pos, double score) {
    std::size_t slot = slot_of_[pos];
    heap_[slot].score = score;
    resift(slot);
  }

  /// LinkCache::erase_at(pos): the entry at `pos` is gone and the entry
  /// previously at `last` (== size-1) now lives at `pos`.
  void on_swap_remove(std::size_t pos, std::size_t last) {
    remove_slot(slot_of_[pos]);
    if (pos != last) {
      // The moved entry's score is unchanged but its tie-break position
      // dropped, which can only raise its priority.
      std::size_t slot = slot_of_[last];
      heap_[slot].pos = static_cast<std::uint32_t>(pos);
      slot_of_[pos] = static_cast<std::uint32_t>(slot);
      sift_up(slot);
    }
    slot_of_.pop_back();
  }

  /// The ordering's optimum: (score, position) of the first entry, in
  /// position order, with the best score.
  const Item& top() const {
    GUESS_CHECK(!heap_.empty());
    return heap_[0];
  }

  /// First `k` positions in selection order, appended to `out`. `scratch`
  /// holds a working copy of the heap; both keep their capacity across
  /// calls, so a warmed caller never allocates.
  void top_k(std::size_t k, std::vector<std::uint32_t>& out,
             std::vector<Item>& scratch) const {
    // Small k (the per-pong case: k=PongSize over a full cache): one linear
    // pass keeping a sorted best-k prefix in `scratch` beats copying the
    // whole heap just to pop k of it — most items fail the single
    // compare against the current k-th best. Output order is the same
    // either way: (score, position) pairs are unique, so the top-k in
    // selection order is independent of how it is extracted.
    if (k > 0 && k * 4 <= heap_.size()) {
      scratch.clear();
      for (const Item& item : heap_) {
        if (scratch.size() == k) {
          if (!better(item, scratch.back())) continue;
          std::size_t pos = k - 1;
          while (pos > 0 && better(item, scratch[pos - 1])) {
            scratch[pos] = scratch[pos - 1];
            --pos;
          }
          scratch[pos] = item;
        } else {
          scratch.push_back(item);
          for (std::size_t pos = scratch.size() - 1;
               pos > 0 && better(scratch[pos], scratch[pos - 1]); --pos) {
            std::swap(scratch[pos], scratch[pos - 1]);
          }
        }
      }
      for (const Item& item : scratch) out.push_back(item.pos);
      return;
    }
    scratch = heap_;
    std::size_t n = scratch.size();
    for (std::size_t i = 0; i < k && n > 0; ++i) {
      out.push_back(scratch[0].pos);
      scratch[0] = scratch[--n];
      // Sift the promoted tail element down within scratch[0..n).
      std::size_t s = 0;
      for (;;) {
        std::size_t l = 2 * s + 1;
        if (l >= n) break;
        std::size_t best = l;
        if (l + 1 < n && better(scratch[l + 1], scratch[l])) best = l + 1;
        if (!better(scratch[best], scratch[s])) break;
        std::swap(scratch[s], scratch[best]);
        s = best;
      }
    }
  }

  /// Rebuild from scratch (first-hand-only flips re-key every entry).
  /// `scores[i]` is position i's score.
  void rebuild(const std::vector<double>& scores) {
    heap_.clear();
    slot_of_.clear();
    for (std::size_t i = 0; i < scores.size(); ++i) on_insert(i, scores[i]);
  }

 private:
  bool better(const Item& a, const Item& b) const {
    if (a.score != b.score) {
      return order_ == Order::kMaxFirst ? a.score > b.score
                                        : a.score < b.score;
    }
    return a.pos < b.pos;
  }

  void sift_up(std::size_t slot) {
    while (slot > 0) {
      std::size_t parent = (slot - 1) / 2;
      if (!better(heap_[slot], heap_[parent])) break;
      swap_slots(slot, parent);
      slot = parent;
    }
  }

  void sift_down(std::size_t slot) {
    for (;;) {
      std::size_t l = 2 * slot + 1;
      if (l >= heap_.size()) break;
      std::size_t best = l;
      if (l + 1 < heap_.size() && better(heap_[l + 1], heap_[l])) best = l + 1;
      if (!better(heap_[best], heap_[slot])) break;
      swap_slots(slot, best);
      slot = best;
    }
  }

  void resift(std::size_t slot) {
    sift_up(slot);
    sift_down(slot);
  }

  void remove_slot(std::size_t slot) {
    std::size_t back = heap_.size() - 1;
    if (slot != back) {
      swap_slots(slot, back);
      heap_.pop_back();
      resift(slot);
    } else {
      heap_.pop_back();
    }
  }

  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    slot_of_[heap_[a].pos] = static_cast<std::uint32_t>(a);
    slot_of_[heap_[b].pos] = static_cast<std::uint32_t>(b);
  }

  Order order_ = Order::kMaxFirst;
  std::vector<Item> heap_;           // binary heap of (score, position)
  std::vector<std::uint32_t> slot_of_;  // position -> heap slot
};

}  // namespace guess
