#include "guess/link_cache.h"

#include <algorithm>

#include "common/check.h"

namespace guess {

LinkCache::LinkCache(PeerId owner, std::size_t capacity)
    : owner_(owner), capacity_(capacity), index_(capacity) {
  GUESS_CHECK_MSG(capacity > 0, "cache capacity must be positive");
  entries_.reserve(capacity);
}

void LinkCache::configure_indices(std::initializer_list<Policy> selection,
                                  Replacement retention) {
  selection_indices_.clear();
  for (Policy policy : selection) {
    if (policy == Policy::kRandom) continue;
    if (find_selection(policy) != nullptr) continue;  // dedupe
    selection_indices_.push_back(SelectionIndex{policy, ScoreIndex{}});
  }
  retention_policy_ = retention;
  has_retention_index_ = retention != Replacement::kRandom;
  rebuild_indices();
}

void LinkCache::set_first_hand_only(bool enabled) {
  if (first_hand_only_ == enabled) return;
  first_hand_only_ = enabled;
  // trusted_num_res changed for every non-first-hand entry: re-key.
  rebuild_indices();
}

void LinkCache::rebuild_indices() {
  for (SelectionIndex& sel : selection_indices_) {
    sel.index.reset(ScoreIndex::Order::kMaxFirst, capacity_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      sel.index.on_insert(i, deterministic_selection_score(
                                 sel.policy, entries_[i], first_hand_only_));
    }
  }
  if (has_retention_index_) {
    retention_index_.reset(ScoreIndex::Order::kMinFirst, capacity_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      retention_index_.on_insert(
          i, deterministic_retention_score(retention_policy_, entries_[i],
                                           first_hand_only_));
    }
  }
}

const ScoreIndex* LinkCache::find_selection(Policy policy) const {
  for (const SelectionIndex& sel : selection_indices_) {
    if (sel.policy == policy) return &sel.index;
  }
  return nullptr;
}

const ScoreIndex& LinkCache::configured_selection(Policy policy) const {
  const ScoreIndex* index = find_selection(policy);
  GUESS_CHECK_MSG(index != nullptr, "selection policy "
                                        << to_string(policy)
                                        << " was not passed to "
                                           "configure_indices");
  return *index;
}

void LinkCache::note_insert() {
  std::size_t pos = entries_.size() - 1;
  for (SelectionIndex& sel : selection_indices_) {
    sel.index.on_insert(pos, deterministic_selection_score(
                                 sel.policy, entries_[pos], first_hand_only_));
  }
  if (has_retention_index_) {
    retention_index_.on_insert(
        pos, deterministic_retention_score(retention_policy_, entries_[pos],
                                           first_hand_only_));
  }
}

void LinkCache::note_update(std::size_t pos) {
  for (SelectionIndex& sel : selection_indices_) {
    sel.index.on_update(pos, deterministic_selection_score(
                                 sel.policy, entries_[pos], first_hand_only_));
  }
  if (has_retention_index_) {
    retention_index_.on_update(
        pos, deterministic_retention_score(retention_policy_, entries_[pos],
                                           first_hand_only_));
  }
}

std::optional<CacheEntry> LinkCache::get(PeerId id) const {
  std::uint32_t pos = index_.find(id);
  if (pos == FlatIdMap::kNotFound) return std::nullopt;
  return entries_[pos];
}

void LinkCache::insert_free(const CacheEntry& entry) {
  GUESS_CHECK(entry.id != owner_);
  GUESS_CHECK(!full());
  GUESS_CHECK(!contains(entry.id));
  index_.insert(entry.id, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(entry);
  if (entry.first_hand) ++first_hand_count_;
  note_insert();
}

bool LinkCache::offer(const CacheEntry& candidate, Replacement policy,
                      Rng& rng) {
  GUESS_CHECK_MSG(policy == Replacement::kRandom ||
                      (has_retention_index_ && retention_policy_ == policy),
                  "replacement policy " << to_string(policy)
                                        << " was not passed to "
                                           "configure_indices");
  if (candidate.id == owner_ || contains(candidate.id)) return false;
  if (!full()) {
    index_.insert(candidate.id, static_cast<std::uint32_t>(entries_.size()));
    entries_.push_back(candidate);
    if (candidate.first_hand) ++first_hand_count_;
    note_insert();
    return true;
  }
  // Random replacement is the always-insert baseline: the candidate
  // replaces a uniformly chosen victim (documented in policy.h).
  if (policy == Replacement::kRandom) {
    std::size_t victim = rng.index(entries_.size());
    if (floor_protects(victim, candidate)) return false;
    if (entries_[victim].first_hand) --first_hand_count_;
    if (candidate.first_hand) ++first_hand_count_;
    index_.erase(entries_[victim].id);
    entries_[victim] = candidate;
    index_.insert(candidate.id, static_cast<std::uint32_t>(victim));
    note_update(victim);
    return true;
  }
  // Victim = lowest retention score among current entries (first position
  // on ties), answered in O(1) by the maintained ordering.
  const ScoreIndex::Item& top = retention_index_.top();
  std::size_t victim = top.pos;
  if (deterministic_retention_score(policy, candidate, first_hand_only_) <=
      top.score)
    return false;
  if (floor_protects(victim, candidate)) return false;
  if (entries_[victim].first_hand) --first_hand_count_;
  if (candidate.first_hand) ++first_hand_count_;
  index_.erase(entries_[victim].id);
  entries_[victim] = candidate;
  index_.insert(candidate.id, static_cast<std::uint32_t>(victim));
  note_update(victim);
  return true;
}

void LinkCache::erase_at(std::size_t pos) {
  std::size_t last = entries_.size() - 1;
  if (entries_[pos].first_hand) --first_hand_count_;
  index_.erase(entries_[pos].id);
  if (pos != last) {
    entries_[pos] = entries_[last];
    index_.assign(entries_[pos].id, static_cast<std::uint32_t>(pos));
  }
  entries_.pop_back();
  for (SelectionIndex& sel : selection_indices_) {
    sel.index.on_swap_remove(pos, last);
  }
  if (has_retention_index_) retention_index_.on_swap_remove(pos, last);
}

bool LinkCache::evict(PeerId id) {
  std::uint32_t pos = index_.find(id);
  if (pos == FlatIdMap::kNotFound) return false;
  erase_at(pos);
  return true;
}

void LinkCache::touch(PeerId id, sim::Time now) {
  std::uint32_t pos = index_.find(id);
  if (pos == FlatIdMap::kNotFound) return;
  entries_[pos].ts = now;
  note_update(pos);
}

void LinkCache::set_num_res(PeerId id, std::uint32_t num_res) {
  std::uint32_t pos = index_.find(id);
  if (pos == FlatIdMap::kNotFound) return;
  if (!entries_[pos].first_hand) ++first_hand_count_;
  entries_[pos].num_res = num_res;
  entries_[pos].first_hand = true;
  note_update(pos);
}

std::optional<CacheEntry> LinkCache::select_best(Policy policy,
                                                 Rng& rng) const {
  if (policy == Policy::kRandom) {
    // Uniform pick is the argmax of i.i.d. random scores.
    if (entries_.empty()) return std::nullopt;
    return entries_[rng.index(entries_.size())];
  }
  const ScoreIndex& index = configured_selection(policy);
  if (entries_.empty()) return std::nullopt;
  return entries_[index.top().pos];
}

std::vector<CacheEntry> LinkCache::select_top(Policy policy,
                                              std::size_t count,
                                              Rng& rng) const {
  std::vector<CacheEntry> out;
  select_top_into(policy, count, rng, out);
  return out;
}

void LinkCache::select_top_into(Policy policy, std::size_t count, Rng& rng,
                                std::vector<CacheEntry>& out) const {
  out.clear();
  const ScoreIndex* index =
      policy == Policy::kRandom ? nullptr : &configured_selection(policy);
  count = std::min(count, entries_.size());
  if (count == 0) return;
  if (out.capacity() < count) out.reserve(count);
  // Working buffers shared by every cache on this thread: a simulation runs
  // on one thread (each ParallelRunner worker has its own copy) and a
  // selection finishes before the next starts. Reserved to the largest
  // cache capacity seen, not grown on demand, so slowly filling caches never
  // leak an allocation into the steady-state query path.
  struct Scratch {
    std::size_t capacity = 0;
    std::vector<std::uint32_t> positions;
    std::vector<ScoreIndex::Item> items;
    std::vector<std::size_t> indices;
    std::vector<std::size_t> pool;
  };
  thread_local Scratch scratch;
  if (scratch.capacity < capacity_) {
    scratch.capacity = capacity_;
    scratch.positions.reserve(capacity_);
    scratch.items.reserve(capacity_);
    scratch.indices.reserve(capacity_);
    // A sparse random sample's membership table (a power of two >= 2k with
    // k < size / 3) can outgrow the cache, but never twice its capacity.
    scratch.pool.reserve(2 * capacity_);
  }
  // A uniform k-subset is the top-k of i.i.d. random scores.
  if (index == nullptr) {
    rng.sample_indices_into(entries_.size(), count, scratch.indices,
                            scratch.pool);
    for (std::size_t idx : scratch.indices) {
      out.push_back(entries_[idx]);
    }
    return;
  }
  scratch.positions.clear();
  index->top_k(count, scratch.positions, scratch.items);
  for (std::uint32_t pos : scratch.positions) {
    out.push_back(entries_[pos]);
  }
}

}  // namespace guess
