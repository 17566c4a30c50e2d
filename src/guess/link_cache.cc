#include "guess/link_cache.h"

#include <algorithm>
#include <bit>
#include <limits>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/check.h"

namespace guess {

namespace {

// The id column holds 32-bit ids. The all-ones value is kept out of it, as
// in the query cache, so every PeerId that narrows is a real one.
constexpr PeerId kIdBound = std::numeric_limits<std::uint32_t>::max();

std::uint32_t narrow_id(PeerId id) {
  GUESS_CHECK_MSG(id < kIdBound,
                  "link cache stores 32-bit peer ids; got id " << id);
  return static_cast<std::uint32_t>(id);
}

}  // namespace

LinkCache::LinkCache(PeerId owner, std::size_t capacity)
    : owner_(owner), capacity_(capacity) {
  GUESS_CHECK_MSG(capacity > 0, "cache capacity must be positive");
  GUESS_CHECK_MSG(capacity <= std::numeric_limits<std::uint32_t>::max(),
                  "cache capacity " << capacity
                                    << " overflows 32-bit positions");
  entries_.reserve(capacity);
  ids_.reserve(capacity);
}

void LinkCache::configure_indices(std::initializer_list<Policy> selection,
                                  Replacement retention) {
  orderings_.clear();
  selection_slot_ = {};
  auto add = [&](Policy policy, ScoreIndex::Order order) {
    if (orderings_.empty()) orderings_.reserve(selection.size() + 1);
    orderings_.push_back(Ordering{policy, ScoreIndex(order)});
  };
  for (Policy policy : selection) {
    std::uint8_t& slot = selection_slot_[static_cast<std::size_t>(policy)];
    if (policy != Policy::kRandom && slot == 0) {
      add(policy, ScoreIndex::Order::kMaxFirst);
      slot = static_cast<std::uint8_t>(orderings_.size());
    }
  }
  if (retention != Replacement::kRandom) {
    add(retained_by(retention), ScoreIndex::Order::kMinFirst);
  }
  retention_policy_ = retention;
  rebuild_indices();
}

void LinkCache::set_first_hand_only(bool enabled) {
  if (first_hand_only_ == enabled) return;
  first_hand_only_ = enabled;
  // trusted_num_res changed for every non-first-hand entry: re-key.
  rebuild_indices();
}

auto LinkCache::key(Policy policy) const {
  return [policy, entries = entries_.data(),
          first_hand_only = first_hand_only_](std::uint32_t pos) {
    return deterministic_selection_score(policy, entries[pos],
                                         first_hand_only);
  };
}

void LinkCache::rebuild_indices() {
  for (Ordering& o : orderings_) {
    o.index.reset(capacity_);
    for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
      o.index.on_insert(pos, key(o.policy));
    }
  }
}

const LinkCache::Ordering& LinkCache::configured_selection(
    Policy policy) const {
  const std::uint8_t slot = selection_slot_[static_cast<std::size_t>(policy)];
  GUESS_CHECK_MSG(slot != 0, "selection policy "
                                 << to_string(policy)
                                 << " was not passed to configure_indices");
  return orderings_[slot - 1];
}

std::uint32_t LinkCache::find(PeerId id) const {
  if (id >= kIdBound) return kNotFound;  // never stored
  const auto want = static_cast<std::uint32_t>(id);
  const std::uint32_t* ids = ids_.data();
  const std::size_t n = ids_.size();
  std::size_t i = 0;
#ifdef __SSE2__
  // Eight ids per step: two 4-wide compares OR-ed into one branch (GCC
  // leaves an early-exit loop scalar).
  const __m128i needle = _mm_set1_epi32(static_cast<int>(want));
  for (; i + 8 <= n; i += 8) {
    __m128i lo = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i)), needle);
    __m128i hi = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i + 4)),
        needle);
    if (_mm_movemask_epi8(_mm_or_si128(lo, hi)) != 0) {
      auto lanes = static_cast<unsigned>(
          _mm_movemask_ps(_mm_castsi128_ps(lo)) |
          (_mm_movemask_ps(_mm_castsi128_ps(hi)) << 4));
      return static_cast<std::uint32_t>(i + std::countr_zero(lanes));
    }
  }
#endif
  for (; i < n; ++i) {
    if (ids[i] == want) return static_cast<std::uint32_t>(i);
  }
  return kNotFound;
}

std::optional<CacheEntry> LinkCache::get(PeerId id) const {
  std::uint32_t pos = find(id);
  if (pos == kNotFound) return std::nullopt;
  return entries_[pos];
}

void LinkCache::append(const CacheEntry& entry) {
  ids_.push_back(narrow_id(entry.id));
  entries_.push_back(entry);
  if (entry.first_hand) ++first_hand_count_;
  auto pos = static_cast<std::uint32_t>(entries_.size() - 1);
  for (Ordering& o : orderings_) o.index.on_insert(pos, key(o.policy));
}

void LinkCache::replace_at(std::uint32_t pos, const CacheEntry& entry) {
  ids_[pos] = narrow_id(entry.id);
  if (entries_[pos].first_hand) --first_hand_count_;
  if (entry.first_hand) ++first_hand_count_;
  entries_[pos] = entry;
  for (Ordering& o : orderings_) o.index.on_update(pos, key(o.policy));
}

void LinkCache::insert_free(const CacheEntry& entry) {
  GUESS_CHECK(entry.id != owner_);
  GUESS_CHECK(!full());
  GUESS_CHECK(!contains(entry.id));
  append(entry);
}

bool LinkCache::offer(const CacheEntry& candidate, Replacement policy,
                      Rng& rng) {
  GUESS_CHECK_MSG(policy == Replacement::kRandom ||
                      retention_policy_ == policy,
                  "replacement policy " << to_string(policy)
                                        << " was not passed to "
                                           "configure_indices");
  if (candidate.id == owner_ || contains(candidate.id)) return false;
  if (!full()) {
    append(candidate);
    return true;
  }
  std::uint32_t victim = 0;
  if (policy == Replacement::kRandom) {
    // Random replacement is the always-insert baseline: the candidate
    // replaces a uniformly chosen victim (documented in policy.h).
    victim = static_cast<std::uint32_t>(rng.index(entries_.size()));
  } else {
    // Victim = lowest retention score among current entries (first
    // position on ties), answered in O(1) by the maintained ordering.
    victim = orderings_.back().index.top();
    if (deterministic_retention_score(policy, candidate, first_hand_only_) <=
        deterministic_retention_score(policy, entries_[victim],
                                      first_hand_only_))
      return false;
  }
  if (floor_protects(victim, candidate)) return false;
  replace_at(victim, candidate);
  return true;
}

void LinkCache::erase_at(std::uint32_t pos) {
  auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (entries_[pos].first_hand) --first_hand_count_;
  // The orderings drop `pos` while its entry is intact, then relabel the
  // last entry once it has moved in.
  for (Ordering& o : orderings_) o.index.remove(pos, key(o.policy));
  entries_[pos] = entries_[last];
  ids_[pos] = ids_[last];
  entries_.pop_back();
  ids_.pop_back();
  if (pos == last) return;
  for (Ordering& o : orderings_) o.index.relabel(last, pos, key(o.policy));
}

void LinkCache::note_update(std::uint32_t pos, ScoreField changed) {
  for (Ordering& o : orderings_) {
    if (score_field(o.policy) == changed) o.index.on_update(pos, key(o.policy));
  }
}

bool LinkCache::evict(PeerId id) {
  std::uint32_t pos = find(id);
  if (pos == kNotFound) return false;
  erase_at(pos);
  return true;
}

void LinkCache::touch(PeerId id, sim::Time now) {
  std::uint32_t pos = find(id);
  if (pos == kNotFound) return;
  entries_[pos].ts = now;
  note_update(pos, ScoreField::kTs);
}

void LinkCache::set_num_res(PeerId id, std::uint32_t num_res) {
  std::uint32_t pos = find(id);
  if (pos == kNotFound) return;
  if (!entries_[pos].first_hand) ++first_hand_count_;
  entries_[pos].num_res = num_res;
  entries_[pos].first_hand = true;
  note_update(pos, ScoreField::kNumRes);
}

std::optional<CacheEntry> LinkCache::select_best(Policy policy,
                                                 Rng& rng) const {
  if (policy == Policy::kRandom) {
    // Uniform pick is the argmax of i.i.d. random scores.
    if (entries_.empty()) return std::nullopt;
    return entries_[rng.index(entries_.size())];
  }
  const Ordering& ordering = configured_selection(policy);
  if (entries_.empty()) return std::nullopt;
  return entries_[ordering.index.top()];
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
  const Ordering* ordering =
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
    std::vector<ScoreIndex::Frontier> frontier;
    std::vector<std::size_t> indices;
    std::vector<std::size_t> pool;
  };
  thread_local Scratch scratch;
  if (scratch.capacity < capacity_) {
    scratch.capacity = capacity_;
    // top_k's frontier holds at most count + 1 <= capacity + 1 slots.
    scratch.frontier.reserve(capacity_ + 1);
    scratch.indices.reserve(capacity_);
    // A sparse random sample's membership table (a power of two >= 2k with
    // k < size / 3) can outgrow the cache, but never twice its capacity.
    scratch.pool.reserve(2 * capacity_);
  }
  // A uniform k-subset is the top-k of i.i.d. random scores.
  if (ordering == nullptr) {
    rng.sample_indices_into(entries_.size(), count, scratch.indices,
                            scratch.pool);
    for (std::size_t idx : scratch.indices) {
      out.push_back(entries_[idx]);
    }
    return;
  }
  ordering->index.top_k(
      count, key(ordering->policy), scratch.frontier,
      [&](std::uint32_t pos) { out.push_back(entries_[pos]); });
}

}  // namespace guess
