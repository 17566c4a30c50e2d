// The live population of the GUESS, flood and gossip backends (DESIGN.md
// §10): the paper's constant-size network under churn (§5.1) and the fault
// actions on it. A Population owns its backend's SlotTable, id counter and
// churn manager, and the rules over them; the backend keeps what a birth or
// a removal does to its own protocol state. Every draw comes from the
// backend's own stream, borrowed by reference; lifetimes come from the
// churn stream, split off it at construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "churn/churn_manager.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/slot_table.h"
#include "sim/simulator.h"

namespace guess::search {

/// How a peer enters: the initial population starts mid-session so deaths
/// are not synchronized, a newborn (churn replacement or join) gets a fresh
/// lifetime, and an attack-cohort member is not churn-registered (its
/// lifetime is the attack window).
enum class Birth { kInitial, kNewborn, kCohort };

template <typename T>
class Population {
 public:
  using Id = std::uint64_t;

  /// `on_death(id)` fires at a churn-registered peer's natural death.
  Population(sim::Simulator& simulator, double lifespan_multiplier, Rng& rng,
             std::function<void(Id)> on_death)
      : rng_(rng),
        churn_(simulator, churn::LifetimeDistribution(lifespan_multiplier),
               rng.split(), std::move(on_death)) {}
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  /// Construct `T(id, args...)` under a fresh id. The caller has drawn the
  /// payload's randomness; the birth then draws a side of an active
  /// partition and, for an initial peer, its lifetime scale.
  template <typename... Args>
  T& birth(Birth birth, Args&&... args) {
    Id id = next_id_++;
    T& peer = table_.create(id, std::forward<Args>(args)...);
    if (ways_ > 0) draw_side(table_.slot_of(id));
    if (birth == Birth::kInitial) {
      churn_.register_peer_scaled(id, std::max(1e-6, rng_.uniform()));
    } else if (birth == Birth::kNewborn) {
      churn_.register_peer(id);
    }
    return peer;
  }

  /// A mass kill's victims, floor(fraction × alive) of them by one
  /// sample_indices over the alive list, with their natural deaths
  /// cancelled. The caller removes them without replacement births.
  std::vector<Id> draw_victims(double fraction) {
    std::vector<Id> victims = table_.sample_alive(fraction, rng_);
    for (Id id : victims) churn_.deschedule(id);
    return victims;
  }

  /// Give every live peer one of `ways` sides, drawn in alive order.
  void set_partition(int ways) {
    GUESS_CHECK_MSG(ways >= 2, "partition ways must be >= 2, got " << ways);
    ways_ = ways;
    ++epoch_;  // every earlier side goes stale without a walk
    for (Id id : table_.alive_ids()) draw_side(table_.slot_of(id));
  }
  void clear_partition() {
    ways_ = 0;
    ++epoch_;
  }
  int partition_ways() const { return ways_; }
  /// The side of `id` in the active partition, or -1: two array reads.
  int side(Id id) const {
    std::uint32_t slot = table_.slot_of(id);  // kNoSlot is past the end
    if (slot >= sides_.size() || sides_[slot].epoch != epoch_) return -1;
    return sides_[slot].side;
  }
  /// True iff the partition puts `a` and `b` on different sides. An id
  /// with no side (a corpse, a fabricated address) is never severed.
  bool severed(Id a, Id b) const {
    if (ways_ == 0) return false;
    int side_a = side(a);
    if (side_a < 0) return false;
    int side_b = side(b);
    return side_b >= 0 && side_a != side_b;
  }

  /// The degradation window: extra per-leg loss and a latency multiplier.
  void set_degradation(double extra_loss, double latency_factor) {
    GUESS_CHECK(extra_loss >= 0.0 && extra_loss <= 1.0 &&
                latency_factor >= 1.0);
    extra_loss_ = extra_loss;
    latency_factor_ = latency_factor;
  }
  void clear_degradation() { set_degradation(0.0, 1.0); }
  double extra_loss() const { return extra_loss_; }
  double latency_factor() const { return latency_factor_; }

  /// A uniformly random live peer, drawn from `rng` (CHECKs non-empty).
  Id uniform_alive(Rng& rng) const {
    const std::vector<Id>& alive = table_.alive_ids();
    GUESS_CHECK(!alive.empty());
    return alive[rng.index(alive.size())];
  }
  /// A uniformly random live peer other than `exclude`, or nullopt.
  std::optional<Id> random_alive(Id exclude) {
    const std::vector<Id>& alive = table_.alive_ids();
    if (alive.empty() || (alive.size() == 1 && alive[0] == exclude)) {
      return std::nullopt;
    }
    for (;;) {
      Id id = uniform_alive(rng_);
      if (id != exclude) return id;
    }
  }

  /// `count` fresh ids that no peer will ever hold.
  std::vector<Id> fabricate_ids(std::size_t count) {
    std::vector<Id> ids(count);
    for (Id& id : ids) id = next_id_++;
    return ids;
  }
  /// One past the largest id minted so far.
  Id id_bound() const { return next_id_; }
  /// Churn deaths over the whole run, warmup included.
  std::uint64_t deaths() const { return churn_.deaths(); }

  SlotTable<T>& table() { return table_; }
  const SlotTable<T>& table() const { return table_; }

 private:
  struct Side {
    std::uint32_t epoch = 0;
    int side = 0;
  };

  void draw_side(std::uint32_t slot) {
    if (slot >= sides_.size()) sides_.resize(table_.slot_count());
    sides_[slot] = Side{
        epoch_, static_cast<int>(rng_.index(static_cast<std::size_t>(ways_)))};
  }

  Rng& rng_;
  churn::ChurnManager churn_;
  Id next_id_ = 0;
  SlotTable<T> table_;
  int ways_ = 0;  ///< 0 = no partition active
  std::uint32_t epoch_ = 0;
  std::vector<Side> sides_;  ///< by slot; valid where epoch == epoch_
  double extra_loss_ = 0.0;
  double latency_factor_ = 1.0;
};

}  // namespace guess::search
