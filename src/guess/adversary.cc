#include "guess/adversary.h"

#include <utility>

#include "common/check.h"

namespace guess {

namespace {

std::size_t kind_slot(faults::AttackKind kind) {
  auto slot = static_cast<std::size_t>(kind);
  GUESS_CHECK(slot < faults::kNumAttackKinds);
  return slot;
}

/// The colluding pong (eclipse, sybil, §6.4's Bad poisoners): up to
/// `pong_size` entries naming fellow roster members, never `self`. A lone
/// member has nobody to advertise and answers with an empty pong (no RNG
/// draws).
void colluding_pong(const std::vector<PeerId>& roster, PeerId self,
                    std::size_t pong_size, sim::Time now, Rng& rng,
                    std::vector<CacheEntry>& out) {
  out.clear();
  if (roster.size() <= 1) return;
  if (out.capacity() < pong_size) out.reserve(pong_size);
  for (std::size_t i = 0; i < pong_size; ++i) {
    PeerId id = self;
    // Retry until we name someone else; the roster is > 1 so this
    // terminates quickly.
    while (id == self) id = roster[rng.index(roster.size())];
    out.push_back(CacheEntry{id, now, kClaimedNumFiles, kClaimedNumRes});
  }
}

/// The fabricated pong (pong-flood, §6.4's Dead poisoners): `count` entries
/// drawn from a pool of fabricated dead addresses; empty without a pool.
void fabricated_pong(const std::vector<PeerId>& pool, std::size_t count,
                     sim::Time now, Rng& rng, std::vector<CacheEntry>& out) {
  out.clear();
  if (pool.empty()) return;
  if (out.capacity() < count) out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(CacheEntry{pool[rng.index(pool.size())], now,
                             kClaimedNumFiles, kClaimedNumRes});
  }
}

class PoisonerBehavior final : public AdversaryBehavior {
 public:
  PoisonerBehavior(BadPongBehavior pong, const std::vector<PeerId>& addresses)
      : AdversaryBehavior(addresses), pong_(pong) {}
  CacheEntry introduction(PeerId self, sim::Time now) const override {
    return CacheEntry{self, now, kClaimedNumFiles, 0};
  }
  void make_pong_into(PeerId self, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    if (pong_ == BadPongBehavior::kDead) {
      fabricated_pong(addresses(), pong_size, now, rng, out);
    } else {
      colluding_pong(addresses(), self, pong_size, now, rng, out);
    }
  }

 private:
  BadPongBehavior pong_;
};

class EclipseBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  double ping_interval_factor() const override {
    return 1.0 / kCohortPingBoost;
  }
  void make_pong_into(PeerId self, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    colluding_pong(addresses(), self, pong_size, now, rng, out);
  }
};

class SybilBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  sim::Duration identity_lifetime() const override { return kSybilLifetime; }
  void make_pong_into(PeerId self, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    colluding_pong(addresses(), self, pong_size, now, rng, out);
  }
};

class PongFloodBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  // Amplification needs contact surface: the flooder pings as aggressively
  // as an eclipse colluder so introductions spread its address quickly.
  double ping_interval_factor() const override {
    return 1.0 / kCohortPingBoost;
  }
  void make_pong_into(PeerId /*self*/, std::size_t pong_size, sim::Time now,
                      Rng& rng, std::vector<CacheEntry>& out) const override {
    fabricated_pong(addresses(), kPongFloodFactor * pong_size, now, rng, out);
  }
};

class WithholdBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  bool withholds_replies() const override { return true; }
  void make_pong_into(PeerId /*self*/, std::size_t /*pong_size*/,
                      sim::Time /*now*/, Rng& /*rng*/,
                      std::vector<CacheEntry>& out) const override {
    // Unreachable in a run (the transport swallows the exchange before a
    // pong is built), but keep the contract total.
    out.clear();
  }
};

}  // namespace

AdversaryZoo::AdversaryZoo(BadPongBehavior poisoner_pong) {
  using faults::AttackKind;
  std::size_t eclipse = kind_slot(AttackKind::kEclipse);
  std::size_t sybil = kind_slot(AttackKind::kSybil);
  std::size_t withhold = kind_slot(AttackKind::kWithhold);
  behaviors_[eclipse] = std::make_unique<EclipseBehavior>(rosters_[eclipse]);
  behaviors_[sybil] = std::make_unique<SybilBehavior>(rosters_[sybil]);
  behaviors_[kind_slot(AttackKind::kPongFlood)] =
      std::make_unique<PongFloodBehavior>(flood_pool_);
  behaviors_[withhold] =
      std::make_unique<WithholdBehavior>(rosters_[withhold]);
  behaviors_[kPoisonerSlot] = std::make_unique<PoisonerBehavior>(
      poisoner_pong, poisoner_pong == BadPongBehavior::kDead
                         ? dead_pool_
                         : rosters_[kPoisonerSlot]);
}

AdversaryZoo::~AdversaryZoo() = default;

void AdversaryZoo::set_dead_pool(std::vector<PeerId> pool) {
  dead_pool_ = std::move(pool);
}

void AdversaryZoo::set_flood_pool(std::vector<PeerId> pool) {
  flood_pool_ = std::move(pool);
}

const AdversaryBehavior& AdversaryZoo::behavior(
    faults::AttackKind kind) const {
  return *behaviors_[kind_slot(kind)];
}

void AdversaryZoo::add(faults::AttackKind kind, PeerId id) {
  enroll(kind_slot(kind), id);
}

void AdversaryZoo::add_poisoner(PeerId id) { enroll(kPoisonerSlot, id); }

void AdversaryZoo::enroll(std::size_t slot, PeerId id) {
  GUESS_CHECK(!index_.contains(id));
  std::vector<PeerId>& roster = rosters_[slot];
  index_.emplace(id, Membership{slot, roster.size()});
  roster.push_back(id);
}

void AdversaryZoo::remove(PeerId id) {
  auto it = index_.find(id);
  GUESS_CHECK(it != index_.end());
  Membership membership = it->second;
  index_.erase(it);
  std::vector<PeerId>& roster = rosters_[membership.slot];
  if (membership.pos != roster.size() - 1) {
    roster[membership.pos] = roster.back();
    index_[roster[membership.pos]].pos = membership.pos;
  }
  roster.pop_back();
}

const std::vector<PeerId>& AdversaryZoo::roster(
    faults::AttackKind kind) const {
  return rosters_[kind_slot(kind)];
}

const std::vector<PeerId>& AdversaryZoo::poisoners() const {
  return rosters_[kPoisonerSlot];
}

const AdversaryBehavior* AdversaryZoo::behavior_of(PeerId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  std::size_t slot = it->second.slot;
  if (slot == kPoisonerSlot && !poisoning_) return nullptr;
  return behaviors_[slot].get();
}

bool AdversaryZoo::withholds(PeerId id) const {
  const AdversaryBehavior* behavior = behavior_of(id);
  return behavior != nullptr && behavior->withholds_replies();
}

}  // namespace guess
