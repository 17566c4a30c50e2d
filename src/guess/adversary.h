// The adversary zoo (DESIGN.md §11) — every hostile peer of a run, behind
// one AdversaryBehavior interface:
//
//   poisoners  — §6.4's PercentBadPeers share of the population. Their pongs
//                carry fabricated dead addresses (BadPongBehavior::kDead) or
//                name fellow poisoners (kBad, collusion); `poison off`
//                silences them until `poison on`;
//   eclipse    — colluders ping aggressively and answer every Ping/Probe
//                with a full-width pong naming fellow colluders under
//                top-of-distribution claims, displacing honest entries from
//                victims' link caches;
//   sybil      — a flash crowd of short-lived identities: each sybil
//                retires after kSybilLifetime and is replaced by a fresh
//                PeerId (the old id is tombstoned forever), filling victim
//                caches with soon-dead entries and churning the PeerTable's
//                id/generation machinery;
//   pong-flood — oversized pong payloads (kPongFloodFactor × PongSize
//                fabricated dead addresses) to inflate victims' cache and
//                referral bookkeeping;
//   withhold   — slowloris probe stalling: accept Pings/QueryProbes and
//                never reply, burning the sender's timeout (and retries,
//                under the lossy transport) per exchange.
//
// Poisoners are born and die with the population; the four attack cohorts
// are deployed and retired deterministically by FaultEngine via
// `at T attack <kind> frac=F for D` scenario windows. The zoo itself is pure
// bookkeeping + payload generation and draws randomness only from the RNG
// the network passes in, so attack runs stay bitwise reproducible.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "faults/scenario.h"
#include "guess/cache_entry.h"
#include "guess/params.h"

namespace guess {

// The attackers' fixed parameters. The claims sit at the top of the honest
// distributions so trusting policies (MFS, MR) rank attack entries first.
inline constexpr std::uint32_t kClaimedNumFiles = 5000;  ///< lie exploiting MFS
inline constexpr std::uint32_t kClaimedNumRes = 20;      ///< lie exploiting MR
/// Fabricated dead addresses, as multiples of NetworkSize (finite, so caches
/// can dedupe repeats like real IPs): the Dead poisoners' pool and the
/// pong-flood pool.
inline constexpr std::size_t kDeadPoolFactor = 10;
inline constexpr std::size_t kFloodPoolFactor = 4;
/// Eclipse and pong-flood members ping this many times faster than honest
/// peers, spreading their attack pongs (and introductions) aggressively.
inline constexpr double kCohortPingBoost = 8.0;
/// Each sybil identity lives this long before a fresh one replaces it.
inline constexpr sim::Duration kSybilLifetime = 30.0;
/// Pong-flood pongs carry this multiple of PongSize entries.
inline constexpr std::size_t kPongFloodFactor = 8;

/// One attack strategy. Stateless apart from a reference to the addresses
/// its pongs draw from (its own roster for colluders, a fabricated pool
/// otherwise); per-member state lives in the network (timers) and the zoo
/// (membership).
class AdversaryBehavior {
 public:
  explicit AdversaryBehavior(const std::vector<PeerId>& addresses)
      : addresses_(addresses) {}
  virtual ~AdversaryBehavior() = default;

  /// Multiplier on the honest PingInterval; < 1 means the attacker pings
  /// faster than honest peers.
  virtual double ping_interval_factor() const { return 1.0; }

  /// True if the attacker swallows inbound exchanges entirely — the sender
  /// sees a timeout (and pays retries under the lossy transport).
  virtual bool withholds_replies() const { return false; }

  /// Identity lifetime: 0 = the member lives until it dies or its attack
  /// window closes; > 0 = it retires after this long and a fresh identity
  /// replaces it.
  virtual sim::Duration identity_lifetime() const { return 0.0; }

  /// The entry this member introduces itself with. Cohorts claim NumFiles
  /// and NumRes — a withholder's only advertising channel (it builds no
  /// pongs), and the bait that pulls MR-ranked probes into its timeout
  /// trap; §6.4's poisoners claim NumFiles only. Never first-hand, so the
  /// first_hand_floor defense still holds.
  virtual CacheEntry introduction(PeerId self, sim::Time now) const {
    return CacheEntry{self, now, kClaimedNumFiles, kClaimedNumRes};
  }

  /// Fill `out` with the attack pong this member answers a Ping/QueryProbe
  /// with. May exceed `pong_size` (pong-flood) or be empty (a lone colluder
  /// has nobody to advertise).
  virtual void make_pong_into(PeerId self, std::size_t pong_size,
                              sim::Time now, Rng& rng,
                              std::vector<CacheEntry>& out) const = 0;

 protected:
  const std::vector<PeerId>& addresses() const { return addresses_; }

 private:
  const std::vector<PeerId>& addresses_;
};

/// Rosters of hostile peers — §6.4's poisoners plus one cohort per
/// AttackKind, each in swap-remove order — with their behaviors, the
/// fabricated address pools and the poisoning toggle.
class AdversaryZoo {
 public:
  /// `poisoner_pong` picks what §6.4's poisoners put in their pongs.
  explicit AdversaryZoo(BadPongBehavior poisoner_pong);
  ~AdversaryZoo();

  AdversaryZoo(const AdversaryZoo&) = delete;
  AdversaryZoo& operator=(const AdversaryZoo&) = delete;

  /// Fabricated dead addresses (allocated by the network from its id space
  /// so they can never collide with real peers): the Dead poisoners' pool
  /// and the pong-flood pool.
  void set_dead_pool(std::vector<PeerId> pool);
  void set_flood_pool(std::vector<PeerId> pool);
  const std::vector<PeerId>& flood_pool() const { return flood_pool_; }

  const AdversaryBehavior& behavior(faults::AttackKind kind) const;

  /// Membership bookkeeping. An id belongs to at most one roster; add
  /// checks freshness, remove checks membership (GUESS_CHECK).
  void add(faults::AttackKind kind, PeerId id);
  void add_poisoner(PeerId id);
  void remove(PeerId id);
  bool contains(PeerId id) const { return index_.contains(id); }
  std::size_t size() const { return index_.size(); }

  /// Deployed members of `kind` / the poisoners, in swap-remove order.
  const std::vector<PeerId>& roster(faults::AttackKind kind) const;
  const std::vector<PeerId>& poisoners() const;

  /// `poison on|off`: while off, poisoners answer with their real caches
  /// and introduce themselves honestly. Cohorts ignore the toggle.
  void set_poisoning(bool active) { poisoning_ = active; }
  bool poisoning() const { return poisoning_; }

  /// The behavior `id` lies with right now, or nullptr: ids outside the
  /// zoo, and poisoners while poisoning is off.
  const AdversaryBehavior* behavior_of(PeerId id) const;

  /// True iff `id` is a deployed reply-withholding adversary.
  bool withholds(PeerId id) const;

 private:
  /// Roster slots: one per AttackKind, then the poisoners.
  static constexpr std::size_t kPoisonerSlot = faults::kNumAttackKinds;
  static constexpr std::size_t kNumRosters = kPoisonerSlot + 1;

  struct Membership {
    std::size_t slot;
    std::size_t pos;  ///< index into rosters_[slot]
  };

  void enroll(std::size_t slot, PeerId id);

  std::array<std::vector<PeerId>, kNumRosters> rosters_;
  std::vector<PeerId> dead_pool_;
  std::vector<PeerId> flood_pool_;
  std::array<std::unique_ptr<AdversaryBehavior>, kNumRosters> behaviors_;
  std::unordered_map<PeerId, Membership> index_;
  bool poisoning_ = true;
};

}  // namespace guess
