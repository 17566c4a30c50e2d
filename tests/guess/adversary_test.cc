// The adversary zoo (DESIGN.md §11): roster bookkeeping, the shape of each
// behavior's attack pong, §6.4's poisoners and their `poison on|off`
// toggle, the network-level deploy/retire hooks behind
// `at T attack <kind> frac=F for D`, end-to-end scenario runs for all four
// attacks — including the hardened-detection counters they trigger — and
// golden poisoned runs.
#include "guess/adversary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "experiments/harness.h"
#include "faults/scenario.h"
#include "search/backend.h"
#include "search/guess.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

using faults::AttackKind;

SystemParams small_system(std::size_t n = 100) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return system;
}

struct Fixture {
  explicit Fixture(SimulationConfig config, std::uint64_t seed = 7)
      : network(config, simulator, Rng(seed)) {
    network.bootstrap();
  }
  sim::Simulator simulator;
  search::GuessBackend network;
};

/// A config whose scenario is non-empty so the transport modulation hook
/// (severed / withholding) is installed; the engine itself is not scheduled,
/// letting tests drive the fault hooks directly.
SimulationConfig attack_ready(SystemParams system) {
  return SimulationConfig().system(system).scenario(
      faults::Scenario::parse("at 1e9 poison on"));
}

/// The pong `id` answers a Ping/QueryProbe with right now, through the
/// zoo's lookup (the network's dispatch); `id` must be lying.
std::vector<CacheEntry> pong_of(const AdversaryZoo& zoo, PeerId id,
                                std::size_t pong_size, sim::Time now,
                                Rng& rng) {
  std::vector<CacheEntry> pong;
  const AdversaryBehavior* liar = zoo.behavior_of(id);
  EXPECT_NE(liar, nullptr) << "peer " << id << " is not lying";
  if (liar != nullptr) liar->make_pong_into(id, pong_size, now, rng, pong);
  return pong;
}

// --- zoo bookkeeping ------------------------------------------------------

TEST(AdversaryZoo, RosterAddRemoveSwapKeepsMembershipConsistent) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_FALSE(zoo.contains(1));
  EXPECT_EQ(zoo.behavior_of(1), nullptr);

  zoo.add(AttackKind::kEclipse, 1);
  zoo.add(AttackKind::kEclipse, 2);
  zoo.add(AttackKind::kEclipse, 3);
  zoo.add(AttackKind::kWithhold, 4);
  EXPECT_EQ(zoo.size(), 4u);
  EXPECT_EQ(zoo.roster(AttackKind::kEclipse).size(), 3u);
  EXPECT_EQ(zoo.roster(AttackKind::kWithhold).size(), 1u);
  EXPECT_TRUE(zoo.roster(AttackKind::kSybil).empty());

  // Swap-remove from the middle: the roster stays dense and membership
  // lookups keep working for the swapped-in member.
  zoo.remove(1);
  EXPECT_FALSE(zoo.contains(1));
  EXPECT_TRUE(zoo.contains(3));
  const std::vector<PeerId>& roster = zoo.roster(AttackKind::kEclipse);
  EXPECT_EQ(roster.size(), 2u);
  EXPECT_NE(std::find(roster.begin(), roster.end(), 3), roster.end());
  zoo.remove(3);
  zoo.remove(2);
  EXPECT_TRUE(zoo.roster(AttackKind::kEclipse).empty());
  EXPECT_EQ(zoo.size(), 1u);

  // Double-add and unknown-remove are contract violations.
  EXPECT_THROW(zoo.add(AttackKind::kSybil, 4), CheckError);
  EXPECT_THROW(zoo.remove(99), CheckError);
}

TEST(AdversaryZoo, WithholdsOnlyForDeployedWithholders) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  zoo.add(AttackKind::kWithhold, 7);
  zoo.add(AttackKind::kEclipse, 8);
  zoo.add_poisoner(9);
  EXPECT_TRUE(zoo.withholds(7));
  EXPECT_FALSE(zoo.withholds(8));   // deployed, but a different behavior
  EXPECT_FALSE(zoo.withholds(9));   // poisoners answer
  EXPECT_FALSE(zoo.withholds(99));  // not deployed at all
  zoo.remove(7);
  EXPECT_FALSE(zoo.withholds(7));
}

TEST(AdversaryZoo, PoisoningToggleSilencesOnlyPoisoners) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  zoo.add_poisoner(1);
  zoo.add(AttackKind::kEclipse, 2);
  EXPECT_TRUE(zoo.poisoning());
  const AdversaryBehavior* poisoner = zoo.behavior_of(1);
  ASSERT_NE(poisoner, nullptr);
  EXPECT_EQ(zoo.behavior_of(2), &zoo.behavior(AttackKind::kEclipse));

  zoo.set_poisoning(false);
  EXPECT_FALSE(zoo.poisoning());
  EXPECT_EQ(zoo.behavior_of(1), nullptr);  // silenced, still a member
  EXPECT_TRUE(zoo.contains(1));
  EXPECT_EQ(zoo.behavior_of(2), &zoo.behavior(AttackKind::kEclipse));

  zoo.set_poisoning(true);
  EXPECT_EQ(zoo.behavior_of(1), poisoner);
}

// --- behavior shapes ------------------------------------------------------

TEST(AdversaryBehavior, EclipseAdvertisesFellowColludersUnderTopClaims) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  const AdversaryBehavior& eclipse = zoo.behavior(AttackKind::kEclipse);
  EXPECT_DOUBLE_EQ(eclipse.ping_interval_factor(), 1.0 / kCohortPingBoost);
  EXPECT_FALSE(eclipse.withholds_replies());
  EXPECT_DOUBLE_EQ(eclipse.identity_lifetime(), 0.0);

  zoo.add(AttackKind::kEclipse, 10);
  Rng rng(5);

  // A lone colluder has nobody to advertise.
  EXPECT_TRUE(pong_of(zoo, 10, 5, 100.0, rng).empty());

  zoo.add(AttackKind::kEclipse, 11);
  zoo.add(AttackKind::kEclipse, 12);
  zoo.add_poisoner(13);  // another roster: never named by eclipse pongs
  std::vector<CacheEntry> pong = pong_of(zoo, 10, 5, 100.0, rng);
  ASSERT_EQ(pong.size(), 5u);
  for (const CacheEntry& entry : pong) {
    EXPECT_NE(entry.id, 10u);  // never names itself
    EXPECT_TRUE(entry.id == 11 || entry.id == 12);
    EXPECT_EQ(entry.num_files, kClaimedNumFiles);
    EXPECT_EQ(entry.num_res, kClaimedNumRes);
    EXPECT_FALSE(entry.first_hand);  // foreign claims, floor-protectable
    EXPECT_DOUBLE_EQ(entry.ts, 100.0);
  }
}

TEST(AdversaryBehavior, SybilSharesColludingPongAndCarriesLifetime) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  const AdversaryBehavior& sybil = zoo.behavior(AttackKind::kSybil);
  EXPECT_DOUBLE_EQ(sybil.identity_lifetime(), kSybilLifetime);
  EXPECT_DOUBLE_EQ(sybil.ping_interval_factor(), 1.0);

  zoo.add(AttackKind::kSybil, 20);
  zoo.add(AttackKind::kSybil, 21);
  Rng rng(6);
  std::vector<CacheEntry> pong = pong_of(zoo, 20, 3, 7.0, rng);
  ASSERT_EQ(pong.size(), 3u);
  for (const CacheEntry& entry : pong) EXPECT_EQ(entry.id, 21u);
}

TEST(AdversaryBehavior, PongFloodOversizesFromTheFabricatedPool) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  EXPECT_DOUBLE_EQ(
      zoo.behavior(AttackKind::kPongFlood).ping_interval_factor(),
      1.0 / kCohortPingBoost);
  zoo.add(AttackKind::kPongFlood, 30);
  Rng rng(8);

  // No pool yet: nothing to fabricate from.
  EXPECT_TRUE(pong_of(zoo, 30, 5, 1.0, rng).empty());

  zoo.set_flood_pool({1000, 1001, 1002});
  zoo.set_dead_pool({2000});  // the poisoners' pool is not the flood pool
  std::vector<CacheEntry> pong = pong_of(zoo, 30, 5, 1.0, rng);
  ASSERT_EQ(pong.size(), kPongFloodFactor * 5);
  for (const CacheEntry& entry : pong) {
    EXPECT_GE(entry.id, 1000u);
    EXPECT_LE(entry.id, 1002u);
    EXPECT_EQ(entry.num_files, kClaimedNumFiles);
    EXPECT_FALSE(entry.first_hand);
  }
}

TEST(AdversaryBehavior, WithholdSwallowsRepliesAndBuildsNoPong) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  const AdversaryBehavior& withhold = zoo.behavior(AttackKind::kWithhold);
  EXPECT_TRUE(withhold.withholds_replies());
  Rng rng(9);
  std::vector<CacheEntry> pong = {CacheEntry{1, 0.0, 1, 1}};
  withhold.make_pong_into(40, 5, 1.0, rng, pong);
  EXPECT_TRUE(pong.empty());
}

// Cohorts claim NumFiles and NumRes when they introduce themselves; §6.4's
// poisoners claim NumFiles only.
TEST(AdversaryBehavior, IntroductionsClaimNumResForCohortsOnly) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  for (AttackKind kind : {AttackKind::kEclipse, AttackKind::kSybil,
                          AttackKind::kPongFlood, AttackKind::kWithhold}) {
    CacheEntry intro = zoo.behavior(kind).introduction(3, 12.0);
    EXPECT_EQ(intro.id, 3u);
    EXPECT_DOUBLE_EQ(intro.ts, 12.0);
    EXPECT_EQ(intro.num_files, kClaimedNumFiles);
    EXPECT_EQ(intro.num_res, kClaimedNumRes);
    EXPECT_FALSE(intro.first_hand);
  }
  zoo.add_poisoner(4);
  CacheEntry intro = zoo.behavior_of(4)->introduction(4, 12.0);
  EXPECT_EQ(intro.num_files, kClaimedNumFiles);
  EXPECT_EQ(intro.num_res, 0u);
  EXPECT_FALSE(intro.first_hand);
}

// --- §6.4's poisoners -----------------------------------------------------

TEST(Poison, DeadBehaviorDrawsFromPool) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  zoo.set_dead_pool({100, 101, 102});
  zoo.add_poisoner(1);
  Rng rng(1);
  std::vector<CacheEntry> pong = pong_of(zoo, 1, 5, 42.0, rng);
  ASSERT_EQ(pong.size(), 5u);
  for (const CacheEntry& e : pong) {
    EXPECT_GE(e.id, 100u);
    EXPECT_LE(e.id, 102u);
    EXPECT_DOUBLE_EQ(e.ts, 42.0);
    EXPECT_EQ(e.num_files, 5000u);
    EXPECT_EQ(e.num_res, 20u);
  }
}

TEST(Poison, DeadBehaviorWithoutPoolIsEmpty) {
  AdversaryZoo zoo{BadPongBehavior::kDead};
  zoo.add_poisoner(1);
  Rng rng(1);
  EXPECT_TRUE(pong_of(zoo, 1, 5, 0.0, rng).empty());
}

TEST(Poison, CollusionNamesOtherAttackers) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  zoo.add_poisoner(1);
  zoo.add_poisoner(2);
  zoo.add_poisoner(3);
  Rng rng(1);
  for (int round = 0; round < 50; ++round) {
    std::vector<CacheEntry> pong = pong_of(zoo, 1, 5, 0.0, rng);
    ASSERT_EQ(pong.size(), 5u);
    for (const CacheEntry& e : pong) {
      EXPECT_NE(e.id, 1u);  // never advertises itself
      EXPECT_TRUE(e.id == 2 || e.id == 3);
      EXPECT_EQ(e.num_files, 5000u);
    }
  }
}

TEST(Poison, LoneColluderHasNothingToSay) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  zoo.add_poisoner(1);
  zoo.add(AttackKind::kEclipse, 2);  // a cohort is no fellow poisoner
  Rng rng(1);
  EXPECT_TRUE(pong_of(zoo, 1, 5, 0.0, rng).empty());
}

TEST(Poison, BadPeerSetMaintainedThroughChurn) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  zoo.add_poisoner(1);
  zoo.add_poisoner(2);
  zoo.add_poisoner(3);
  zoo.add(AttackKind::kSybil, 5);
  EXPECT_EQ(zoo.poisoners().size(), 3u);
  zoo.remove(2);
  EXPECT_EQ(zoo.poisoners().size(), 2u);
  zoo.add_poisoner(4);
  Rng rng(1);
  std::set<PeerId> advertised;
  for (int round = 0; round < 100; ++round) {
    for (const CacheEntry& e : pong_of(zoo, 1, 5, 0.0, rng)) {
      advertised.insert(e.id);
    }
  }
  EXPECT_EQ(advertised, (std::set<PeerId>{3, 4}));
}

// Model-based churn fuzz of the swap-remove bookkeeping: add/remove in
// random interleavings across the poisoner roster and two cohort rosters
// must keep every roster an exact (unordered) mirror of its reference set,
// with no duplicates and no stale survivors. A bug in the index maintenance
// (e.g. not re-indexing the swapped-in tail element) shows up as a removal
// deleting the wrong peer.
TEST(Poison, SwapRemoveBookkeepingConsistentUnderChurnInterleavings) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  Rng rng(12345);
  // Roster 0 = poisoners, 1 = eclipse, 2 = sybil.
  std::array<std::set<PeerId>, 3> reference;
  std::map<PeerId, std::size_t> roster_of;
  auto tracked = [&](std::size_t roster) -> const std::vector<PeerId>& {
    if (roster == 0) return zoo.poisoners();
    return zoo.roster(roster == 1 ? AttackKind::kEclipse : AttackKind::kSybil);
  };
  PeerId next_id = 0;

  for (int step = 0; step < 5000; ++step) {
    // Bias toward adds while small, removes while large, so the rosters
    // keep crossing the interesting sizes (empty, one, many).
    bool add = roster_of.empty() ||
               rng.bernoulli(roster_of.size() < 30 ? 0.7 : 0.3);
    if (add) {
      PeerId id = next_id++;
      std::size_t roster = rng.index(3);
      if (roster == 0) {
        zoo.add_poisoner(id);
      } else {
        zoo.add(roster == 1 ? AttackKind::kEclipse : AttackKind::kSybil, id);
      }
      reference[roster].insert(id);
      roster_of[id] = roster;
    } else {
      // Remove a uniformly random current member — tail, head, middle.
      auto it = roster_of.begin();
      std::advance(it, static_cast<long>(rng.index(roster_of.size())));
      zoo.remove(it->first);
      reference[it->second].erase(it->first);
      roster_of.erase(it);
    }
    ASSERT_EQ(zoo.size(), roster_of.size());
    for (std::size_t roster = 0; roster < 3; ++roster) {
      const std::vector<PeerId>& members = tracked(roster);
      std::set<PeerId> mirror(members.begin(), members.end());
      ASSERT_EQ(mirror.size(), members.size());  // no duplicates
      ASSERT_EQ(mirror, reference[roster]);
    }
  }

  // After all that churn the poisoners still collude correctly: pongs only
  // ever name current poisoners.
  while (reference[0].size() < 2) {
    zoo.add_poisoner(next_id);
    reference[0].insert(next_id++);
  }
  PeerId self = *reference[0].begin();
  for (int round = 0; round < 50; ++round) {
    for (const CacheEntry& e : pong_of(zoo, self, 5, 0.0, rng)) {
      EXPECT_TRUE(reference[0].contains(e.id));
      EXPECT_NE(e.id, self);
    }
  }
}

TEST(Poison, DoubleAddOrBadRemoveThrows) {
  AdversaryZoo zoo{BadPongBehavior::kBad};
  zoo.add_poisoner(1);
  EXPECT_THROW(zoo.add_poisoner(1), CheckError);
  EXPECT_THROW(zoo.add(AttackKind::kEclipse, 1), CheckError);
  EXPECT_THROW(zoo.remove(9), CheckError);
}

// --- network deploy/retire hooks ------------------------------------------

TEST(NetworkAttack, StartDeploysCohortAndStopRetiresIt) {
  Fixture f(attack_ready(small_system(100)));
  f.simulator.run_until(50.0);
  ASSERT_EQ(f.network.live_peers(), 100u);

  f.network.fault_start_attack(AttackKind::kEclipse, 0.05);
  EXPECT_EQ(f.network.live_peers(), 105u);  // cohort joins the population
  EXPECT_EQ(f.network.adversary_zoo().size(), 5u);
  EXPECT_EQ(f.network.attack_stats().adversaries_spawned, 5u);
  for (PeerId id : f.network.adversary_zoo().roster(AttackKind::kEclipse)) {
    EXPECT_TRUE(f.network.is_adversary(id));
    EXPECT_TRUE(f.network.is_malicious(id));
    const Peer* peer = f.network.find(id);
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->num_files(), 0u);  // shares nothing
    // Eclipse members ping kCohortPingBoost times faster.
    EXPECT_DOUBLE_EQ(peer->ping_interval(),
                     f.network.protocol().ping_interval / kCohortPingBoost);
    // Friend-seeded so the cohort can reach victims immediately.
    EXPECT_GT(peer->cache().size(), 0u);
  }

  std::vector<PeerId> cohort =
      f.network.adversary_zoo().roster(AttackKind::kEclipse);
  f.network.fault_stop_attack(AttackKind::kEclipse);
  EXPECT_EQ(f.network.live_peers(), 100u);
  EXPECT_EQ(f.network.adversary_zoo().size(), 0u);
  EXPECT_EQ(f.network.attack_stats().adversaries_retired, 5u);
  for (PeerId id : cohort) {
    EXPECT_FALSE(f.network.alive(id));
    EXPECT_FALSE(f.network.is_adversary(id));
  }
  // The retired cohort stays retired — nothing respawns it.
  f.simulator.run_until(400.0);
  EXPECT_EQ(f.network.adversary_zoo().size(), 0u);
}

TEST(NetworkAttack, CohortIsAtLeastOneEvenForTinyFractions) {
  Fixture f(attack_ready(small_system(50)));
  f.network.fault_start_attack(AttackKind::kWithhold, 0.001);
  EXPECT_EQ(f.network.adversary_zoo().size(), 1u);
  f.network.fault_stop_attack(AttackKind::kWithhold);
}

TEST(NetworkAttack, RestartingAnActiveCohortIsAContractViolation) {
  Fixture f(attack_ready(small_system(50)));
  f.network.fault_start_attack(AttackKind::kEclipse, 0.1);
  EXPECT_THROW(f.network.fault_start_attack(AttackKind::kEclipse, 0.1),
               CheckError);
  // A different kind may overlap freely (combined attacks).
  EXPECT_NO_THROW(f.network.fault_start_attack(AttackKind::kWithhold, 0.1));
}

TEST(NetworkAttack, WithholderSeversInboundButNotOutboundExchanges) {
  Fixture f(attack_ready(small_system(100)));
  f.network.fault_start_attack(AttackKind::kWithhold, 0.03);
  std::vector<PeerId> cohort =
      f.network.adversary_zoo().roster(AttackKind::kWithhold);
  ASSERT_EQ(cohort.size(), 3u);
  PeerId honest = f.network.alive_ids()[0];
  ASSERT_FALSE(f.network.is_adversary(honest));
  const std::uint64_t before = f.network.attack_stats().withheld_exchanges;
  EXPECT_TRUE(f.network.severed(honest, cohort[0]));
  EXPECT_FALSE(f.network.severed(cohort[0], honest));
  EXPECT_EQ(f.network.attack_stats().withheld_exchanges, before + 1);
  f.network.fault_stop_attack(AttackKind::kWithhold);
  EXPECT_FALSE(f.network.severed(honest, cohort[0]));
}

TEST(NetworkAttack, SybilIdentitiesExpireRespawnAndTombstone) {
  Fixture f(attack_ready(small_system(100)));
  f.simulator.run_until(10.0);
  f.network.fault_start_attack(AttackKind::kSybil, 0.05);
  std::vector<PeerId> first_wave =
      f.network.adversary_zoo().roster(AttackKind::kSybil);
  ASSERT_EQ(first_wave.size(), 5u);

  // Several lifetimes (kSybilLifetime) later every original identity has
  // been recycled at least once, but the cohort size is invariant.
  f.simulator.run_until(10.0 + 3 * kSybilLifetime);
  EXPECT_EQ(f.network.adversary_zoo().size(), 5u);
  EXPECT_GE(f.network.attack_stats().sybil_respawns, 5u);
  EXPECT_EQ(f.network.attack_stats().adversaries_spawned,
            5u + f.network.attack_stats().sybil_respawns);
  for (PeerId id : first_wave) {
    EXPECT_FALSE(f.network.alive(id));       // retired...
    EXPECT_EQ(f.network.find(id), nullptr);  // ...and the id is tombstoned
    EXPECT_FALSE(f.network.is_adversary(id));
  }

  // Stopping the attack also stops the respawn loop.
  f.network.fault_stop_attack(AttackKind::kSybil);
  const std::uint64_t spawned = f.network.attack_stats().adversaries_spawned;
  f.simulator.run_until(300.0);
  EXPECT_EQ(f.network.adversary_zoo().size(), 0u);
  EXPECT_EQ(f.network.attack_stats().adversaries_spawned, spawned);
}

TEST(NetworkAttack, FloodPoolAllocatedAtFirstOnsetAndNeverAlive) {
  Fixture f(attack_ready(small_system(100)));
  EXPECT_TRUE(f.network.adversary_zoo().flood_pool().empty());
  f.network.fault_start_attack(AttackKind::kPongFlood, 0.02);
  const std::vector<PeerId>& pool = f.network.adversary_zoo().flood_pool();
  // kFloodPoolFactor x NetworkSize fabricated addresses.
  ASSERT_EQ(pool.size(), kFloodPoolFactor * 100);
  for (PeerId id : pool) EXPECT_FALSE(f.network.alive(id));

  // A second onset reuses the pool instead of leaking a new block.
  f.network.fault_stop_attack(AttackKind::kPongFlood);
  f.network.fault_start_attack(AttackKind::kPongFlood, 0.02);
  EXPECT_EQ(f.network.adversary_zoo().flood_pool().size(),
            kFloodPoolFactor * 100);
}

// A mass kill while a cohort is deployed must retire the victims cleanly —
// adversaries are not churn-registered, so the deschedule path sees unknown
// ids, and the zoo rosters must shrink with the kills.
TEST(NetworkAttack, MassKillDuringAttackRetiresAdversariesCleanly) {
  Fixture f(attack_ready(small_system(100)));
  f.simulator.run_until(20.0);
  f.network.fault_start_attack(AttackKind::kEclipse, 0.1);
  ASSERT_EQ(f.network.live_peers(), 110u);
  f.network.fault_mass_kill(1.0);
  EXPECT_EQ(f.network.live_peers(), 0u);
  EXPECT_EQ(f.network.adversary_zoo().size(), 0u);
  // Stopping the (already dead) cohort is a no-op, and the run continues.
  f.network.fault_stop_attack(AttackKind::kEclipse);
  f.simulator.run_until(200.0);
}

// §6.4's poisoners are one more zoo roster: they share the zoo with a
// cohort, only they answer to `poison off`, and a mass kill empties both.
TEST(NetworkAttack, PoisonersAndCohortShareTheZoo) {
  SystemParams system = small_system(100);
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  Fixture f(attack_ready(system));
  f.simulator.run_until(50.0);
  const AdversaryZoo& zoo = f.network.adversary_zoo();
  ASSERT_EQ(zoo.poisoners().size(), 10u);  // churn replaces them 1:1
  f.network.fault_start_attack(AttackKind::kEclipse, 0.05);
  ASSERT_EQ(zoo.roster(AttackKind::kEclipse).size(), 5u);
  EXPECT_EQ(zoo.size(), 15u);

  PeerId poisoner = zoo.poisoners()[0];
  PeerId member = zoo.roster(AttackKind::kEclipse)[0];
  EXPECT_TRUE(f.network.is_adversary(poisoner));
  using Claims = std::pair<std::uint32_t, std::uint32_t>;
  auto claims = [&](PeerId id) {
    CacheEntry intro = f.network.introduction_entry(*f.network.find(id));
    return Claims{intro.num_files, intro.num_res};
  };
  EXPECT_EQ(claims(poisoner), Claims(kClaimedNumFiles, 0));
  EXPECT_EQ(claims(member), Claims(kClaimedNumFiles, kClaimedNumRes));

  f.network.fault_set_poisoning(false);
  EXPECT_FALSE(f.network.poisoning_active());
  EXPECT_EQ(zoo.behavior_of(poisoner), nullptr);
  EXPECT_NE(zoo.behavior_of(member), nullptr);
  EXPECT_EQ(claims(poisoner), Claims(0, 0));  // honest: it shares nothing
  EXPECT_EQ(claims(member), Claims(kClaimedNumFiles, kClaimedNumRes));
  f.network.fault_set_poisoning(true);
  EXPECT_EQ(claims(poisoner), Claims(kClaimedNumFiles, 0));

  f.network.fault_mass_kill(1.0);
  EXPECT_TRUE(zoo.poisoners().empty());
  EXPECT_TRUE(zoo.roster(AttackKind::kEclipse).empty());
  EXPECT_EQ(zoo.size(), 0u);
}

// --- end-to-end scenario runs ---------------------------------------------

SimulationResults run_attack(const char* spec, DetectionParams detection,
                             std::uint64_t seed = 31) {
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.detection = detection;
  auto config = SimulationConfig()
                    .system(small_system(150))
                    .protocol(protocol)
                    .scenario(faults::Scenario::parse(spec))
                    .metrics_interval(50.0)
                    .seed(seed)
                    .warmup(100.0)
                    .measure(400.0);
  return testsupport::guess_results(search::run_search(config));
}

TEST(AttackEndToEnd, EclipseCohortDeploysAndRetiresThroughTheGrammar) {
  SimulationResults results =
      run_attack("at 200 attack eclipse frac=0.05 for 150", DetectionParams{});
  EXPECT_EQ(results.attack.adversaries_spawned, 7u);  // floor(0.05 * 150)
  EXPECT_EQ(results.attack.adversaries_retired,
            results.attack.adversaries_spawned);
  EXPECT_EQ(results.attack.sybil_respawns, 0u);
  EXPECT_GT(results.queries_satisfied, 0u);
}

TEST(AttackEndToEnd, SybilFlashCrowdRecyclesIdentities) {
  SimulationResults results =
      run_attack("at 200 attack sybil frac=0.05 for 150", DetectionParams{});
  EXPECT_GT(results.attack.sybil_respawns, 0u);
  EXPECT_EQ(results.attack.adversaries_retired,
            results.attack.adversaries_spawned);
  EXPECT_GT(results.queries_satisfied, 0u);
}

TEST(AttackEndToEnd, PongFloodTriggersOversizeDefenseWhenHardened) {
  const char* spec = "at 200 attack pong-flood frac=0.05 for 150";
  SimulationResults open = run_attack(spec, DetectionParams{});
  EXPECT_EQ(open.attack.oversized_pongs, 0u);  // nothing is watching

  SimulationResults hardened = run_attack(spec, DetectionParams::hardened());
  EXPECT_GT(hardened.attack.oversized_pongs, 0u);
  EXPECT_GT(hardened.attack.pong_entries_dropped, 0u);
  EXPECT_GT(hardened.queries_satisfied, 0u);
}

TEST(AttackEndToEnd, WithholdBurnsTimeoutsAndHardenedChargesThem) {
  const char* spec = "at 200 attack withhold frac=0.1 for 150";
  SimulationResults open = run_attack(spec, DetectionParams{});
  EXPECT_GT(open.attack.withheld_exchanges, 0u);
  EXPECT_EQ(open.attack.no_reply_charges, 0u);

  SimulationResults hardened = run_attack(spec, DetectionParams::hardened());
  EXPECT_GT(hardened.attack.no_reply_charges, 0u);
  EXPECT_GT(hardened.queries_satisfied, 0u);
}

// Attack counters land in the results snapshot (not just the live network),
// and a scenario with no attacks keeps them all zero.
TEST(AttackEndToEnd, NoAttackScenarioLeavesCountersZero) {
  SimulationResults results =
      run_attack("at 1000 poison on", DetectionParams{});
  EXPECT_EQ(results.attack.adversaries_spawned, 0u);
  EXPECT_EQ(results.attack.adversaries_retired, 0u);
  EXPECT_EQ(results.attack.withheld_exchanges, 0u);
  EXPECT_EQ(results.attack.oversized_pongs, 0u);
  EXPECT_EQ(results.attack.no_reply_charges, 0u);
}

// --- §6.4 poisoning goldens -----------------------------------------------
//
// Four poisoned runs pinned to golden values: the headline counters exactly,
// plus a 64-bit digest over every field testsupport::expect_identical
// compares. Together they cover both poisoner pongs, the `poison off|on`
// toggle and its honest introductions, and poisoners sharing the network
// with every attack cohort, under both event-queue schedulers.

class PoisonGoldenTest : public ::testing::TestWithParam<sim::Scheduler> {};

SimulationConfig poisoned(double percent_bad, BadPongBehavior behavior,
                          const char* combo, std::uint64_t seed,
                          sim::Scheduler scheduler) {
  SystemParams system = small_system(150);
  system.percent_bad_peers = percent_bad;
  system.bad_pong_behavior = behavior;
  return SimulationConfig()
      .system(system)
      .protocol(experiments::PolicyCombo::from_name(combo).apply(
          ProtocolParams{}))
      .seed(seed)
      .warmup(200.0)
      .measure(400.0)
      .scheduler(scheduler);
}

struct Golden {
  std::uint64_t completed;
  std::uint64_t satisfied;
  std::uint64_t good;
  std::uint64_t dead;
  std::uint64_t pings_to_dead;
  std::uint64_t digest;
  std::uint64_t unified_digest;
};

void expect_golden(const SimulationConfig& config, const Golden& golden) {
  search::SearchResults run = search::run_search(config);
  SimulationResults results = testsupport::guess_results(run);
  EXPECT_EQ(results.queries_completed, golden.completed);
  EXPECT_EQ(results.queries_satisfied, golden.satisfied);
  EXPECT_EQ(results.probes.good, golden.good);
  EXPECT_EQ(results.probes.dead, golden.dead);
  EXPECT_EQ(results.pings_to_dead, golden.pings_to_dead);
  EXPECT_EQ(testsupport::digest(results), golden.digest)
      << std::hex << "0x" << testsupport::digest(results);
  EXPECT_EQ(testsupport::digest(run), golden.unified_digest)
      << std::hex << "0x" << testsupport::digest(run);
}

TEST_P(PoisonGoldenTest, DeadPoisonersUnderMfs) {
  expect_golden(
      poisoned(20.0, BadPongBehavior::kDead, "MFS", 5, GetParam()),
      {430, 277, 6696, 30393, 884, 0x75bb37077c401cddull,
       0x1958541f17c3e507ull});
}

TEST_P(PoisonGoldenTest, ColludersToggledOffAndOnUnderMr) {
  expect_golden(
      poisoned(10.0, BadPongBehavior::kBad, "MR", 7, GetParam())
          .scenario(faults::Scenario::parse(
              "at 250 poison off; at 400 poison on")),
      {493, 465, 7004, 3041, 386, 0xf017089537c6e427ull,
       0x2c8623408b338e0dull});
}

TEST_P(PoisonGoldenTest, ColludersBesideEclipseAndPongFloodCohorts) {
  ProtocolParams protocol =
      experiments::PolicyCombo::from_name("MR").apply(ProtocolParams{});
  protocol.detection = DetectionParams::hardened();
  protocol.pong_server_reseed = true;
  expect_golden(
      poisoned(10.0, BadPongBehavior::kBad, "MR", 9, GetParam())
          .protocol(protocol)
          .transport(TransportParams::lossy(0.05))
          .metrics_interval(50.0)
          .scenario(faults::Scenario::parse(
              "at 250 attack eclipse frac=0.05 for 150; "
              "at 300 attack pong-flood frac=0.05 for 100; "
              "at 320 kill 0.2; at 350 poison off; at 420 poison on; "
              "at 450 join 20")),
      {443, 415, 6537, 2983, 835, 0xfbeb6b1a50d2f94full,
       0x4f203f870f3c7fa2ull});
}

TEST_P(PoisonGoldenTest, DeadPoisonersBesideSybilAndWithholdCohorts) {
  expect_golden(
      poisoned(15.0, BadPongBehavior::kDead, "Ran", 11, GetParam())
          .scenario(faults::Scenario::parse(
              "at 250 attack sybil frac=0.05 for 150; "
              "at 260 attack withhold frac=0.05 for 100")),
      {460, 438, 6608, 10399, 866, 0x65c6ab97d05f2e8aull,
       0x6fcf99b57e75097aull});
}

INSTANTIATE_TEST_SUITE_P(Schedulers, PoisonGoldenTest,
                         ::testing::Values(sim::Scheduler::kHeap,
                                           sim::Scheduler::kCalendar),
                         [](const auto& info) {
                           return sim::scheduler_name(info.param);
                         });

}  // namespace
}  // namespace guess
