// The adversary zoo (DESIGN.md §11): roster bookkeeping, the shape of each
// behavior's attack pong, the network-level deploy/retire hooks behind
// `at T attack <kind> frac=F for D`, and end-to-end scenario runs for all
// four attacks — including the hardened-detection counters they trigger.
#include "guess/adversary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "faults/scenario.h"
#include "guess/network.h"
#include "search/backend.h"
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
    network.initialize();
  }
  sim::Simulator simulator;
  GuessNetwork network;
};

/// A config whose scenario is non-empty so the transport modulation hook
/// (severed / withholding) is installed; the engine itself is not scheduled,
/// letting tests drive the fault hooks directly.
SimulationConfig attack_ready(SystemParams system) {
  return SimulationConfig().system(system).scenario(
      faults::Scenario::parse("at 1e9 poison on"));
}

// --- zoo bookkeeping ------------------------------------------------------

TEST(AdversaryZoo, RosterAddRemoveSwapKeepsMembershipConsistent) {
  AdversaryZoo zoo{MaliciousParams{}};
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
  AdversaryZoo zoo{MaliciousParams{}};
  zoo.add(AttackKind::kWithhold, 7);
  zoo.add(AttackKind::kEclipse, 8);
  EXPECT_TRUE(zoo.withholds(7));
  EXPECT_FALSE(zoo.withholds(8));   // deployed, but a different behavior
  EXPECT_FALSE(zoo.withholds(99));  // not deployed at all
  zoo.remove(7);
  EXPECT_FALSE(zoo.withholds(7));
}

// --- behavior shapes ------------------------------------------------------

TEST(AdversaryBehavior, EclipseAdvertisesFellowColludersUnderTopClaims) {
  MaliciousParams params;
  AdversaryZoo zoo{params};
  const AdversaryBehavior& eclipse = zoo.behavior(AttackKind::kEclipse);
  EXPECT_EQ(eclipse.kind(), AttackKind::kEclipse);
  EXPECT_DOUBLE_EQ(eclipse.ping_interval_factor(),
                   1.0 / params.adversary.eclipse_ping_boost);
  EXPECT_FALSE(eclipse.withholds_replies());
  EXPECT_DOUBLE_EQ(eclipse.identity_lifetime(), 0.0);

  zoo.add(AttackKind::kEclipse, 10);
  Rng rng(5);
  std::vector<CacheEntry> pong;

  // A lone colluder has nobody to advertise.
  zoo.make_pong_into(10, 5, 100.0, rng, pong);
  EXPECT_TRUE(pong.empty());

  zoo.add(AttackKind::kEclipse, 11);
  zoo.add(AttackKind::kEclipse, 12);
  zoo.make_pong_into(10, 5, 100.0, rng, pong);
  ASSERT_EQ(pong.size(), 5u);
  for (const CacheEntry& entry : pong) {
    EXPECT_NE(entry.id, 10u);  // never names itself
    EXPECT_TRUE(entry.id == 11 || entry.id == 12);
    EXPECT_EQ(entry.num_files, params.claimed_num_files);
    EXPECT_EQ(entry.num_res, params.claimed_num_res);
    EXPECT_FALSE(entry.first_hand);  // foreign claims, floor-protectable
    EXPECT_DOUBLE_EQ(entry.ts, 100.0);
  }
}

TEST(AdversaryBehavior, SybilSharesColludingPongAndCarriesLifetime) {
  MaliciousParams params;
  params.adversary.sybil_lifetime = 45.0;
  AdversaryZoo zoo{params};
  const AdversaryBehavior& sybil = zoo.behavior(AttackKind::kSybil);
  EXPECT_DOUBLE_EQ(sybil.identity_lifetime(), 45.0);
  EXPECT_DOUBLE_EQ(sybil.ping_interval_factor(), 1.0);

  zoo.add(AttackKind::kSybil, 20);
  zoo.add(AttackKind::kSybil, 21);
  Rng rng(6);
  std::vector<CacheEntry> pong;
  zoo.make_pong_into(20, 3, 7.0, rng, pong);
  ASSERT_EQ(pong.size(), 3u);
  for (const CacheEntry& entry : pong) EXPECT_EQ(entry.id, 21u);
}

TEST(AdversaryBehavior, PongFloodOversizesFromTheFabricatedPool) {
  MaliciousParams params;
  params.adversary.pong_flood_factor = 4.0;
  AdversaryZoo zoo{params};
  zoo.add(AttackKind::kPongFlood, 30);
  Rng rng(8);
  std::vector<CacheEntry> pong;

  // No pool yet: nothing to fabricate from.
  zoo.make_pong_into(30, 5, 1.0, rng, pong);
  EXPECT_TRUE(pong.empty());

  zoo.set_flood_pool({1000, 1001, 1002});
  zoo.make_pong_into(30, 5, 1.0, rng, pong);
  ASSERT_EQ(pong.size(), 20u);  // 4x PongSize
  for (const CacheEntry& entry : pong) {
    EXPECT_GE(entry.id, 1000u);
    EXPECT_LE(entry.id, 1002u);
    EXPECT_EQ(entry.num_files, params.claimed_num_files);
    EXPECT_FALSE(entry.first_hand);
  }
}

TEST(AdversaryBehavior, WithholdSwallowsRepliesAndBuildsNoPong) {
  AdversaryZoo zoo{MaliciousParams{}};
  const AdversaryBehavior& withhold = zoo.behavior(AttackKind::kWithhold);
  EXPECT_TRUE(withhold.withholds_replies());
  zoo.add(AttackKind::kWithhold, 40);
  Rng rng(9);
  std::vector<CacheEntry> pong = {CacheEntry{1, 0.0, 1, 1}};
  zoo.make_pong_into(40, 5, 1.0, rng, pong);
  EXPECT_TRUE(pong.empty());
}

// --- network deploy/retire hooks ------------------------------------------

TEST(NetworkAttack, StartDeploysCohortAndStopRetiresIt) {
  Fixture f(attack_ready(small_system(100)));
  f.simulator.run_until(50.0);
  ASSERT_EQ(f.network.alive_count(), 100u);

  f.network.fault_start_attack(AttackKind::kEclipse, 0.05);
  EXPECT_EQ(f.network.alive_count(), 105u);  // cohort joins the population
  EXPECT_EQ(f.network.adversary_zoo().size(), 5u);
  EXPECT_EQ(f.network.attack_stats().adversaries_spawned, 5u);
  for (PeerId id : f.network.adversary_zoo().roster(AttackKind::kEclipse)) {
    EXPECT_TRUE(f.network.is_adversary(id));
    EXPECT_TRUE(f.network.is_malicious(id));
    const Peer* peer = f.network.find(id);
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->num_files(), 0u);  // shares nothing
    // Eclipse members ping eclipse_ping_boost times faster.
    EXPECT_DOUBLE_EQ(peer->ping_interval(),
                     f.network.protocol().ping_interval /
                         SimulationConfig().malicious().adversary
                             .eclipse_ping_boost);
    // Friend-seeded so the cohort can reach victims immediately.
    EXPECT_GT(peer->cache().size(), 0u);
  }

  std::vector<PeerId> cohort =
      f.network.adversary_zoo().roster(AttackKind::kEclipse);
  f.network.fault_stop_attack(AttackKind::kEclipse);
  EXPECT_EQ(f.network.alive_count(), 100u);
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
  SystemParams system = small_system(100);
  MaliciousParams malicious;
  malicious.adversary.sybil_lifetime = 20.0;
  Fixture f(attack_ready(system).malicious(malicious));
  f.simulator.run_until(10.0);
  f.network.fault_start_attack(AttackKind::kSybil, 0.05);
  std::vector<PeerId> first_wave =
      f.network.adversary_zoo().roster(AttackKind::kSybil);
  ASSERT_EQ(first_wave.size(), 5u);

  // Several lifetimes later every original identity has been recycled at
  // least once, but the cohort size is invariant.
  f.simulator.run_until(100.0);
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
  // flood_pool_factor (4.0) x NetworkSize fabricated addresses.
  ASSERT_EQ(pool.size(), 400u);
  for (PeerId id : pool) EXPECT_FALSE(f.network.alive(id));

  // A second onset reuses the pool instead of leaking a new block.
  f.network.fault_stop_attack(AttackKind::kPongFlood);
  f.network.fault_start_attack(AttackKind::kPongFlood, 0.02);
  EXPECT_EQ(f.network.adversary_zoo().flood_pool().size(), 400u);
}

// A mass kill while a cohort is deployed must retire the victims cleanly —
// adversaries are not churn-registered, so the deschedule path sees unknown
// ids, and the zoo rosters must shrink with the kills.
TEST(NetworkAttack, MassKillDuringAttackRetiresAdversariesCleanly) {
  Fixture f(attack_ready(small_system(100)));
  f.simulator.run_until(20.0);
  f.network.fault_start_attack(AttackKind::kEclipse, 0.1);
  ASSERT_EQ(f.network.alive_count(), 110u);
  f.network.fault_mass_kill(1.0);
  EXPECT_EQ(f.network.alive_count(), 0u);
  EXPECT_EQ(f.network.adversary_zoo().size(), 0u);
  // Stopping the (already dead) cohort is a no-op, and the run continues.
  f.network.fault_stop_attack(AttackKind::kEclipse);
  f.simulator.run_until(200.0);
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

}  // namespace
}  // namespace guess
