// Tests for the protocol extensions grounded in the paper's discussion
// sections: selfish peers + probe payments (§3.3), adaptive ping (§6.1),
// adaptive parallel probes (§6.2), malicious-referral detection (§6.4),
// and the query-cache ablation knob (§2.3); plus two golden runs that pin
// every extension together.
#include <gtest/gtest.h>

#include <numeric>

#include "common/check.h"
#include "experiments/harness.h"
#include "faults/scenario.h"
#include "guess/network.h"
#include "search/backend.h"
#include "sim/simulator.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

SystemParams base_system(std::size_t n = 200) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 600;
  system.content.query_universe = 750;
  return system;
}

SimulationOptions quick(std::uint64_t seed = 42) {
  SimulationOptions options;
  options.seed = seed;
  options.warmup = 150.0;
  options.measure = 700.0;
  return options;
}

// --- Peer-level units -------------------------------------------------------

TEST(Credit, SpendAndEarnRespectBounds) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  peer.set_credit(5.0);
  EXPECT_TRUE(peer.can_afford(5.0));
  EXPECT_FALSE(peer.can_afford(5.1));
  peer.spend_credit(3.0);
  EXPECT_DOUBLE_EQ(peer.credit(), 2.0);
  EXPECT_THROW(peer.spend_credit(2.5), CheckError);
  peer.earn_credit(100.0, /*cap=*/50.0);
  EXPECT_DOUBLE_EQ(peer.credit(), 50.0);
}

// In-flight reservations (asynchronous transports) gate affordability
// without moving credit until the probe is served.
TEST(Credit, ReservationsGateAffordabilityUntilResolved) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  peer.set_credit(5.0);
  peer.reserve_credit(2.0);
  peer.reserve_credit(2.0);
  EXPECT_EQ(peer.reserved_probes(), 2u);
  EXPECT_DOUBLE_EQ(peer.credit(), 5.0);  // nothing spent yet
  EXPECT_FALSE(peer.can_afford(2.0));    // 5 - 2*2 = 1 < 2
  EXPECT_THROW(peer.reserve_credit(2.0), CheckError);

  peer.commit_credit(2.0);  // served: the reservation becomes a spend
  EXPECT_DOUBLE_EQ(peer.credit(), 3.0);
  peer.release_credit();    // dead/refused: credit returns untouched
  EXPECT_DOUBLE_EQ(peer.credit(), 3.0);
  EXPECT_EQ(peer.reserved_probes(), 0u);
  EXPECT_TRUE(peer.can_afford(3.0));
  EXPECT_THROW(peer.release_credit(), CheckError);
}

TEST(AdaptivePing, HighDeadFractionShrinksInterval) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  peer.set_ping_interval(60.0);
  for (std::size_t i = 0; i < kPingAdaptWindow; ++i) {
    peer.note_ping_result(true, /*adaptive=*/true);
  }
  EXPECT_DOUBLE_EQ(peer.ping_interval(), 30.0);
  // Again, clamped at kMinPingInterval eventually.
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < kPingAdaptWindow; ++i) {
      peer.note_ping_result(true, true);
    }
  }
  EXPECT_DOUBLE_EQ(peer.ping_interval(), kMinPingInterval);
}

TEST(AdaptivePing, AllLiveGrowsIntervalToCap) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  peer.set_ping_interval(60.0);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < kPingAdaptWindow; ++i) {
      peer.note_ping_result(false, /*adaptive=*/true);
    }
  }
  EXPECT_DOUBLE_EQ(peer.ping_interval(), kMaxPingInterval);
}

// With a window of five the dead fraction moves in steps of 0.2, so the
// hold band between kPingDeadLow and kPingDeadHigh is empty: one dead ping
// in a window grows the interval, two shrink it.
TEST(AdaptivePing, OneDeadInFiveGrowsTwoShrink) {
  auto window_with_dead = [](Peer& peer, std::size_t dead) {
    for (std::size_t i = 0; i < kPingAdaptWindow; ++i) {
      peer.note_ping_result(i < dead, /*adaptive=*/true);
    }
  };
  Peer peer(1, 0.0, content::Library{}, 10, false);
  peer.set_ping_interval(60.0);
  window_with_dead(peer, 1);
  EXPECT_DOUBLE_EQ(peer.ping_interval(), 90.0);
  window_with_dead(peer, 2);
  EXPECT_DOUBLE_EQ(peer.ping_interval(), 45.0);
  // A window is judged only once complete.
  for (std::size_t i = 0; i + 1 < kPingAdaptWindow; ++i) {
    peer.note_ping_result(true, true);
  }
  EXPECT_DOUBLE_EQ(peer.ping_interval(), 45.0);
}

TEST(AdaptivePing, DisabledIsInert) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  peer.set_ping_interval(60.0);
  for (int i = 0; i < 100; ++i) peer.note_ping_result(true, /*adaptive=*/false);
  EXPECT_DOUBLE_EQ(peer.ping_interval(), 60.0);
}

TEST(Detection, BlacklistsAfterThreshold) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  DetectionParams params;
  params.enabled = true;
  params.min_referrals = 5;
  params.bad_threshold = 0.6;
  // 4 bad referrals: below min sample count, no decision yet.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(peer.note_referral(7, true, params));
  }
  EXPECT_FALSE(peer.blacklisted(7));
  // 5th bad referral: 100% > 60% threshold.
  EXPECT_TRUE(peer.note_referral(7, true, params));
  EXPECT_TRUE(peer.blacklisted(7));
  // Further referrals from a blacklisted source are ignored.
  EXPECT_FALSE(peer.note_referral(7, true, params));
}

TEST(Detection, HonestReferrerStaysClean) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  DetectionParams params;
  params.enabled = true;
  params.min_referrals = 5;
  params.bad_threshold = 0.6;
  // 30% bad — typical honest staleness, below the threshold.
  for (int i = 0; i < 70; ++i) EXPECT_FALSE(peer.note_referral(7, false, params));
  for (int i = 0; i < 30; ++i) EXPECT_FALSE(peer.note_referral(7, true, params));
  EXPECT_FALSE(peer.blacklisted(7));
}

TEST(Detection, DisabledNeverBlacklists) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  DetectionParams params;  // enabled = false
  for (int i = 0; i < 100; ++i) peer.note_referral(7, true, params);
  EXPECT_FALSE(peer.blacklisted(7));
  EXPECT_EQ(peer.blacklist_size(), 0u);
}

TEST(Detection, UnknownSourceIgnored) {
  Peer peer(1, 0.0, content::Library{}, 10, false);
  DetectionParams params;
  params.enabled = true;
  params.min_referrals = 1;
  EXPECT_FALSE(peer.note_referral(kInvalidPeer, true, params));
}

TEST(AdaptiveParallelUnit, DoublesAfterTriggerAndCaps) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0, /*parallel=*/1);
  auto dry_slots = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) query.note_slot(false, true);
  };
  EXPECT_EQ(query.slot_parallel(), 1u);
  dry_slots(kAdaptiveParallelTrigger - 1);
  EXPECT_EQ(query.slot_parallel(), 1u);
  dry_slots(1);
  EXPECT_EQ(query.slot_parallel(), 2u);
  dry_slots(kAdaptiveParallelTrigger);
  EXPECT_EQ(query.slot_parallel(), 4u);
  dry_slots(10 * kAdaptiveParallelTrigger);
  EXPECT_EQ(query.slot_parallel(), kAdaptiveParallelMax);  // capped
}

TEST(AdaptiveParallelUnit, ResultsResetTheCounter) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0, 1);
  for (std::size_t i = 0; i + 1 < kAdaptiveParallelTrigger; ++i) {
    query.note_slot(false, true);
  }
  query.note_slot(true, true);  // progress resets
  for (std::size_t i = 0; i + 1 < kAdaptiveParallelTrigger; ++i) {
    query.note_slot(false, true);
  }
  EXPECT_EQ(query.slot_parallel(), 1u);
}

TEST(AdaptiveParallelUnit, NeverShrinksBelowStartingWidth) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0, /*parallel=*/100);
  for (std::size_t i = 0; i < 2 * kAdaptiveParallelTrigger; ++i) {
    query.note_slot(false, true);
  }
  EXPECT_GE(query.slot_parallel(), 100u);
}

TEST(QueryExecutionSource, ProvenanceCarriedThroughHeap) {
  QueryExecution query(1, 7, 1, Policy::kMFS, 0.0);
  Rng rng(1);
  query.add_candidate(CacheEntry{2, 0.0, 10, 0}, /*source=*/9, rng);
  query.add_candidate(CacheEntry{3, 0.0, 99, 0}, rng);  // own link cache
  auto first = query.next_candidate();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->entry.id, 3u);
  EXPECT_EQ(first->source, kInvalidPeer);
  auto second = query.next_candidate();
  EXPECT_EQ(second->entry.id, 2u);
  EXPECT_EQ(second->source, 9u);
}

// --- End-to-end behaviour ---------------------------------------------------

TEST(Selfish, SelfishPeersGetFasterAnswersAndLoadTheNetwork) {
  SystemParams system = base_system(300);
  system.percent_selfish_peers = 20.0;
  auto results = testsupport::guess_results(search::run_search(
      SimulationConfig().system(system).options(quick())));
  ASSERT_GT(results.selfish.queries_completed, 0u);
  ASSERT_GT(results.honest.queries_completed, 0u);
  // Blasting wide is the whole point: much faster responses...
  EXPECT_LT(results.selfish.response_time.mean(),
            results.honest.response_time.mean() * 0.3);
  // ...at a higher per-query probe cost than serial probing.
  EXPECT_GT(results.selfish.probes_per_query(),
            results.honest.probes_per_query());
}

TEST(Selfish, PaymentsContainSelfishBlasting) {
  SystemParams system = base_system(300);
  system.percent_selfish_peers = 20.0;
  ProtocolParams with_payments;
  with_payments.payments = true;
  auto free_ride = testsupport::guess_results(search::run_search(
      SimulationConfig().system(system).options(quick())));
  auto economy = testsupport::guess_results(search::run_search(
      SimulationConfig().system(system).protocol(with_payments).options(
          quick())));
  // Free riding: blasting answers essentially instantly.
  EXPECT_LT(free_ride.selfish.response_time.mean(),
            free_ride.honest.response_time.mean() * 0.3);
  // The credit budget removes the advantage: once the endowment is burned,
  // a blaster waits on its serve income and ends up no faster than honest
  // serial probing, with its probe volume reduced.
  EXPECT_GE(economy.selfish.response_time.mean(),
            economy.honest.response_time.mean());
  EXPECT_LT(economy.selfish.probes_per_query(),
            free_ride.selfish.probes_per_query());
}

TEST(Selfish, RolesPreservedThroughChurn) {
  SystemParams system = base_system(200);
  system.percent_selfish_peers = 15.0;
  system.lifespan_multiplier = 0.05;
  SimulationOptions options = quick();
  sim::Simulator simulator;
  GuessNetwork network(SimulationConfig().system(system).options(options),
                       simulator, Rng(options.seed));
  network.initialize();
  simulator.run_until(options.warmup + options.measure);
  std::size_t selfish = 0;
  for (PeerId id : network.alive_ids()) {
    if (network.find(id)->selfish()) ++selfish;
  }
  EXPECT_EQ(selfish, 30u);
}

TEST(Payments, CreditConservedPlusEndowments) {
  SystemParams system = base_system(150);
  ProtocolParams protocol;
  protocol.payments = true;
  SimulationOptions options = quick();
  sim::Simulator simulator;
  GuessNetwork network(
      SimulationConfig().system(system).protocol(protocol).options(options),
      simulator, Rng(options.seed));
  network.initialize();
  simulator.run_until(options.warmup + options.measure);
  // Each served probe moves kProbeCost from prober to server and mints the
  // surplus kServeReward - kProbeCost (less whatever kCreditCap burns);
  // credit leaves only when peers die. Every probe a peer received is
  // counted in its lifetime load, served or refused, and without
  // begin_measurement() the loads include every peer that ever died.
  double total = 0.0;
  for (PeerId id : network.alive_ids()) {
    total += network.find(id)->credit();
  }
  SimulationResults results = network.collect_results();
  const std::vector<double>& loads = results.peer_loads.values();
  double received = std::accumulate(loads.begin(), loads.end(), 0.0);
  double issued = kInitialCredit * static_cast<double>(150 + network.deaths());
  EXPECT_GT(received, 0.0);
  EXPECT_LE(total, issued + (kServeReward - kProbeCost) * received + 1e-6);
  EXPECT_GT(total, 0.0);
}

TEST(Payments, StalledQueriesAreAbandonedNotStuck) {
  SystemParams system = base_system(200);
  system.lifespan_multiplier = 1e6;  // no births: nobody gets an endowment
  ProtocolParams protocol;
  protocol.payments = true;
  SimulationOptions options = quick();
  sim::Simulator simulator;
  GuessNetwork network(
      SimulationConfig().system(system).protocol(protocol).options(options),
      simulator, Rng(options.seed));
  network.initialize();
  for (PeerId id : network.alive_ids()) network.find(id)->set_credit(0.0);
  simulator.run_until(options.warmup);
  network.begin_measurement();
  simulator.run_until(options.warmup + options.measure);
  SimulationResults results = network.collect_results();
  ASSERT_EQ(network.deaths(), 0u);
  // Nobody can ever probe, so every query stalls kMaxStalledSlots slots
  // and is abandoned.
  EXPECT_GT(results.queries_stalled_out, 0u);
  EXPECT_EQ(results.queries_satisfied, 0u);
  EXPECT_EQ(results.probes.total(), 0u);
}

TEST(AdaptiveParallel, ImprovesWorstCaseResponseTime) {
  auto run = [](bool adaptive) {
    ProtocolParams protocol;
    protocol.adaptive_parallel = adaptive;
    return testsupport::guess_results(search::run_search(
        SimulationConfig().system(base_system(300)).protocol(protocol).options(
            quick())));
  };
  auto fixed = run(false);
  auto adaptive = run(true);
  // Rare-item queries dominate the response-time tail; ramping the probe
  // rate compresses it.
  EXPECT_LT(adaptive.response_time.max(), fixed.response_time.max() * 0.7);
  EXPECT_LE(adaptive.response_time.mean(), fixed.response_time.mean());
}

TEST(AdaptivePingE2E, MatchesMaintenanceToChurn) {
  auto run = [](double multiplier, bool adaptive) {
    SystemParams system = base_system(200);
    system.lifespan_multiplier = multiplier;
    ProtocolParams protocol;
    protocol.adaptive_ping = adaptive;
    SimulationOptions options = quick();
    options.enable_queries = false;
    options.warmup = 300.0;
    options.measure = 3000.0;
    return testsupport::guess_results(search::run_search(
        SimulationConfig().system(system).protocol(protocol).options(
            options)));
  };
  // Stable network: the adaptive controller backs off (1.5x per window up
  // to the cap), sending far fewer pings than the fixed 30-second schedule
  // at similar cache health.
  auto fixed_stable = run(5.0, false);
  auto adaptive_stable = run(5.0, true);
  EXPECT_LT(static_cast<double>(adaptive_stable.pings_sent),
            static_cast<double>(fixed_stable.pings_sent) * 0.6);
  // The controller trades a little freshness for much less overhead.
  EXPECT_GT(adaptive_stable.cache_health.fraction_live, 0.7);
}

TEST(DetectionE2E, DetectionPlusBootstrapSaveMrFromCollusion) {
  SystemParams system = base_system(400);
  system.percent_bad_peers = 20.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  ProtocolParams mr;
  mr.query_probe = Policy::kMR;
  mr.query_pong = Policy::kMR;
  mr.cache_replacement = Replacement::kLR;
  mr.cache_size = 40;  // paper-like cache:network ratio

  ProtocolParams detect_only = mr;
  detect_only.detection.enabled = true;
  ProtocolParams full_defense = detect_only;
  full_defense.pong_server_reseed = true;

  SimulationOptions options = quick();
  options.warmup = 1200.0;  // let the attack and the defense reach steady state
  options.measure = 1200.0;
  auto run = [&](const ProtocolParams& protocol) {
    return testsupport::guess_results(search::run_search(
        SimulationConfig().system(system).protocol(protocol).options(
            options)));
  };
  auto undefended = run(mr);
  auto detected = run(detect_only);
  auto defended = run(full_defense);

  // Collusion kills plain MR outright (§6.4).
  EXPECT_GT(undefended.unsatisfied_rate(), 0.9);
  // Detection alone identifies attackers (probes stop being wasted on
  // them) but cannot rebuild a collapsed overlay...
  EXPECT_LT(detected.probes_per_query(),
            undefended.probes_per_query() * 0.5);
  EXPECT_GT(detected.unsatisfied_rate(), 0.5);
  // ...the §6.1 pong-server rebootstrap restores service.
  EXPECT_LT(defended.unsatisfied_rate(), 0.3);
  EXPECT_GT(defended.cache_health.good_entries,
            undefended.cache_health.good_entries + 10.0);
}

TEST(QueryCacheAblation, WithoutQueryCacheRareItemsFail) {
  auto run = [](bool use_query_cache) {
    ProtocolParams protocol;
    protocol.use_query_cache = use_query_cache;
    // Paper-like cache:network ratio so the link cache alone cannot cover
    // the network (the whole point of the query cache, §2.3).
    protocol.cache_size = 30;
    return testsupport::guess_results(search::run_search(
        SimulationConfig().system(base_system(300)).protocol(protocol).options(
            quick())));
  };
  auto with = run(true);
  auto without = run(false);
  // Without the query cache the extent is capped by the link cache, so
  // fewer probes but many more unsatisfied queries (§2.3's rationale).
  EXPECT_LT(without.probes_per_query(), with.probes_per_query());
  EXPECT_GT(without.unsatisfied_rate(), with.unsatisfied_rate() * 1.5);
  EXPECT_LE(without.query_cache_population.max(), 30.0);
}

// --- Extension goldens ------------------------------------------------------
//
// Two runs pinned to golden values: headline counters exactly, plus a 64-bit
// digest over every field testsupport::expect_identical compares. The first
// exercises selfish blasters under the payment economy with DoBackoff and
// the adaptive probe ramp; the second adaptive ping and pong-server reseeds
// on a lossy, churning, poisoned network with detection on. Both run under
// both event-queue schedulers.

class ExtensionGoldenTest : public ::testing::TestWithParam<sim::Scheduler> {};

SimulationConfig golden_base(std::uint64_t seed, sim::Scheduler scheduler) {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return SimulationConfig()
      .system(system)
      .seed(seed)
      .warmup(200.0)
      .measure(400.0)
      .scheduler(scheduler);
}

TEST_P(ExtensionGoldenTest, SelfishBlastersUnderPaymentsBackoffAndRamp) {
  SimulationConfig config = golden_base(13, GetParam());
  SystemParams system = config.system();
  system.percent_selfish_peers = 20.0;
  system.max_probes_per_second = 4;
  ProtocolParams protocol;
  protocol.query_pong = Policy::kMFS;
  protocol.payments = true;
  protocol.do_backoff = true;
  protocol.adaptive_parallel = true;
  SimulationResults results = testsupport::guess_results(
      search::run_search(config.system(system).protocol(protocol)));
  EXPECT_EQ(results.queries_completed, 526u);
  EXPECT_EQ(results.queries_satisfied, 489u);
  EXPECT_EQ(results.probes.good, 7644u);
  EXPECT_EQ(results.probes.dead, 2075u);
  EXPECT_EQ(results.probes.refused, 158u);
  EXPECT_EQ(results.queries_stalled_out, 2u);
  EXPECT_EQ(results.selfish.queries_completed, 97u);
  EXPECT_EQ(testsupport::digest(results), 0xdb4a0b630e50a301ull)
      << std::hex << "0x" << testsupport::digest(results);
}

TEST_P(ExtensionGoldenTest, AdaptivePingAndReseedOnLossyPoisonedNetwork) {
  SimulationConfig config = golden_base(17, GetParam());
  SystemParams system = config.system();
  system.lifespan_multiplier = 0.3;
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  ProtocolParams protocol =
      experiments::PolicyCombo::from_name("MR").apply(ProtocolParams{});
  protocol.detection.enabled = true;
  protocol.pong_server_reseed = true;
  protocol.adaptive_ping = true;
  TransportParams transport = TransportParams::lossy(0.05);
  transport.max_retries = 2;
  SimulationResults results = testsupport::guess_results(
      search::run_search(config.system(system)
                             .protocol(protocol)
                             .transport(transport)
                             .metrics_interval(50.0)));
  EXPECT_EQ(results.queries_completed, 533u);
  EXPECT_EQ(results.queries_satisfied, 500u);
  EXPECT_EQ(results.probes.good, 7187u);
  EXPECT_EQ(results.probes.dead, 3629u);
  EXPECT_EQ(results.pings_sent, 2748u);
  EXPECT_EQ(results.pings_to_dead, 988u);
  EXPECT_EQ(results.transport.retransmits, 1470u);
  EXPECT_EQ(testsupport::digest(results), 0xad3557e253a0ca36ull)
      << std::hex << "0x" << testsupport::digest(results);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ExtensionGoldenTest,
                         ::testing::Values(sim::Scheduler::kHeap,
                                           sim::Scheduler::kCalendar),
                         [](const auto& info) {
                           return sim::scheduler_name(info.param);
                         });

}  // namespace
}  // namespace guess
