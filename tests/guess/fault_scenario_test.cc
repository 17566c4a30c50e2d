// Fault-scenario hooks on the GUESS backend (DESIGN.md §9): bulk churn
// leaves the liveness/edge state consistent, partitions sever exactly the
// cross-group pairs, degradation windows modulate the transport, the poison
// toggle changes attacker behavior, the interval series is well formed, and
// a mid-flight mass kill cannot trip the payment reservation ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.h"
#include "faults/fault_engine.h"
#include "faults/scenario.h"
#include "search/backend.h"
#include "search/guess.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

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

// --- bulk churn -----------------------------------------------------------

TEST(FaultMassKill, RemovesExactFloorFractionWithoutReplacement) {
  Fixture f(SimulationConfig().system(small_system(100)));
  f.simulator.run_until(50.0);
  const std::uint64_t deaths_before = f.network.deaths();

  f.network.fault_mass_kill(0.30);
  EXPECT_EQ(f.network.live_peers(), 70u);  // floor(0.30 * 100) victims
  // Scenario kills are not churn deaths: no on_death, no replacement birth.
  EXPECT_EQ(f.network.deaths(), deaths_before);
  for (PeerId id : f.network.alive_ids()) {
    EXPECT_TRUE(f.network.alive(id));
    EXPECT_NE(f.network.find(id), nullptr);
  }
  // The conceptual overlay only spans live peers.
  f.network.visit_live_edges([&](PeerId owner, PeerId target) {
    EXPECT_TRUE(f.network.alive(owner));
    EXPECT_TRUE(f.network.alive(target));
  });
  EXPECT_LE(f.network.largest_component(), 70u);
}

// The victims' scheduled natural deaths must be descheduled: otherwise the
// stale death events would fire against vanished ids ("death of unknown
// peer") as the run continues. Natural churn then maintains the REDUCED
// population 1:1.
TEST(FaultMassKill, DescheduledDeathsAndReducedPopulationStable) {
  SystemParams system = small_system(100);
  system.lifespan_multiplier = 0.02;  // aggressive churn
  Fixture f(SimulationConfig().system(system));
  f.simulator.run_until(100.0);
  f.network.fault_mass_kill(0.30);
  ASSERT_EQ(f.network.live_peers(), 70u);

  // Long enough that every victim's original lifetime has long expired.
  f.simulator.run_until(3600.0);
  EXPECT_EQ(f.network.live_peers(), 70u);
  EXPECT_GT(f.network.deaths(), 50u);  // natural churn kept going
}

TEST(FaultMassKill, KillEveryoneLeavesAnEmptyStableNetwork) {
  Fixture f(SimulationConfig().system(small_system(50)));
  f.simulator.run_until(10.0);
  f.network.fault_mass_kill(1.0);
  EXPECT_EQ(f.network.live_peers(), 0u);
  EXPECT_EQ(f.network.active_queries(), 0u);
  // Nothing left can fire a birth; the run continues without incident.
  f.simulator.run_until(500.0);
  EXPECT_EQ(f.network.live_peers(), 0u);
}

TEST(FaultMassJoin, NewbornsAreWiredIntoOverlayAndChurn) {
  SystemParams system = small_system(100);
  system.lifespan_multiplier = 0.05;
  Fixture f(SimulationConfig().system(system));
  f.simulator.run_until(50.0);

  std::set<PeerId> before(f.network.alive_ids().begin(),
                          f.network.alive_ids().end());
  f.network.fault_mass_join(50);
  EXPECT_EQ(f.network.live_peers(), 150u);
  for (PeerId id : f.network.alive_ids()) {
    if (before.contains(id)) continue;
    const Peer* newborn = f.network.find(id);
    ASSERT_NE(newborn, nullptr);
    // Friend-seeded: a flash-crowd newborn starts with cache entries.
    EXPECT_GT(newborn->cache().size(), 0u);
    EXPECT_FALSE(f.network.is_malicious(id));
  }
  // Joins are registered with churn: the GROWN population is maintained 1:1.
  f.simulator.run_until(2000.0);
  EXPECT_EQ(f.network.live_peers(), 150u);
  EXPECT_GT(f.network.deaths(), 20u);
}

TEST(FaultMassKill, RepeatedBurstsCompose) {
  Fixture f(SimulationConfig().system(small_system(100)));
  f.network.fault_mass_kill(0.50);
  EXPECT_EQ(f.network.live_peers(), 50u);
  f.network.fault_mass_kill(0.50);
  EXPECT_EQ(f.network.live_peers(), 25u);
  f.network.fault_mass_join(75);
  EXPECT_EQ(f.network.live_peers(), 100u);
}

// --- partitions -----------------------------------------------------------

TEST(FaultPartition, SeversExactlyCrossGroupPairs) {
  Fixture f(SimulationConfig().system(small_system(100)));
  EXPECT_EQ(f.network.partition_ways(), 0);
  EXPECT_FALSE(f.network.severed(f.network.alive_ids()[0],
                                 f.network.alive_ids()[1]));

  f.network.fault_set_partition(3);
  EXPECT_EQ(f.network.partition_ways(), 3);
  std::set<int> groups;
  for (PeerId id : f.network.alive_ids()) {
    int group = f.network.partition_group(id);
    ASSERT_GE(group, 0);
    ASSERT_LT(group, 3);
    groups.insert(group);
  }
  EXPECT_EQ(groups.size(), 3u);  // 100 draws hit all three groups
  for (PeerId a : f.network.alive_ids()) {
    for (PeerId b : f.network.alive_ids()) {
      EXPECT_EQ(f.network.severed(a, b),
                f.network.partition_group(a) != f.network.partition_group(b));
    }
  }
  // Unknown / dead-pool addresses are never "severed": a probe to a corpse
  // should time out on its own, not be short-circuited by the partition.
  EXPECT_FALSE(f.network.severed(f.network.alive_ids()[0], 999999));

  f.network.fault_clear_partition();
  EXPECT_EQ(f.network.partition_ways(), 0);
  EXPECT_EQ(f.network.partition_group(f.network.alive_ids()[0]), -1);
  EXPECT_FALSE(f.network.severed(f.network.alive_ids()[0],
                                 f.network.alive_ids()[1]));
}

TEST(FaultPartition, NewbornsDrawAGroupAtBirth) {
  Fixture f(SimulationConfig().system(small_system(100)));
  f.network.fault_set_partition(2);
  std::set<PeerId> before(f.network.alive_ids().begin(),
                          f.network.alive_ids().end());
  f.network.fault_mass_join(20);
  for (PeerId id : f.network.alive_ids()) {
    if (before.contains(id)) continue;
    EXPECT_GE(f.network.partition_group(id), 0);
  }
}

// End to end: a partition window under the lossy transport forces real
// cross-group failures (counted as losses), and the network still satisfies
// queries after the heal.
TEST(FaultPartition, WindowUnderLossyTransportRecovers) {
  SystemParams system = small_system(150);
  TransportParams transport = TransportParams::lossy(0.0);
  auto config = SimulationConfig()
                    .system(system)
                    .transport(transport)
                    .scenario(faults::Scenario::parse(
                        "at 250 partition 2 for 150"))
                    .metrics_interval(50.0)
                    .seed(11)
                    .warmup(100.0)
                    .measure(500.0);
  search::SearchResults run = search::run_search(config);
  SimulationResults results = testsupport::guess_results(run);
  // Cross-partition sends were severed (loss=0, so every lost message is
  // the partition's doing)...
  EXPECT_GT(results.transport.messages_lost, 0u);
  EXPECT_GT(results.transport.exchanges_failed, 0u);
  // ... and the post-heal network still works.
  EXPECT_GT(results.queries_satisfied, 0u);
  RecoveryMetrics recovery =
      compute_recovery(run.interval_series, 250.0, 400.0);
  EXPECT_GT(recovery.baseline, 0.5);
  EXPECT_LE(recovery.min_during_fault, recovery.baseline);
}

// --- degradation windows --------------------------------------------------

TEST(FaultDegrade, ModulationStateTogglesAndClamps) {
  Fixture f(SimulationConfig().system(small_system(50)));
  EXPECT_DOUBLE_EQ(f.network.extra_loss(), 0.0);
  EXPECT_DOUBLE_EQ(f.network.latency_factor(), 1.0);
  f.network.fault_set_degradation(0.5, 4.0);
  EXPECT_DOUBLE_EQ(f.network.extra_loss(), 0.5);
  EXPECT_DOUBLE_EQ(f.network.latency_factor(), 4.0);
  f.network.fault_clear_degradation();
  EXPECT_DOUBLE_EQ(f.network.extra_loss(), 0.0);
  EXPECT_DOUBLE_EQ(f.network.latency_factor(), 1.0);
}

// A degrade window on the synchronous transport is a configuration error —
// there is no wire to degrade — and must be rejected up front, not ignored.
TEST(FaultDegrade, RequiresLossyTransport) {
  auto config = SimulationConfig().system(small_system(50)).scenario(
      faults::Scenario::parse("at 100 degrade loss=0.5 for 50"));
  EXPECT_THROW(config.validate(), CheckError);
  config.transport(TransportParams::lossy(0.0));
  EXPECT_NO_THROW(config.validate());
}

TEST(FaultDegrade, WindowRaisesLossRateDuringWindowOnly) {
  TransportParams transport = TransportParams::lossy(0.0);
  auto run = [&](const char* spec) {
    auto config = SimulationConfig()
                      .system(small_system(150))
                      .transport(transport)
                      .scenario(faults::Scenario::parse(spec))
                      .metrics_interval(50.0)
                      .seed(13)
                      .warmup(100.0)
                      .measure(400.0);
    return search::run_search(config);
  };
  // The poison toggle at the horizon is a no-op fault: same run shape, no
  // degradation, so every transport loss below is the window's.
  search::SearchResults calm = run("at 500 poison on");
  search::SearchResults degraded = run("at 200 degrade loss=0.6 for 100");
  EXPECT_EQ(testsupport::guess_results(calm).transport.messages_lost, 0u);
  EXPECT_GT(testsupport::guess_results(degraded).transport.messages_lost, 0u);
  // Losses happened inside the window's intervals and only there.
  for (const IntervalSample& s : degraded.interval_series) {
    if (s.end <= 200.0 || s.start >= 300.0) {
      EXPECT_EQ(s.transport.messages_lost, 0u)
          << "loss outside the window, interval " << s.start;
    }
  }
}

// --- poisoning toggle -----------------------------------------------------

TEST(FaultPoison, ToggleFlipsIntrospectionState) {
  SystemParams system = small_system(100);
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  Fixture f(SimulationConfig().system(system));
  EXPECT_TRUE(f.network.poisoning_active());
  f.network.fault_set_poisoning(false);
  EXPECT_FALSE(f.network.poisoning_active());
  f.network.fault_set_poisoning(true);
  EXPECT_TRUE(f.network.poisoning_active());
}

// With poisoning disabled for the whole run, attackers answer honestly and
// the trusting MFS policy is no longer steered into their inflated claims:
// cache health must be strictly better than under active poisoning.
TEST(FaultPoison, DisablingPoisonImprovesCacheHealth) {
  SystemParams system = small_system(150);
  system.percent_bad_peers = 20.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMFS;
  protocol.query_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLFS;
  auto run = [&](const char* spec) {
    auto config = SimulationConfig()
                      .system(system)
                      .protocol(protocol)
                      .scenario(faults::Scenario::parse(spec))
                      .seed(17)
                      .warmup(150.0)
                      .measure(600.0);
    return testsupport::guess_results(search::run_search(config));
  };
  SimulationResults poisoned = run("at 2000 poison on");  // no-op: always on
  SimulationResults honest = run("at 0 poison off");
  EXPECT_GT(honest.cache_health.good_entries,
            poisoned.cache_health.good_entries);
}

// --- in-flight exchanges vs mass kill -------------------------------------

// A mass kill under the lossy transport leaves the victims' in-flight
// exchanges unresolved at kill time; they must drain as dead/timed-out
// without tripping any invariant — in particular the payment reservation
// ledger, whose release path runs inside the stale-token resolutions.
TEST(FaultMassKill, InFlightLossyExchangesResolveWithoutTrippingPayments) {
  SystemParams system = small_system(150);
  ProtocolParams protocol;
  protocol.payments = true;
  protocol.parallel_probes = 3;
  TransportParams transport = TransportParams::lossy(0.2);
  transport.max_retries = 1;
  auto config = SimulationConfig()
                    .system(system)
                    .protocol(protocol)
                    .transport(transport)
                    .scenario(faults::Scenario::parse(
                        "at 200 kill 0.5; at 350 join 75"))
                    .seed(19)
                    .warmup(100.0)
                    .measure(500.0);
  Fixture f(config, config.seed());
  // Every initial peer can afford exactly one probe.
  for (PeerId id : f.network.alive_ids()) {
    f.network.find(id)->set_credit(kProbeCost);
  }
  faults::FaultEngine engine(config.scenario(), f.simulator, f.network);
  engine.schedule();
  f.simulator.run_until(100.0);
  f.network.begin_measurement();
  ASSERT_NO_THROW(f.simulator.run_until(600.0));
  EXPECT_GT(testsupport::guess_results(f.network.collect()).probes.good, 0u);
  for (PeerId id : f.network.alive_ids()) {
    const Peer* peer = f.network.find(id);
    EXPECT_GE(peer->credit(), 0.0);
    EXPECT_GE(peer->credit(),
              static_cast<double>(peer->reserved_probes()) * kProbeCost);
  }
}

// --- interval series ------------------------------------------------------

TEST(IntervalSeries, ContiguousFromTimeZeroWithLivePopulation) {
  auto config = SimulationConfig()
                    .system(small_system(100))
                    .metrics_interval(100.0)
                    .seed(23)
                    .warmup(200.0)
                    .measure(400.0);
  search::SearchResults results = search::run_search(config);

  // Horizon 600 = 6 exact 100 s intervals; the sampler fires at the horizon
  // so there is no trailing partial.
  ASSERT_EQ(results.interval_series.size(), 6u);
  sim::Time expected_start = 0.0;
  std::uint64_t total_completed = 0;
  for (const IntervalSample& s : results.interval_series) {
    EXPECT_DOUBLE_EQ(s.start, expected_start);
    EXPECT_DOUBLE_EQ(s.end, expected_start + 100.0);
    expected_start = s.end;
    EXPECT_EQ(s.live_peers, 100u);
    EXPECT_GE(s.queries_completed, s.queries_satisfied);
    total_completed += s.queries_completed;
  }
  // The series spans warmup too, so it counts at least the measured queries.
  EXPECT_GE(total_completed, results.queries_completed);
  EXPECT_GT(total_completed, 0u);
}

TEST(IntervalSeries, TrailingPartialIntervalAppended) {
  auto config = SimulationConfig()
                    .system(small_system(100))
                    .metrics_interval(90.0)  // 600 / 90 leaves a 60 s tail
                    .seed(23)
                    .warmup(200.0)
                    .measure(400.0);
  search::SearchResults results = search::run_search(config);
  ASSERT_EQ(results.interval_series.size(), 7u);
  const IntervalSample& tail = results.interval_series.back();
  EXPECT_DOUBLE_EQ(tail.start, 540.0);
  EXPECT_DOUBLE_EQ(tail.end, 600.0);

  // Gossip closes its own trailing row the same way.
  search::SearchResults gossip =
      search::run_search(config.backend(SearchBackendId::kGossip));
  ASSERT_EQ(gossip.interval_series.size(), 7u);
  EXPECT_DOUBLE_EQ(gossip.interval_series.back().start, 540.0);
  EXPECT_DOUBLE_EQ(gossip.interval_series.back().end, 600.0);
}

TEST(IntervalSeries, DisabledByDefault) {
  auto config = SimulationConfig()
                    .system(small_system(100))
                    .seed(23)
                    .warmup(100.0)
                    .measure(200.0);
  EXPECT_TRUE(search::run_search(config).interval_series.empty());
}

// A kill at an interval boundary: the sample closing at that instant already
// reflects the post-kill population (faults are scheduled before the
// sampler, so they win the time tie), and later samples show the reduced
// population.
TEST(IntervalSeries, KillAtBoundaryReflectedInClosingSample) {
  auto config = SimulationConfig()
                    .system(small_system(100))
                    .scenario(faults::Scenario::parse("at 300 kill 0.3"))
                    .metrics_interval(100.0)
                    .seed(29)
                    .warmup(200.0)
                    .measure(400.0);
  search::SearchResults results = search::run_search(config);
  ASSERT_EQ(results.interval_series.size(), 6u);
  EXPECT_EQ(results.interval_series[1].live_peers, 100u);  // 100..200
  EXPECT_EQ(results.interval_series[2].live_peers, 70u);   // 200..300
  EXPECT_EQ(results.interval_series[5].live_peers, 70u);   // 500..600
}

// --- config validation ----------------------------------------------------

TEST(ScenarioConfig, NonFiniteFieldsRejectedByValidate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SystemParams bad_system = small_system(100);
  bad_system.query_rate = nan;
  EXPECT_THROW(SimulationConfig().system(bad_system).validate(), CheckError);

  TransportParams bad_transport = TransportParams::lossy(0.1);
  bad_transport.link_latency = nan;
  EXPECT_THROW(SimulationConfig().transport(bad_transport).validate(),
               CheckError);

  EXPECT_THROW(SimulationConfig().metrics_interval(nan).validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig().metrics_interval(-1.0).validate(),
               CheckError);
  EXPECT_NO_THROW(SimulationConfig().metrics_interval(60.0).validate());
}

}  // namespace
}  // namespace guess
