// Golden runs of every backend (DESIGN.md §12.2). Each case pins a
// run_search() run to values recorded before the code it exercises was
// last rewritten: the headline counters exactly, plus a 64-bit digest over
// every field of the results struct riding in the extension slot, under
// both event-queue backends. "Bitwise" is literal: doubles compare ==.
//
// The *MatchesLegacy* cases were recorded where run_search still matched
// the free-standing driver it replaced (GUESS's standalone simulation, the
// flood, one-hop and iterative silo drivers), so they keep holding the
// protocols to those drivers without keeping the drivers alive. The
// *Golden* cases add faults, loss and churn on top, or run open loop.
#include <gtest/gtest.h>

#include <numeric>

#include "baseline/iterative_deepening.h"
#include "common/check.h"
#include "gnutella/dynamic_overlay.h"
#include "search/adapters.h"
#include "search/backend.h"
#include "search/gossip.h"
#include "search/onehop.h"
#include "sim/simulator.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess::search {
namespace {

SystemParams small_system(std::size_t n = 150) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return system;
}

void expect_identical(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.values(), b.values());
}

double total(const SampleSet& s) {
  return std::accumulate(s.values().begin(), s.values().end(), 0.0);
}

class BackendEquivalenceTest : public ::testing::TestWithParam<sim::Scheduler> {
 protected:
  /// A loss-free open-loop run at 5 q/s under admission control: every
  /// query enters through start_query, and the backend's own clock is off.
  SimulationConfig open_loop(SearchBackendId id, std::uint64_t seed) const {
    return SimulationConfig()
        .system(small_system())
        .backend(id)
        .arrival(sim::ArrivalMode::kOpen)
        .offered_qps(5.0)
        .overload_policy(OverloadPolicy::kAdmit)
        .seed(seed)
        .warmup(200.0)
        .measure(400.0)
        .scheduler(GetParam());
  }
};

// --- GUESS ------------------------------------------------------------------

TEST_P(BackendEquivalenceTest, GuessMatchesLegacySimulation) {
  auto config = SimulationConfig()
                    .system(small_system())
                    .protocol(ProtocolParams{})
                    .seed(11)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(GetParam());

  SearchResults unified = run_search(config);
  const auto* extra = unified.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 560u);
  EXPECT_EQ(extra->queries_satisfied, 529u);
  EXPECT_EQ(extra->probes.good, 8886u);
  EXPECT_EQ(extra->probes.dead, 2620u);
  EXPECT_EQ(extra->probes.refused, 0u);
  EXPECT_EQ(extra->deaths, 55u);
  EXPECT_EQ(extra->pings_sent, 2010u);
  EXPECT_EQ(extra->pings_to_dead, 421u);
  EXPECT_EQ(extra->transport.messages_sent, 13725u);
  EXPECT_EQ(testsupport::digest(*extra), 0x9041bb322fe1c4b7ull);

  // The unified mapping is arithmetic over the GUESS struct.
  EXPECT_EQ(unified.backend, "guess");
  EXPECT_EQ(unified.queries_completed, extra->queries_completed);
  EXPECT_EQ(unified.queries_satisfied, extra->queries_satisfied);
  EXPECT_EQ(unified.probes, extra->probes.total());
  EXPECT_EQ(unified.deaths, extra->deaths);
  EXPECT_EQ(unified.measure_duration, 400.0);
  expect_identical(unified.probe_samples, extra->query_probes);
  EXPECT_GT(unified.bytes_on_wire(), 0u);
  EXPECT_GT(unified.events_fired, 0u);
}

TEST_P(BackendEquivalenceTest, GuessMatchesLegacyUnderFaultsAndLossAndIntervals) {
  // The loaded variant: lossy transport, a fault scenario, the interval
  // series and connectivity sampling all at once — every optional code path
  // of the driver loop.
  auto config = SimulationConfig()
                    .system(small_system())
                    .protocol(ProtocolParams{})
                    .transport(TransportParams::lossy(0.05))
                    .scenario(faults::Scenario::parse(
                        "at 300 kill 0.2\nat 360 join 30"))
                    .metrics_interval(60.0)
                    .sample_connectivity(true)
                    .seed(23)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(GetParam());

  SearchResults unified = run_search(config);
  const auto* extra = unified.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 526u);
  EXPECT_EQ(extra->queries_satisfied, 491u);
  EXPECT_EQ(extra->probes.good, 6981u);
  EXPECT_EQ(extra->probes.dead, 4547u);
  EXPECT_EQ(extra->probes.refused, 0u);
  EXPECT_EQ(extra->deaths, 53u);
  EXPECT_EQ(extra->pings_sent, 1950u);
  EXPECT_EQ(extra->pings_to_dead, 780u);
  EXPECT_EQ(extra->transport.messages_sent, 13813u);
  EXPECT_EQ(extra->transport.messages_lost, 1317u);
  EXPECT_EQ(extra->transport.timeouts, 1311u);
  EXPECT_EQ(extra->interval_series.size(), 10u);
  EXPECT_EQ(extra->final_largest_component, 150u);
  EXPECT_EQ(extra->final_largest_strong_component, 129u);
  EXPECT_EQ(testsupport::digest(*extra), 0x84823693446d7640ull);

  testsupport::expect_identical(unified.interval_series,
                                extra->interval_series);
}

// --- Gnutella flooding ------------------------------------------------------

// Recorded from bench_gnutella_compare's legacy driver sequence (the
// SystemParams workload, everything else at the FloodBackendParams
// defaults), which run_search reproduced bitwise.
TEST_P(BackendEquivalenceTest, FloodMatchesLegacyDriver) {
  SearchResults unified = run_search(SimulationConfig()
                                         .system(small_system())
                                         .backend(SearchBackendId::kFlood)
                                         .seed(31)
                                         .warmup(200.0)
                                         .measure(400.0)
                                         .scheduler(GetParam()));
  const auto* extra = unified.extra_as<gnutella::DynamicResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 594u);
  EXPECT_EQ(extra->queries_satisfied, 552u);
  EXPECT_EQ(extra->messages, 299060u);
  EXPECT_EQ(extra->peers_reached, 87226u);
  EXPECT_EQ(extra->deaths, 26u);
  EXPECT_EQ(extra->repairs, 30u);
  EXPECT_EQ(extra->peer_loads.size(), 176u);
  EXPECT_EQ(total(extra->peer_loads), 425481.0);
  EXPECT_EQ(testsupport::digest(*extra), 0x5a29b6e34a5fbbedull);

  EXPECT_EQ(unified.backend, "flood");
  EXPECT_EQ(unified.queries_completed, extra->queries_completed);
  EXPECT_EQ(unified.probes, extra->peers_reached);
  EXPECT_EQ(unified.query_messages, extra->messages);
  EXPECT_EQ(unified.maintenance_messages, 2 * extra->repairs);
}

TEST_P(BackendEquivalenceTest, FloodGoldenUnderFaultsAndLoss) {
  // Fast churn, lossy transmissions, a mass kill and a flash crowd: overlay
  // repair, the loss draw and the kill's victim draw all move the digest.
  SystemParams system = small_system();
  system.lifespan_multiplier = 0.2;
  SearchResults unified = run_search(
      SimulationConfig()
          .system(system)
          .backend(SearchBackendId::kFlood)
          .transport(TransportParams::lossy(0.05))
          .scenario(faults::Scenario::parse("at 300 kill 0.3\nat 400 join 40"))
          .seed(33)
          .warmup(200.0)
          .measure(400.0)
          .scheduler(GetParam()));
  const auto* extra = unified.extra_as<gnutella::DynamicResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 441u);
  EXPECT_EQ(extra->queries_satisfied, 405u);
  EXPECT_EQ(extra->messages, 229445u);
  EXPECT_EQ(extra->peers_reached, 59872u);
  EXPECT_EQ(extra->deaths, 120u);
  EXPECT_EQ(extra->repairs, 185u);
  EXPECT_EQ(extra->peer_loads.size(), 265u);
  EXPECT_EQ(total(extra->peer_loads), 336617.0);
  EXPECT_EQ(testsupport::digest(*extra), 0xa075f9d1abc09e30ull);
}

TEST_P(BackendEquivalenceTest, FloodGoldenOpenLoop) {
  SearchResults unified = run_search(open_loop(SearchBackendId::kFlood, 45));
  const auto* extra = unified.extra_as<gnutella::DynamicResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 1986u);
  EXPECT_EQ(extra->queries_satisfied, 1845u);
  EXPECT_EQ(extra->messages, 1011096u);
  EXPECT_EQ(extra->peers_reached, 292798u);
  EXPECT_EQ(extra->deaths, 26u);
  EXPECT_EQ(extra->repairs, 36u);
  EXPECT_EQ(unified.overload.arrivals, 1986u);
  EXPECT_EQ(unified.overload.completed, 1986u);
  EXPECT_EQ(unified.overload.slo_ok, 1845u);
  EXPECT_EQ(testsupport::digest(*extra), 0xdf4962bed481e365ull);
  EXPECT_EQ(testsupport::digest(unified), 0xb2a34cff8d2d9c2eull);
}

// --- Gossip -----------------------------------------------------------------

TEST_P(BackendEquivalenceTest, GossipGoldenUnderFaultsAndLoss) {
  // Lossy legs, a partition (births during it draw a side), a mass kill, a
  // flash crowd and the interval series.
  SearchResults unified = run_search(
      SimulationConfig()
          .system(small_system())
          .backend(SearchBackendId::kGossip)
          .transport(TransportParams::lossy(0.05))
          .scenario(faults::Scenario::parse(
              "at 250 partition 2 for 100\nat 300 kill 0.3\nat 400 join 40"))
          .metrics_interval(60.0)
          .seed(43)
          .warmup(200.0)
          .measure(400.0)
          .scheduler(GetParam()));
  const auto* extra = unified.extra_as<GossipStats>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 493u);
  EXPECT_EQ(extra->queries_satisfied, 463u);
  EXPECT_EQ(extra->local_hits, 93u);
  EXPECT_EQ(extra->knowledge_hits, 62u);
  EXPECT_EQ(extra->fallback_queries, 338u);
  EXPECT_EQ(extra->probes, 9224u);
  EXPECT_EQ(extra->stale_ads_expired, 20u);
  EXPECT_EQ(extra->stale_ads_dead, 1u);
  EXPECT_EQ(extra->gossip_exchanges, 10908u);
  EXPECT_EQ(extra->gossip_legs, 20041u);
  EXPECT_EQ(extra->ads_sent, 41772u);
  EXPECT_EQ(extra->deaths, 37u);
  EXPECT_EQ(testsupport::digest(*extra), 0x04dc660785bd6bbfull);

  EXPECT_EQ(unified.backend, "gossip");
  EXPECT_EQ(unified.queries_completed, extra->queries_completed);
  EXPECT_EQ(unified.maintenance_messages, extra->gossip_legs);
}

// --- One-hop DHT ------------------------------------------------------------

// Recorded from bench_onehop's legacy driver sequence (lookups at
// system.query_rate per peer), which run_search reproduced bitwise.
TEST_P(BackendEquivalenceTest, OneHopMatchesLegacyDriver) {
  SystemParams system = small_system();
  SearchResults unified = run_search(SimulationConfig()
                                         .system(system)
                                         .backend(SearchBackendId::kOneHop)
                                         .seed(37)
                                         .warmup(200.0)
                                         .measure(400.0)
                                         .scheduler(GetParam()));
  const auto* extra = unified.extra_as<OneHopResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->lookups, 579u);
  EXPECT_EQ(extra->one_hop, 566u);
  EXPECT_EQ(extra->corrective_hops, 7u);
  EXPECT_EQ(extra->timeouts, 6u);
  EXPECT_EQ(extra->membership_events, 52u);
  EXPECT_EQ(extra->deaths, 26u);
  EXPECT_EQ(testsupport::digest(*extra), 0x8907471579f906e0ull);

  EXPECT_EQ(unified.backend, "onehop");
  EXPECT_EQ(unified.queries_completed, extra->lookups);
  EXPECT_EQ(unified.queries_satisfied, extra->lookups);  // exact-match DHT
  EXPECT_EQ(unified.maintenance_messages,
            extra->membership_events * system.network_size);
}

TEST_P(BackendEquivalenceTest, OneHopGoldenUnderFaultsAndLoss) {
  // Fast churn, lost probes, a mass kill (victims drawn over ring order,
  // keeping two) and a flash crowd: the walk past stale and lossy owners,
  // the loss draw and the kill's victim draw all move the digest.
  SystemParams system = small_system();
  system.lifespan_multiplier = 0.2;
  SearchResults unified = run_search(
      SimulationConfig()
          .system(system)
          .backend(SearchBackendId::kOneHop)
          .transport(TransportParams::lossy(0.05))
          .scenario(faults::Scenario::parse("at 300 kill 0.3\nat 400 join 40"))
          .seed(39)
          .warmup(200.0)
          .measure(400.0)
          .scheduler(GetParam()));
  const auto* extra = unified.extra_as<OneHopResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->lookups, 538u);
  EXPECT_EQ(extra->one_hop, 437u);
  EXPECT_EQ(extra->corrective_hops, 72u);
  EXPECT_EQ(extra->timeouts, 63u);
  EXPECT_EQ(extra->membership_events, 231u);
  EXPECT_EQ(extra->deaths, 118u);
  EXPECT_EQ(testsupport::digest(*extra), 0x93900eab86f2bdd8ull);
}

TEST_P(BackendEquivalenceTest, OneHopGoldenOpenLoop) {
  SearchResults unified = run_search(open_loop(SearchBackendId::kOneHop, 49));
  const auto* extra = unified.extra_as<OneHopResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->lookups, 2033u);
  EXPECT_EQ(extra->one_hop, 1985u);
  EXPECT_EQ(extra->corrective_hops, 23u);
  EXPECT_EQ(extra->timeouts, 27u);
  EXPECT_EQ(extra->membership_events, 46u);
  EXPECT_EQ(unified.overload.arrivals, 2033u);
  EXPECT_EQ(unified.overload.completed, 2033u);
  EXPECT_EQ(unified.overload.slo_ok, 2033u);
  EXPECT_EQ(testsupport::digest(*extra), 0x4c5869f977e8d0e6ull);
  EXPECT_EQ(testsupport::digest(unified), 0xbdb6047936cd7f5dull);
}

// --- Iterative deepening ----------------------------------------------------

// Recorded from bench_fig08's legacy driver sequence (model, population
// from the run's RNG, then the Monte-Carlo batch from the same RNG), which
// run_search reproduced bitwise.
TEST_P(BackendEquivalenceTest, IterativeMatchesLegacyDriver) {
  SearchResults unified = run_search(SimulationConfig()
                                         .system(small_system())
                                         .backend(SearchBackendId::kIterative)
                                         .seed(41)
                                         .scheduler(GetParam()));
  const auto* extra = unified.extra_as<baseline::DeepeningResult>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(unified.backend, "iterative");
  EXPECT_EQ(unified.queries_completed, kIterativeQueries);
  EXPECT_EQ(unified.queries_satisfied, 9402u);
  EXPECT_EQ(unified.probes, 397140u);
  EXPECT_EQ(unified.probe_samples.size(), kIterativeQueries);
  EXPECT_EQ(testsupport::digest(*extra), 0x5897d538a2b9ebb6ull);
}

TEST_P(BackendEquivalenceTest, IterativeGoldenUnderFaults) {
  // The kill and the join reshape the static population the batch samples.
  SearchResults unified = run_search(
      SimulationConfig()
          .system(small_system())
          .backend(SearchBackendId::kIterative)
          .scenario(faults::Scenario::parse("at 300 kill 0.3\nat 400 join 30"))
          .seed(41)
          .warmup(200.0)
          .measure(400.0)
          .scheduler(GetParam()));
  const auto* extra = unified.extra_as<baseline::DeepeningResult>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(unified.queries_completed, 10000u);
  EXPECT_EQ(unified.queries_satisfied, 9406u);
  EXPECT_EQ(unified.probes, 385530u);
  EXPECT_EQ(testsupport::digest(*extra), 0x9c167c53ac62efb5ull);
}

TEST_P(BackendEquivalenceTest, IterativeGoldenOpenLoop) {
  // No closed-loop batch: only the arrivals' ring walks are tallied.
  SearchResults unified =
      run_search(open_loop(SearchBackendId::kIterative, 51));

  EXPECT_EQ(unified.queries_completed, 1982u);
  EXPECT_EQ(unified.queries_satisfied, 1864u);
  EXPECT_EQ(unified.probes, 79845u);
  EXPECT_EQ(unified.overload.arrivals, 1982u);
  EXPECT_EQ(unified.overload.completed, 1982u);
  EXPECT_EQ(unified.overload.slo_ok, 1864u);
  EXPECT_EQ(testsupport::digest(unified), 0x7bc7a0efdb439093ull);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, BackendEquivalenceTest,
                         ::testing::Values(sim::Scheduler::kHeap,
                                           sim::Scheduler::kCalendar),
                         [](const auto& info) {
                           return sim::scheduler_name(info.param);
                         });

// --- registry ---------------------------------------------------------------

TEST(BackendRegistry, AllFiveBackendsRegistered) {
  std::vector<SearchBackendId> ids = registered_backends();
  ASSERT_EQ(ids.size(), 5u);
  for (SearchBackendId id : ids) {
    sim::Simulator simulator;
    auto backend = make_backend(
        SimulationConfig().system(small_system(50)).backend(id), simulator,
        Rng(1));
    ASSERT_NE(backend, nullptr);
    EXPECT_STREQ(backend->name(), backend_name(id));
  }
}

TEST(BackendRegistry, BackendNamesRoundTrip) {
  for (SearchBackendId id : registered_backends()) {
    EXPECT_EQ(parse_backend(backend_name(id)), id);
  }
  EXPECT_THROW(parse_backend("carrier-pigeon"), CheckError);
}

// network_size is the configured population on every backend, whatever a
// kill and a smaller join leave alive at collect.
TEST(BackendRegistry, NetworkSizeIsTheConfiguredSize) {
  for (SearchBackendId id : registered_backends()) {
    SearchResults r = run_search(SimulationConfig()
                                     .system(small_system())
                                     .backend(id)
                                     .scenario(faults::Scenario::parse(
                                         "at 150 kill 0.3\nat 200 join 20"))
                                     .seed(5)
                                     .warmup(100.0)
                                     .measure(200.0));
    EXPECT_EQ(r.network_size, 150u) << backend_name(id);
  }
}

TEST(BackendRegistry, NonGuessBackendsRejectUnsupportedFaults) {
  sim::Simulator simulator;
  auto backend = make_backend(SimulationConfig()
                                  .system(small_system(50))
                                  .backend(SearchBackendId::kFlood),
                              simulator, Rng(1));
  EXPECT_THROW(backend->fault_set_poisoning(true), CheckError);
  EXPECT_THROW(backend->fault_set_partition(2), CheckError);
}

TEST(BackendRegistry, EveryBackendSupportsMassKillAndJoin) {
  for (SearchBackendId id : registered_backends()) {
    sim::Simulator simulator;
    auto backend = make_backend(
        SimulationConfig().system(small_system(50)).backend(id), simulator,
        Rng(1));
    backend->bootstrap();
    std::size_t before = backend->live_peers();
    EXPECT_NO_THROW(backend->fault_mass_kill(0.2)) << backend->name();
    EXPECT_LT(backend->live_peers(), before) << backend->name();
    EXPECT_NO_THROW(backend->fault_mass_join(10)) << backend->name();
  }
}

}  // namespace
}  // namespace guess::search
