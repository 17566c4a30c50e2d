#include "search/guess.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

SystemParams small_system(std::size_t n = 100) {
  SystemParams system;
  system.network_size = n;
  // Small, fast content model for tests.
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return system;
}

struct Fixture {
  explicit Fixture(SystemParams system = small_system(),
                   ProtocolParams protocol = ProtocolParams{},
                   bool enable_queries = true, std::uint64_t seed = 7)
      : network(SimulationConfig()
                    .system(system)
                    .protocol(protocol)
                    .enable_queries(enable_queries),
                simulator, Rng(seed)) {
    network.bootstrap();
  }
  sim::Simulator simulator;
  search::GuessBackend network;
};

TEST(Network, InitializePopulatesExactPopulation) {
  Fixture f;
  EXPECT_EQ(f.network.live_peers(), 100u);
  for (PeerId id : f.network.alive_ids()) {
    EXPECT_TRUE(f.network.alive(id));
    EXPECT_NE(f.network.find(id), nullptr);
  }
  EXPECT_FALSE(f.network.alive(99999));
  EXPECT_EQ(f.network.find(99999), nullptr);
}

TEST(Network, InitializeTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.network.bootstrap(), CheckError);
}

TEST(Network, CachesSeededWithLiveDistinctPeers) {
  Fixture f;
  for (PeerId id : f.network.alive_ids()) {
    const Peer& peer = *f.network.find(id);
    EXPECT_EQ(peer.cache().size(),
              f.network.system().resolved_cache_seed(100));
    for (const CacheEntry& entry : peer.cache().entries()) {
      EXPECT_NE(entry.id, id);
      EXPECT_TRUE(f.network.alive(entry.id));
    }
  }
}

TEST(Network, PopulationStaysConstantThroughChurn) {
  SystemParams system = small_system();
  system.lifespan_multiplier = 0.02;  // aggressive churn
  Fixture f(system);
  f.simulator.run_until(1800.0);
  EXPECT_EQ(f.network.live_peers(), 100u);
  EXPECT_GT(f.network.deaths(), 50u);
}

TEST(Network, DeadPeersStayDead) {
  SystemParams system = small_system();
  system.lifespan_multiplier = 0.02;
  Fixture f(system);
  std::vector<PeerId> initial = f.network.alive_ids();
  f.simulator.run_until(3600.0);
  // Ids are never reused: every currently alive id either survived from the
  // start or is a fresh (larger) id.
  std::size_t survivors = 0;
  for (PeerId id : initial) {
    if (f.network.alive(id)) ++survivors;
  }
  EXPECT_LT(survivors, initial.size());
}

TEST(Network, BadFractionMaintainedThroughChurn) {
  SystemParams system = small_system(200);
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  system.lifespan_multiplier = 0.05;
  Fixture f(system);
  auto count_bad = [&] {
    std::size_t bad = 0;
    for (PeerId id : f.network.alive_ids()) {
      if (f.network.is_malicious(id)) ++bad;
    }
    return bad;
  };
  EXPECT_EQ(count_bad(), 20u);
  f.simulator.run_until(1200.0);
  EXPECT_GT(f.network.deaths(), 10u);
  EXPECT_EQ(count_bad(), 20u);  // replacements inherit malice
}

TEST(Network, SubmittedQueryForPopularFileIsSatisfied) {
  // Background workload off: the one injected query is the only one.
  Fixture f(small_system(), ProtocolParams{}, /*enable_queries=*/false);
  PeerId origin = f.network.alive_ids().front();
  f.network.submit_query(origin, 0);  // most popular file
  f.network.begin_measurement();
  f.simulator.run_until(300.0);
  auto results = testsupport::guess_results(f.network.collect());
  EXPECT_EQ(results.queries_completed, 1u);
  EXPECT_EQ(results.queries_satisfied, 1u);
  EXPECT_GE(results.probes.total(), 1u);
}

TEST(Network, NonexistentFileQueryExhaustsAndFails) {
  Fixture f(small_system(), ProtocolParams{}, /*enable_queries=*/false);
  f.network.begin_measurement();
  PeerId origin = f.network.alive_ids().front();
  f.network.submit_query(origin, content::kNonexistentFile);
  f.simulator.run_until(600.0);
  auto results = testsupport::guess_results(f.network.collect());
  EXPECT_EQ(results.queries_completed, 1u);
  EXPECT_EQ(results.queries_satisfied, 0u);
  // It should have probed far past the initial cache before giving up.
  EXPECT_GT(results.probes.total(),
            f.network.system().resolved_cache_seed(100));
}

TEST(Network, SubmitQueryToDeadPeerThrows) {
  Fixture f;
  EXPECT_THROW(f.network.submit_query(999999, 0), CheckError);
}

TEST(Network, MeasurementWindowExcludesEarlierQueries) {
  Fixture f;
  PeerId origin = f.network.alive_ids().front();
  f.network.submit_query(origin, 0);
  f.simulator.run_until(300.0);  // completes before measurement
  f.network.begin_measurement();
  auto results = testsupport::guess_results(f.network.collect());
  EXPECT_EQ(results.queries_completed, 0u);
}

TEST(Network, ConceptualOverlayStartsConnected) {
  Fixture f;
  // Seeded random caches of ~5 entries per peer over 100 peers form a
  // connected digraph with overwhelming probability.
  EXPECT_EQ(f.network.largest_component(), 100u);
}

TEST(Network, EdgesOnlyBetweenLivePeers) {
  SystemParams system = small_system();
  system.lifespan_multiplier = 0.05;
  Fixture f(system);
  f.simulator.run_until(600.0);
  f.network.visit_live_edges([&](PeerId from, PeerId to) {
    EXPECT_TRUE(f.network.alive(from));
    EXPECT_TRUE(f.network.alive(to));
  });
}

TEST(Network, CacheHealthSamplesAccumulate) {
  Fixture f;
  // One sample when measurement begins, then one every
  // kHealthSampleInterval (60 s): at 60 and 120.
  f.network.begin_measurement();
  f.simulator.run_until(150.0);
  auto results = testsupport::guess_results(f.network.collect());
  EXPECT_EQ(results.cache_health.samples, 3u);
  EXPECT_GT(results.cache_health.entries, 0.0);
  EXPECT_GT(results.cache_health.fraction_live, 0.0);
  EXPECT_LE(results.cache_health.fraction_live, 1.0);
  EXPECT_LE(results.cache_health.good_entries,
            results.cache_health.entries + 1e-9);
}

TEST(Network, QueriesDisabledMeansNoQueries) {
  SystemParams system = small_system();
  Fixture f(system, ProtocolParams{}, /*enable_queries=*/false);
  f.network.begin_measurement();
  f.simulator.run_until(1200.0);
  auto results = testsupport::guess_results(f.network.collect());
  EXPECT_EQ(results.queries_completed, 0u);
  EXPECT_GT(results.pings_sent, 0u);  // maintenance still runs
}

TEST(Network, PeerLoadsCoverPopulation) {
  Fixture f;
  f.network.begin_measurement();
  f.simulator.run_until(600.0);
  auto results = testsupport::guess_results(f.network.collect());
  // All honest peers alive at collection (plus corpses) contribute a sample.
  EXPECT_GE(results.peer_loads.size(), 100u);
}

TEST(Network, TinyNetworkRejected) {
  sim::Simulator simulator;
  SystemParams system = small_system(1);
  EXPECT_THROW(search::GuessBackend(
                   SimulationConfig().system(system).protocol(ProtocolParams{}),
                   simulator, Rng(1)),
               CheckError);
}

}  // namespace
}  // namespace guess
