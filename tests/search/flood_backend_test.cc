// The flood backend's live overlay (search/flood.h): wiring, repair under
// churn, amplification, hop-bounded response times and the degree cap.
#include "search/flood.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"

namespace guess::search {
namespace {

SystemParams small_system(std::size_t n = 200) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 500;
  system.content.query_universe = 625;
  return system;
}

SimulationConfig churned(double lifespan_multiplier) {
  SystemParams system = small_system();
  system.lifespan_multiplier = lifespan_multiplier;
  return SimulationConfig().system(system);
}

struct Fixture {
  explicit Fixture(
      const SimulationConfig& config = SimulationConfig().system(
          small_system()),
      std::uint64_t seed = 7)
      : overlay(config, simulator, Rng(seed)) {
    overlay.bootstrap();
  }
  sim::Simulator simulator;
  FloodBackend overlay;
};

TEST(DynamicOverlay, InitializeWiresConnectedOverlay) {
  Fixture f;
  EXPECT_EQ(f.overlay.live_peers(), 200u);
  EXPECT_EQ(f.overlay.largest_component(), 200u);
  // Each peer initiates kTargetDegree links and receives about as many.
  EXPECT_GT(f.overlay.mean_degree(),
            static_cast<double>(gnutella::kTargetDegree));
  EXPECT_LE(f.overlay.max_degree_seen(), gnutella::kMaxDegree);
}

TEST(DynamicOverlay, PopulationConstantAndConnectedThroughChurn) {
  Fixture f(churned(0.05));  // aggressive churn
  f.overlay.begin_measurement();
  f.simulator.run_until(1800.0);
  SearchResults results = f.overlay.collect();
  EXPECT_GT(results.deaths, 50u);
  EXPECT_EQ(f.overlay.live_peers(), 200u);
  // Immediate repair keeps the overlay whole despite heavy churn (§3.2).
  EXPECT_GT(f.overlay.largest_component(), 190u);
  EXPECT_GT(results.extra_as<gnutella::DynamicResults>()->repairs, 0u);
}

TEST(DynamicOverlay, QueriesFlowAndAmplify) {
  Fixture f;
  f.overlay.begin_measurement();
  f.simulator.run_until(1800.0);
  SearchResults results = f.overlay.collect();
  EXPECT_GT(results.queries_completed, 100u);
  // Fixed-extent flooding: every query pays the full flood regardless of
  // popularity, and messages exceed peers reached (duplicates).
  EXPECT_GT(results.query_messages_per_query(), results.probes_per_query());
  EXPECT_GT(results.probes_per_query(), 50.0);
  EXPECT_LT(results.unsatisfied_rate(), 0.5);
}

TEST(DynamicOverlay, ResponseTimeIsHopBounded) {
  Fixture f;
  f.overlay.begin_measurement();
  f.simulator.run_until(1200.0);
  SearchResults results = f.overlay.collect();
  ASSERT_GT(results.response_time.count(), 0u);
  EXPECT_LE(results.response_time.max(),
            static_cast<double>(FloodBackendParams{}.ttl) *
                    gnutella::kHopDelay +
                1e-9);
}

TEST(DynamicOverlay, SmallTtlReachesFewerPeers) {
  auto run_reach = [](std::size_t ttl) {
    Fixture f(SimulationConfig().system(small_system()).flood({.ttl = ttl}));
    f.overlay.begin_measurement();
    f.simulator.run_until(900.0);
    return f.overlay.collect();
  };
  auto narrow = run_reach(1);
  auto wide = run_reach(4);
  EXPECT_LT(narrow.probes_per_query(), wide.probes_per_query());
  EXPECT_GE(narrow.unsatisfied_rate(), wide.unsatisfied_rate());
}

TEST(DynamicOverlay, LoadsCoverPopulation) {
  Fixture f;
  f.overlay.begin_measurement();
  f.simulator.run_until(900.0);
  auto results = f.overlay.results();
  EXPECT_GE(results.peer_loads.size(), 200u);
  EXPECT_GT(results.peer_loads.mean(), 0.0);
}

TEST(DynamicOverlay, DegreeCapRespectedUnderChurn) {
  Fixture f(churned(0.05));
  f.simulator.run_until(1200.0);
  EXPECT_LE(f.overlay.max_degree_seen(), gnutella::kMaxDegree);
}

// Dead peers' holder-list entries are dropped by the queries that walk
// their lists, and by a sweep when queries are rare. Here none runs (open
// loop, no driver), so only the sweep keeps them at most a quarter of the
// live ones through heavy churn.
TEST(DynamicOverlay, DeadHoldersStayBounded) {
  SimulationConfig config = churned(0.02).arrival(sim::ArrivalMode::kOpen);
  Fixture f(config);
  ASSERT_GT(f.overlay.live_holder_entries(), 0u);
  f.overlay.begin_measurement();
  std::uint64_t most_dead = 0;
  for (double t = 10.0; t <= 1800.0; t += 10.0) {
    f.simulator.run_until(t);
    const std::uint64_t dead = f.overlay.dead_holder_entries();
    ASSERT_LE(4 * dead, f.overlay.live_holder_entries()) << "t=" << t;
    most_dead = std::max(most_dead, dead);
  }
  SearchResults results = f.overlay.collect();
  EXPECT_EQ(results.queries_completed, 0u);
  EXPECT_GT(results.deaths, 1000u);
  EXPECT_GT(most_dead, 0u);
}

TEST(DynamicOverlay, ParameterValidation) {
  sim::Simulator simulator;
  EXPECT_THROW(
      FloodBackend(SimulationConfig().system(small_system(1)), simulator,
                   Rng(1)),
      CheckError);
  EXPECT_THROW(FloodBackend(SimulationConfig()
                                .system(small_system())
                                .transport(TransportParams::lossy(1.5)),
                            simulator, Rng(1)),
               CheckError);
}

TEST(DynamicOverlay, InitializeTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.overlay.bootstrap(), CheckError);
}

}  // namespace
}  // namespace guess::search
