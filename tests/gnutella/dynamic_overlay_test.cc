#include "gnutella/dynamic_overlay.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess::gnutella {
namespace {

DynamicParams small_params(std::size_t n = 200) {
  DynamicParams params;
  params.network_size = n;
  params.content.catalog_size = 500;
  params.content.query_universe = 625;
  return params;
}

struct Fixture {
  explicit Fixture(DynamicParams params = small_params(),
                   std::uint64_t seed = 7)
      : overlay(params, simulator, Rng(seed)) {
    overlay.initialize();
  }
  sim::Simulator simulator;
  DynamicOverlay overlay;
};

TEST(DynamicOverlay, InitializeWiresConnectedOverlay) {
  Fixture f;
  EXPECT_EQ(f.overlay.alive_count(), 200u);
  EXPECT_EQ(f.overlay.largest_component(), 200u);
  // Each peer initiates kTargetDegree links and receives about as many.
  EXPECT_GT(f.overlay.mean_degree(), static_cast<double>(kTargetDegree));
  EXPECT_LE(f.overlay.max_degree_seen(), kMaxDegree);
}

TEST(DynamicOverlay, PopulationConstantAndConnectedThroughChurn) {
  DynamicParams params = small_params();
  params.lifespan_multiplier = 0.05;  // aggressive churn
  Fixture f(params);
  f.overlay.begin_measurement();
  f.simulator.run_until(1800.0);
  auto results = f.overlay.results();
  EXPECT_GT(results.deaths, 50u);
  EXPECT_EQ(f.overlay.alive_count(), 200u);
  // Immediate repair keeps the overlay whole despite heavy churn (§3.2).
  EXPECT_GT(f.overlay.largest_component(), 190u);
  EXPECT_GT(results.repairs, 0u);
}

TEST(DynamicOverlay, QueriesFlowAndAmplify) {
  Fixture f;
  f.overlay.begin_measurement();
  f.simulator.run_until(1800.0);
  auto results = f.overlay.results();
  EXPECT_GT(results.queries_completed, 100u);
  // Fixed-extent flooding: every query pays the full flood regardless of
  // popularity, and messages exceed peers reached (duplicates).
  EXPECT_GT(results.messages_per_query(), results.reach_per_query());
  EXPECT_GT(results.reach_per_query(), 50.0);
  EXPECT_LT(results.unsatisfied_rate(), 0.5);
}

TEST(DynamicOverlay, ResponseTimeIsHopBounded) {
  Fixture f;
  f.overlay.begin_measurement();
  f.simulator.run_until(1200.0);
  auto results = f.overlay.results();
  ASSERT_GT(results.response_time.count(), 0u);
  DynamicParams params = small_params();
  EXPECT_LE(results.response_time.max(),
            static_cast<double>(params.ttl) * kHopDelay + 1e-9);
}

TEST(DynamicOverlay, SmallTtlReachesFewerPeers) {
  auto run_reach = [](std::size_t ttl) {
    DynamicParams params = small_params();
    params.ttl = ttl;
    Fixture f(params);
    f.overlay.begin_measurement();
    f.simulator.run_until(900.0);
    return f.overlay.results();
  };
  auto narrow = run_reach(1);
  auto wide = run_reach(4);
  EXPECT_LT(narrow.reach_per_query(), wide.reach_per_query());
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
  DynamicParams params = small_params();
  params.lifespan_multiplier = 0.05;
  Fixture f(params);
  f.simulator.run_until(1200.0);
  EXPECT_LE(f.overlay.max_degree_seen(), kMaxDegree);
}

TEST(DynamicOverlay, ParameterValidation) {
  sim::Simulator simulator;
  DynamicParams params = small_params();
  params.network_size = 1;
  EXPECT_THROW(DynamicOverlay(params, simulator, Rng(1)), CheckError);
  params = small_params();
  params.loss = 1.5;
  EXPECT_THROW(DynamicOverlay(params, simulator, Rng(1)), CheckError);
}

TEST(DynamicOverlay, InitializeTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.overlay.initialize(), CheckError);
}

}  // namespace
}  // namespace guess::gnutella
