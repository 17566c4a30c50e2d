// The one-hop DHT backend (search/onehop.h): lagged views, timeouts and
// corrective hops under churn, and membership maintenance.
#include "search/onehop.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess::search {
namespace {

SimulationConfig small_config(double lifespan_multiplier = 1.0,
                              double dissemination_delay = 30.0) {
  SystemParams system;
  system.network_size = 200;
  system.lifespan_multiplier = lifespan_multiplier;
  return SimulationConfig().system(system).onehop(
      {.dissemination_delay = dissemination_delay});
}

struct Fixture {
  explicit Fixture(const SimulationConfig& config = small_config(),
                   std::uint64_t seed = 7)
      : dht(config, simulator, Rng(seed)) {
    dht.bootstrap();
  }
  sim::Simulator simulator;
  OneHopBackend dht;
};

TEST(OneHopDht, InitializeSynchronizesViews) {
  Fixture f;
  EXPECT_EQ(f.dht.live_peers(), 200u);
  EXPECT_EQ(f.dht.view_size(), 200u);
}

TEST(OneHopDht, NoChurnMeansAllLookupsAreOneHop) {
  Fixture f(small_config(10000.0));  // effectively no churn
  f.dht.begin_measurement();
  f.simulator.run_until(3600.0);
  auto results = f.dht.results();
  ASSERT_GT(results.lookups, 100u);
  EXPECT_EQ(results.one_hop, results.lookups);
  EXPECT_EQ(results.timeouts, 0u);
  EXPECT_EQ(results.corrective_hops, 0u);
  EXPECT_DOUBLE_EQ(results.mean_probes(), 1.0);
}

TEST(OneHopDht, ChurnCausesTimeoutsAndCorrectiveHops) {
  // Heavy churn, very stale views.
  Fixture f(small_config(0.02, 120.0));
  f.dht.begin_measurement();
  f.simulator.run_until(3600.0);
  auto results = f.dht.results();
  ASSERT_GT(results.lookups, 100u);
  EXPECT_GT(results.timeouts + results.corrective_hops, 0u);
  EXPECT_LT(results.one_hop_fraction(), 1.0);
  EXPECT_GT(results.mean_probes(), 1.0);
  EXPECT_GT(results.membership_events, 100u);
}

TEST(OneHopDht, FasterDisseminationImprovesOneHopFraction) {
  auto run = [](double delay) {
    Fixture f(small_config(0.05, delay));
    f.dht.begin_measurement();
    f.simulator.run_until(3600.0);
    return f.dht.results();
  };
  auto fresh = run(5.0);
  auto stale = run(300.0);
  EXPECT_GT(fresh.one_hop_fraction(), stale.one_hop_fraction());
  EXPECT_LT(fresh.mean_probes(), stale.mean_probes());
}

TEST(OneHopDht, PopulationStaysConstant) {
  Fixture f(small_config(0.05));
  f.simulator.run_until(1800.0);
  EXPECT_EQ(f.dht.live_peers(), 200u);
}

TEST(OneHopDht, MaintenanceScalesWithChurn) {
  auto run = [](double multiplier) {
    Fixture f(small_config(multiplier));
    f.dht.begin_measurement();
    f.simulator.run_until(1800.0);
    return f.dht.results();
  };
  auto stable = run(1.0);
  auto churny = run(0.1);
  EXPECT_GT(churny.maintenance_msgs_per_peer_per_sec(1800.0),
            stable.maintenance_msgs_per_peer_per_sec(1800.0) * 3.0);
}

TEST(OneHopDht, ManualLookupCountsOnlyWhenMeasuring) {
  Fixture f;
  Rng rng(1);
  f.dht.start_query(rng, f.simulator.now());  // pre-measurement: not counted
  EXPECT_EQ(f.dht.results().lookups, 0u);
  f.dht.begin_measurement();
  f.dht.start_query(rng, f.simulator.now());
  EXPECT_EQ(f.dht.results().lookups, 1u);
}

// Open-loop keys come from the workload stream handed to start_query, so
// the number of arrivals cannot move the backend's own draws: a backend
// that first served 200 lookups places the same joiners, and then answers
// the same lookups, as one that served none.
TEST(OneHopDht, OpenLoopKeysComeFromTheWorkloadStream) {
  Fixture busy;
  Fixture idle;
  Rng warm(3);
  for (int i = 0; i < 200; ++i) busy.dht.start_query(warm, 0.0);

  auto measure = [](Fixture& f) {
    f.dht.begin_measurement();
    // Before the join reaches the views, keys the joiners own take a
    // corrective hop, so the results depend on where the joiners landed.
    f.dht.fault_mass_join(50);
    Rng workload(11);
    for (int i = 0; i < 500; ++i) f.dht.start_query(workload, 0.0);
    return f.dht.results();
  };
  OneHopResults a = measure(busy);
  OneHopResults b = measure(idle);
  EXPECT_EQ(a.lookups, 500u);
  EXPECT_GT(a.corrective_hops, 0u);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.unanswered, b.unanswered);
  EXPECT_EQ(a.one_hop, b.one_hop);
  EXPECT_EQ(a.corrective_hops, b.corrective_hops);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.membership_events, b.membership_events);
}

TEST(OneHopDht, ParameterValidation) {
  sim::Simulator simulator;
  SystemParams lone;
  lone.network_size = 1;
  EXPECT_THROW(OneHopBackend(SimulationConfig().system(lone), simulator,
                             Rng(1)),
               CheckError);
  EXPECT_THROW(OneHopBackend(small_config().transport(
                                 TransportParams::lossy(1.5)),
                             simulator, Rng(1)),
               CheckError);
  EXPECT_THROW(OneHopBackend(small_config(1.0, -1.0), simulator, Rng(1)),
               CheckError);
}

TEST(OneHopDht, InitializeTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.dht.bootstrap(), CheckError);
}

}  // namespace
}  // namespace guess::search
