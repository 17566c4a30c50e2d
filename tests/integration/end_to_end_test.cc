// Cross-module integration tests: full simulations with protocol features
// (capacity limits, backoff, parallel probes, MR*) switched on.
#include <gtest/gtest.h>

#include "search/backend.h"
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

SimulationResults simulate(const SystemParams& system,
                           const ProtocolParams& protocol) {
  return testsupport::guess_results(search::run_search(
      SimulationConfig().system(system).protocol(protocol).options(quick())));
}

TEST(EndToEnd, TightCapacityProducesRefusedProbes) {
  SystemParams system = base_system();
  system.max_probes_per_second = 1;
  // Concentrating policy: everyone hammers the same top sharers.
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMFS;
  protocol.query_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLFS;
  auto results = simulate(system, protocol);
  EXPECT_GT(results.probes.refused, 0u);
}

TEST(EndToEnd, AmpleCapacityNeverRefuses) {
  SystemParams system = base_system();
  system.max_probes_per_second = 100000;
  auto results = simulate(system, ProtocolParams{});
  EXPECT_EQ(results.probes.refused, 0u);
}

TEST(EndToEnd, BackoffRunsToCompletion) {
  SystemParams system = base_system();
  system.max_probes_per_second = 1;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMFS;
  protocol.query_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLFS;
  protocol.do_backoff = true;
  auto results = simulate(system, protocol);
  EXPECT_GT(results.queries_completed, 0u);
  EXPECT_GT(results.queries_satisfied, 0u);
}

TEST(EndToEnd, ParallelProbesCutResponseTime) {
  auto run = [](std::size_t k) {
    ProtocolParams protocol;
    protocol.parallel_probes = k;
    return simulate(base_system(), protocol);
  };
  auto serial = run(1);
  auto parallel = run(5);
  // §6.2: k parallel probes shrink response time by roughly k while adding
  // at most k-1 probes per query. Tolerances are loose: different runs.
  EXPECT_LT(parallel.response_time.mean(),
            serial.response_time.mean() * 0.6);
  EXPECT_LT(parallel.probes_per_query(),
            serial.probes_per_query() * 1.5 + 5.0);
}

TEST(EndToEnd, ManyDesiredResultsIsHarder) {
  auto run = [](std::size_t desired) {
    SystemParams system = base_system();
    system.num_desired_results = desired;
    return simulate(system, ProtocolParams{});
  };
  auto one = run(1);
  auto ten = run(10);
  EXPECT_GT(ten.unsatisfied_rate(), one.unsatisfied_rate());
  EXPECT_GT(ten.probes_per_query(), one.probes_per_query());
}

TEST(EndToEnd, FastChurnRaisesDeadProbeShare) {
  auto run = [](double multiplier) {
    SystemParams system = base_system();
    system.lifespan_multiplier = multiplier;
    return simulate(system, ProtocolParams{});
  };
  auto stable = run(5.0);
  auto churny = run(0.1);
  EXPECT_GT(churny.dead_probes_per_query(),
            stable.dead_probes_per_query() * 1.5);
  EXPECT_GT(churny.deaths, stable.deaths * 5);
}

TEST(EndToEnd, IntroProbabilityZeroStillWorks) {
  // Newborn peers then only enter circulation via friend-copied caches;
  // the network must keep functioning.
  SystemParams system = base_system();
  ProtocolParams protocol;
  protocol.intro_prob = 0.0;
  auto results = simulate(system, protocol);
  EXPECT_GT(results.queries_satisfied, 0u);
}

TEST(EndToEnd, SmallPongsSlowDiscovery) {
  auto run = [](std::size_t pong_size) {
    ProtocolParams protocol;
    protocol.pong_size = pong_size;
    return simulate(base_system(), protocol);
  };
  auto small = run(1);
  auto large = run(10);
  // Bigger pongs populate the query cache faster.
  EXPECT_GT(large.query_cache_population.mean(),
            small.query_cache_population.mean());
}

TEST(EndToEnd, MaliciousDeadPoisoningRunsCleanly) {
  SystemParams system = base_system();
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kDead;
  auto results = simulate(system, ProtocolParams{});
  EXPECT_GT(results.queries_completed, 0u);
  // Fabricated dead addresses inflate wasted probes.
  EXPECT_GT(results.dead_probes_per_query(), 0.0);
}

}  // namespace
}  // namespace guess
