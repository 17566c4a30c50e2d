// Cross-metric accounting invariants: the per-class splits, probe
// counters and load samples must reconcile exactly with the global
// aggregates for any configuration.
#include <gtest/gtest.h>

#include "search/backend.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

search::SearchResults run_unified(SystemParams system,
                                  std::uint64_t seed = 42) {
  system.content.catalog_size = 500;
  system.content.query_universe = 625;
  SimulationOptions options;
  options.seed = seed;
  options.warmup = 150.0;
  options.measure = 700.0;
  return search::run_search(SimulationConfig().system(system).options(options));
}

SimulationResults run(SystemParams system, std::uint64_t seed = 42) {
  return testsupport::guess_results(run_unified(system, seed));
}

void check_reconciliation(const SimulationResults& results) {
  EXPECT_EQ(results.queries_completed,
            results.honest.queries_completed +
                results.selfish.queries_completed);
  EXPECT_EQ(results.queries_satisfied,
            results.honest.queries_satisfied +
                results.selfish.queries_satisfied);
  EXPECT_EQ(results.probes.good,
            results.honest.probes.good + results.selfish.probes.good);
  EXPECT_EQ(results.probes.dead,
            results.honest.probes.dead + results.selfish.probes.dead);
  EXPECT_EQ(results.probes.refused,
            results.honest.probes.refused + results.selfish.probes.refused);
  EXPECT_EQ(results.response_time.count(),
            results.honest.response_time.count() +
                results.selfish.response_time.count());
  EXPECT_GE(results.queries_completed, results.queries_satisfied);
  EXPECT_GE(results.pings_sent, results.pings_to_dead);
}

TEST(Accounting, AllHonestPopulation) {
  SystemParams system;
  system.network_size = 200;
  search::SearchResults unified = run_unified(system);
  SimulationResults results = testsupport::guess_results(unified);
  check_reconciliation(results);
  EXPECT_EQ(results.selfish.queries_completed, 0u);
  // One load sample per honest peer that existed during measurement:
  // everyone alive at collection plus the corpses.
  EXPECT_GE(results.peer_loads.size(), 200u);
  EXPECT_LE(results.peer_loads.size(), 200u + unified.deaths);
}

TEST(Accounting, MixedSelfishPopulation) {
  SystemParams system;
  system.network_size = 200;
  system.percent_selfish_peers = 25.0;
  auto results = run(system);
  check_reconciliation(results);
  EXPECT_GT(results.selfish.queries_completed, 0u);
  EXPECT_GT(results.honest.queries_completed, 0u);
}

TEST(Accounting, MaliciousPeersExcludedFromLoadsAndQueries) {
  SystemParams system;
  system.network_size = 200;
  system.percent_bad_peers = 20.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  search::SearchResults unified = run_unified(system);
  SimulationResults results = testsupport::guess_results(unified);
  check_reconciliation(results);
  // Attackers issue no queries and contribute no load samples: at most the
  // honest 80% (plus honest corpses) appear.
  EXPECT_LE(results.peer_loads.size(), 160u + unified.deaths);
  EXPECT_GE(results.peer_loads.size(), 160u);
}

TEST(Accounting, SatisfiedResponseTimesOnly) {
  SystemParams system;
  system.network_size = 200;
  auto results = run(system);
  EXPECT_EQ(results.response_time.count(), results.queries_satisfied);
}

}  // namespace
}  // namespace guess
