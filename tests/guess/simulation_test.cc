// A full GUESS run through the one driver, search::run_search: headline
// metrics, reproducibility, connectivity sampling, seed sweeps and their
// averages.
#include <gtest/gtest.h>

#include "search/backend.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

SystemParams test_system() {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 500;
  system.content.query_universe = 625;
  return system;
}

SimulationOptions quick_options(std::uint64_t seed = 42) {
  SimulationOptions options;
  options.seed = seed;
  options.warmup = 120.0;
  options.measure = 600.0;
  return options;
}

search::SearchResults run_unified(
    const SimulationOptions& options = quick_options()) {
  return search::run_search(
      SimulationConfig().system(test_system()).options(options));
}

SimulationResults run(const SimulationOptions& options = quick_options()) {
  return testsupport::guess_results(run_unified(options));
}

TEST(Simulation, RunsAndProducesQueries) {
  search::SearchResults unified = run_unified();
  auto results = testsupport::guess_results(unified);
  EXPECT_GT(results.queries_completed, 100u);
  EXPECT_GT(results.probes.total(), results.queries_completed);
  EXPECT_GT(results.queries_satisfied, 0u);
  EXPECT_LT(results.unsatisfied_rate(), 0.5);
  EXPECT_EQ(unified.network_size, 150u);
  EXPECT_DOUBLE_EQ(unified.measure_duration, 600.0);
}

TEST(Simulation, SameSeedIsBitwiseReproducible) {
  testsupport::expect_identical(run_unified(quick_options(7)),
                                run_unified(quick_options(7)));
}

TEST(Simulation, DifferentSeedsDiffer) {
  auto a = run(quick_options(1));
  auto b = run(quick_options(2));
  EXPECT_NE(a.probes.good, b.probes.good);
}

TEST(Simulation, ResponseTimeConsistentWithProbeSlots) {
  auto results = run();
  // A satisfied query of k probes takes (k-1) × 0.2 s; mean response time
  // must therefore be below probes/query × 0.2.
  EXPECT_GT(results.response_time.mean(), 0.0);
  EXPECT_LT(results.response_time.mean(),
            results.probes_per_query() * 0.2 + 1e-9);
}

TEST(Simulation, ConnectivitySamplingProducesSamples) {
  SimulationOptions options = quick_options();
  options.enable_queries = false;
  options.sample_connectivity = true;
  options.connectivity_sample_interval = 120.0;
  auto results = run(options);
  EXPECT_GE(results.largest_component.count(), 4u);
  EXPECT_GT(results.largest_component.mean(), 0.0);
  EXPECT_LE(results.largest_component.max(), 150.0);
  // Final snapshot: strong ≤ weak ≤ N, both positive for a live overlay.
  EXPECT_GT(results.final_largest_strong_component, 0u);
  EXPECT_LE(results.final_largest_strong_component,
            results.final_largest_component);
  EXPECT_LE(results.final_largest_component, 150u);
}

TEST(Simulation, ConnectivityOffLeavesSnapshotZero) {
  auto results = run();
  EXPECT_EQ(results.final_largest_component, 0u);
  EXPECT_EQ(results.final_largest_strong_component, 0u);
}

TEST(Simulation, RunSeedsProducesOneResultPerSeed) {
  auto runs = testsupport::guess_results(search::run_search_seeds(
      SimulationConfig().system(test_system()).options(quick_options()), 3));
  EXPECT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].probes.good, runs[1].probes.good);
}

TEST(Simulation, AverageAggregatesRuns) {
  auto runs = testsupport::guess_results(search::run_search_seeds(
      SimulationConfig().system(test_system()).options(quick_options()), 2));
  auto avg = average(runs);
  double expected =
      (runs[0].probes_per_query() + runs[1].probes_per_query()) / 2.0;
  EXPECT_NEAR(avg.probes_per_query, expected, 1e-9);
  EXPECT_GT(avg.queries_completed, 0.0);
}

TEST(Simulation, AverageOfNothingIsZeroes) {
  auto avg = average({});
  EXPECT_DOUBLE_EQ(avg.probes_per_query, 0.0);
  EXPECT_DOUBLE_EQ(avg.unsatisfied_rate, 0.0);
}

TEST(Simulation, MetricsDerivationsAreConsistent) {
  auto results = run();
  EXPECT_NEAR(results.probes_per_query(),
              results.good_probes_per_query() +
                  results.dead_probes_per_query() +
                  results.refused_probes_per_query(),
              1e-9);
  EXPECT_GE(results.unsatisfied_rate(), 0.0);
  EXPECT_LE(results.unsatisfied_rate(), 1.0);
}

}  // namespace
}  // namespace guess
