// Queue-contention stress for ParallelRunner, sized so that ThreadSanitizer
// in CI gets many worker hand-offs to race-check: many more replications than
// workers, with tiny measure windows so jobs finish (and re-contend the
// queue) quickly.
#include "experiments/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "search/backend.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess::experiments {
namespace {

TEST(ParallelStress, ThirtyTwoReplicationsOnFourThreads) {
  SystemParams system;
  system.network_size = 80;
  system.content.catalog_size = 200;
  system.content.query_universe = 250;

  SimulationOptions options;
  options.seed = 5000;
  options.warmup = 20.0;
  options.measure = 60.0;  // tiny window: jobs churn through the queue fast
  options.threads = 4;

  const int kSeeds = 32;
  auto parallel = search::run_search_seeds(
      SimulationConfig().system(system).protocol(ProtocolParams{}).options(
          options),
      kSeeds);
  ASSERT_EQ(parallel.size(), static_cast<std::size_t>(kSeeds));

  SimulationOptions serial = options;
  serial.threads = 1;
  auto golden = search::run_search_seeds(
      SimulationConfig().system(system).protocol(ProtocolParams{}).options(
          serial),
      kSeeds);
  for (int i = 0; i < kSeeds; ++i) {
    SCOPED_TRACE("seed index " + std::to_string(i));
    testsupport::expect_identical(parallel[static_cast<std::size_t>(i)],
                                  golden[static_cast<std::size_t>(i)]);
  }
}

TEST(ParallelStress, ManyTrivialBatchesOnOnePool) {
  // Trivial jobs maximize time spent in the queue/condvar machinery itself.
  ParallelRunner runner(4);
  for (int batch = 0; batch < 6; ++batch) {
    const int kJobs = 512;
    std::atomic<std::int64_t> sum{0};
    std::vector<int> slots(kJobs, -1);
    runner.run(kJobs, [&](int i) {
      slots[static_cast<std::size_t>(i)] = i * i;
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kJobs) * (kJobs - 1) / 2);
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_EQ(slots[static_cast<std::size_t>(i)], i * i);
    }
  }
}

TEST(ParallelStress, ProgressUnderContention) {
  ParallelRunner runner(4);
  int last = 0;
  runner.run(
      128, [](int) {},
      [&](int done, int total) {
        // Calls are serialized under the pool mutex and strictly increasing.
        EXPECT_EQ(done, last + 1);
        EXPECT_EQ(total, 128);
        last = done;
      });
  EXPECT_EQ(last, 128);
}

}  // namespace
}  // namespace guess::experiments
