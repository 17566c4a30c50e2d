// ParallelRunner: pool mechanics (ordering, exceptions, progress, reuse) and
// the property the whole subsystem exists to preserve — run_search_seeds
// results are bitwise-identical to the serial baseline for every thread
// count.
#include "experiments/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "search/backend.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess::experiments {
namespace {

SystemParams small_system() {
  SystemParams system;
  system.network_size = 120;
  system.content.catalog_size = 300;
  system.content.query_universe = 375;
  return system;
}

SimulationOptions small_options() {
  SimulationOptions options;
  options.seed = 77;
  options.warmup = 60.0;
  options.measure = 300.0;
  return options;
}

/// The serial baseline the parallel paths must match bit for bit: one
/// independent run_search per seed, run in the calling thread.
std::vector<search::SearchResults> serial_baseline(
    const SystemParams& system, const SimulationOptions& base,
    int num_seeds) {
  std::vector<search::SearchResults> runs;
  for (int i = 0; i < num_seeds; ++i) {
    SimulationOptions opt = base;
    opt.seed = base.seed + static_cast<std::uint64_t>(i);
    runs.push_back(search::run_search(
        SimulationConfig().system(system).protocol(ProtocolParams{}).options(
            opt)));
  }
  return runs;
}

// --- the golden determinism property (ISSUE acceptance criterion) ---

TEST(ParallelRunSeeds, BitwiseIdenticalToSerialAcrossThreadCounts) {
  const int kSeeds = 5;
  SystemParams system = small_system();
  SimulationOptions base = small_options();
  auto golden = serial_baseline(system, base, kSeeds);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulationOptions options = base;
    options.threads = threads;
    auto runs = search::run_search_seeds(
        SimulationConfig().system(system).protocol(ProtocolParams{}).options(
            options),
        kSeeds);
    ASSERT_EQ(runs.size(), golden.size());
    for (int i = 0; i < kSeeds; ++i) {
      SCOPED_TRACE("seed index " + std::to_string(i));
      testsupport::expect_identical(runs[i], golden[i]);
    }
  }
}

// --- pool mechanics ---

TEST(ParallelRunner, ResultsOrderedByIndexNotCompletion) {
  // Early jobs sleep longest, so completion order is roughly the reverse of
  // index order; map() must still return index order.
  ParallelRunner runner(4);
  const int kJobs = 8;
  auto out = runner.map<int>(kJobs, [&](int i) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((kJobs - i) * 10));
    return i * 10;
  });
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10);
}

TEST(ParallelRunner, WorkerExceptionPropagatesToCaller) {
  ParallelRunner runner(4);
  EXPECT_THROW(
      runner.run(8,
                 [](int i) {
                   if (i == 3) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
}

TEST(ParallelRunner, LowestIndexExceptionWinsAndOtherJobsStillRun) {
  ParallelRunner runner(4);
  std::atomic<int> ran{0};
  try {
    runner.run(8, [&](int i) {
      ran.fetch_add(1);
      if (i == 6) throw std::runtime_error("boom 6");
      if (i == 2) throw std::runtime_error("boom 2");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Deterministic choice regardless of which worker finished first.
    EXPECT_STREQ(e.what(), "boom 2");
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelRunner, CheckErrorCrossesThePool) {
  // CheckError is what replications throw on invalid parameters; it must
  // surface to the caller like any other exception.
  ParallelRunner runner(2);
  EXPECT_THROW(runner.run(4,
                          [](int i) {
                            if (i == 1) GUESS_CHECK_MSG(false, "worker died");
                          }),
               CheckError);
}

TEST(ParallelRunner, ProgressReportsEveryCompletionInOrder) {
  ParallelRunner runner(4);
  std::vector<std::pair<int, int>> calls;  // serialized under the pool mutex
  runner.run(
      16, [](int) {},
      [&](int done, int total) { calls.emplace_back(done, total); });
  ASSERT_EQ(calls.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(calls[static_cast<std::size_t>(i)].first, i + 1);
    EXPECT_EQ(calls[static_cast<std::size_t>(i)].second, 16);
  }
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner runner(3);
  EXPECT_EQ(runner.threads(), 3);
  auto first = runner.map<int>(5, [](int i) { return i + 1; });
  auto second = runner.map<int>(9, [](int i) { return i * 2; });
  EXPECT_EQ(first, (std::vector<int>{1, 2, 3, 4, 5}));
  ASSERT_EQ(second.size(), 9u);
  EXPECT_EQ(second[8], 16);
}

TEST(ParallelRunner, EmptyBatchReturnsImmediately) {
  ParallelRunner runner(2);
  EXPECT_TRUE(runner.map<int>(0, [](int i) { return i; }).empty());
}

// --- thread-count resolution (SimulationOptions::threads / GUESS_THREADS) ---

TEST(ResolveThreadCount, ExplicitRequestWins) {
  ::setenv("GUESS_THREADS", "5", 1);
  EXPECT_EQ(resolve_thread_count(3), 3);
  ::unsetenv("GUESS_THREADS");
}

TEST(ResolveThreadCount, EnvironmentOverridesAuto) {
  ::setenv("GUESS_THREADS", "5", 1);
  EXPECT_EQ(resolve_thread_count(0), 5);
  ::unsetenv("GUESS_THREADS");
}

TEST(ResolveThreadCount, MalformedEnvironmentRejected) {
  ::setenv("GUESS_THREADS", "many", 1);
  EXPECT_THROW(resolve_thread_count(0), CheckError);
  ::setenv("GUESS_THREADS", "0", 1);
  EXPECT_THROW(resolve_thread_count(0), CheckError);
  ::unsetenv("GUESS_THREADS");
}

TEST(ResolveThreadCount, AutoIsAtLeastOne) {
  ::unsetenv("GUESS_THREADS");
  EXPECT_GE(resolve_thread_count(0), 1);
}

TEST(ResolveThreadCount, NegativeRequestRejected) {
  EXPECT_THROW(resolve_thread_count(-1), CheckError);
}

TEST(ParallelRunSeeds, HonorsGuessThreadsEnvironment) {
  ::setenv("GUESS_THREADS", "2", 1);
  SystemParams system = small_system();
  SimulationOptions options = small_options();
  options.measure = 120.0;
  auto env_runs = search::run_search_seeds(
      SimulationConfig().system(system).protocol(ProtocolParams{}).options(
          options),
      3);
  ::unsetenv("GUESS_THREADS");
  auto golden = serial_baseline(system, options, 3);
  ASSERT_EQ(env_runs.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    testsupport::expect_identical(env_runs[static_cast<std::size_t>(i)],
                                  golden[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace guess::experiments
