// Proves the query hot path's allocation claim: once the network has warmed
// up — peer slab built, query pool at its concurrency high-water mark,
// candidate heaps / payload pools / dedup bitmaps / pong scratch at
// capacity — steady-state operation (pings, pongs, query submission,
// probing, completion) performs zero heap allocations.
//
// Built as its own test binary because it replaces global operator new /
// delete with counting versions (see tests/sim/event_alloc_test.cc, whose
// pattern this extends from the event core to the full query workload).
//
// Configuration notes: deterministic policies only (kRandom draws are fine
// but the frozen bench workload is the path to pin), detection / payments /
// backoff / adaptive extensions off, and churn slowed to a standstill — a
// death mid-window legitimately allocates (the replacement samples a fresh
// library), so the window is placed where none occur, which the test
// verifies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "content/content_model.h"
#include "guess/link_cache.h"
#include "search/guess.h"
#include "sim/simulator.h"
#include "../testsupport/simulation_results_eq.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace guess {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

class QueryAllocTest : public ::testing::TestWithParam<sim::Scheduler> {};

TEST_P(QueryAllocTest, SteadyStateQueryWorkloadIsAllocationFree) {
  SystemParams system;
  system.network_size = 200;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  // Effectively no churn: median lifetimes stretch far past the run, so no
  // death (and no allocating replacement birth) lands in the window.
  system.lifespan_multiplier = 500.0;
  // The default query rate keeps per-peer utilization below 1 (a hotter
  // rate makes unsatisfiable-query backlogs diverge, and a genuinely
  // growing backlog legitimately reallocates its ring).

  ProtocolParams protocol;  // the frozen bench workload, all deterministic
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.ping_probe = Policy::kLRU;
  protocol.ping_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLR;

  auto config = SimulationConfig().system(system).protocol(protocol);
  sim::Simulator simulator(GetParam());
  search::GuessBackend network(config, simulator, Rng(42));
  network.bootstrap();

  // Warm up: grows the peer slab, event slab, query pool, candidate heaps,
  // dedup sets, pong scratch and per-peer pending rings to their
  // steady-state high-water capacities.
  simulator.run_until(400.0);
  const std::uint64_t deaths_before = network.deaths();

  // Measure. No EXPECTs inside the window (gtest assertions can allocate).
  std::uint64_t before = allocation_count();
  simulator.run_until(700.0);
  std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "steady-state query workload allocated " << (after - before)
      << " times";
  // Window preconditions actually held, and work actually happened.
  EXPECT_EQ(network.deaths(), deaths_before);
  network.begin_measurement();  // after the window: only the final check
  simulator.run_until(800.0);
  auto results = testsupport::guess_results(network.collect());
  EXPECT_GT(results.queries_completed, 100u);
  EXPECT_GT(results.probes.good, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, QueryAllocTest,
                         ::testing::Values(sim::Scheduler::kHeap,
                                           sim::Scheduler::kCalendar),
                         [](const auto& info) {
                           return sim::scheduler_name(info.param);
                         });

// A birth (one per death, and n at bootstrap) samples a library and builds
// a link cache. Each has a fixed allocation budget, independent of size.
TEST(BirthAllocations, SampleLibraryAllocatesAtMostTwice) {
  content::ContentModel model{content::ContentParams{}};
  Rng rng(7);
  for (std::size_t count : {1, 30, 300, 1500}) {
    std::uint64_t before = allocation_count();
    content::Library library = model.sample_library(count, rng);
    std::uint64_t after = allocation_count();
    EXPECT_LE(after - before, 2u) << "count=" << count;
    EXPECT_EQ(library.size(), count);
  }
}

TEST(BirthAllocations, LinkCacheConstructionAllocatesTwice) {
  std::uint64_t before = allocation_count();
  LinkCache cache(0, 100);
  std::uint64_t after = allocation_count();
  // The entry vector and the id index; selection scratch is per thread.
  EXPECT_EQ(after - before, 2u);
  EXPECT_EQ(cache.capacity(), 100u);
}

// A cache under mr-10k's policies (three selection orderings and LR
// retention) costs 36 B per entry (the entry and its 32-bit id) plus 8 B
// per entry and ordering (heap and position -> slot map): 100 x (32 + 4 +
// 4 x 8) = 6800 B, plus the small vector of selection orderings.
TEST(BirthAllocations, ConfiguredLinkCacheFitsItsByteBudget) {
  std::uint64_t before = allocated_bytes();
  LinkCache cache(0, 100);
  cache.configure_indices({Policy::kLRU, Policy::kMFS, Policy::kMR},
                          Replacement::kLR);
  std::uint64_t bytes = allocated_bytes() - before;
  EXPECT_LE(bytes, 7u * 1024u);
  EXPECT_GE(bytes, 6800u);
}

// Sanity: the counters actually count (a direct call cannot be elided).
TEST(QueryAllocCounter, CountsHeapAllocations) {
  std::uint64_t before = allocation_count();
  std::uint64_t bytes_before = allocated_bytes();
  void* p = ::operator new(32);
  ::operator delete(p);
  EXPECT_EQ(allocation_count(), before + 1);
  EXPECT_EQ(allocated_bytes(), bytes_before + 32);
}

}  // namespace
}  // namespace guess
