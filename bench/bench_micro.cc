// Micro-benchmarks (google-benchmark) for the hot data structures: the
// per-probe costs that bound how large a network the simulator can sweep.
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/overlay_graph.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "content/content_model.h"
#include "guess/link_cache.h"
#include "guess/query_execution.h"
#include "sim/event_queue.h"

namespace guess {
namespace {

// Configured with the orderings the benchmarks below select by, as the
// network configures every peer's cache.
LinkCache filled_cache(std::size_t size, Rng& rng) {
  LinkCache cache(0, size);
  cache.configure_indices({Policy::kMFS}, Replacement::kLFS);
  for (PeerId id = 1; id <= size; ++id) {
    cache.insert_free(CacheEntry{
        id, rng.uniform(0.0, 1000.0),
        static_cast<std::uint32_t>(rng.uniform_int(0, 2000)),
        static_cast<std::uint32_t>(rng.uniform_int(0, 5))});
  }
  return cache;
}

void BM_LinkCacheOfferLfs(benchmark::State& state) {
  Rng rng(1);
  LinkCache cache = filled_cache(static_cast<std::size_t>(state.range(0)),
                                 rng);
  PeerId next = 10000;
  for (auto _ : state) {
    CacheEntry entry{next++, 0.0,
                     static_cast<std::uint32_t>(rng.uniform_int(0, 2000)), 0};
    benchmark::DoNotOptimize(cache.offer(entry, Replacement::kLFS, rng));
  }
}
BENCHMARK(BM_LinkCacheOfferLfs)->Arg(20)->Arg(100)->Arg(500);

void BM_LinkCacheOfferRandom(benchmark::State& state) {
  Rng rng(1);
  LinkCache cache = filled_cache(static_cast<std::size_t>(state.range(0)),
                                 rng);
  PeerId next = 10000;
  for (auto _ : state) {
    CacheEntry entry{next++, 0.0, 10, 0};
    benchmark::DoNotOptimize(cache.offer(entry, Replacement::kRandom, rng));
  }
}
BENCHMARK(BM_LinkCacheOfferRandom)->Arg(100)->Arg(500);

// Pong-sized selections through select_top_into with a reused output
// vector, as the network builds every Pong.
void BM_LinkCacheSelectTopMfs(benchmark::State& state) {
  Rng rng(1);
  LinkCache cache = filled_cache(static_cast<std::size_t>(state.range(0)),
                                 rng);
  std::vector<CacheEntry> out;
  for (auto _ : state) {
    cache.select_top_into(Policy::kMFS, 5, rng, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LinkCacheSelectTopMfs)->Arg(20)->Arg(100)->Arg(500);

void BM_LinkCacheSelectTopRandom(benchmark::State& state) {
  Rng rng(1);
  LinkCache cache = filled_cache(static_cast<std::size_t>(state.range(0)),
                                 rng);
  std::vector<CacheEntry> out;
  for (auto _ : state) {
    cache.select_top_into(Policy::kRandom, 5, rng, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LinkCacheSelectTopRandom)->Arg(100)->Arg(500);

// Distinct-index sampling at the pong shape (k = PongSize 5 of a 100-entry
// cache) and the initial-seeding shape (k = 101 of n = 10000 peers).
void BM_SampleIndices(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  for (auto _ : state) {
    rng.sample_indices_into(n, k, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SampleIndices)->Args({100, 5})->Args({10000, 101});

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.8);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(10000)->Arg(100000);

// paper-5k's query-cache shape: one pooled execution re-armed per query,
// 3000 distinct candidates among a run's ~6380 ids (an unsatisfiable
// query's scale: up to 1000 probes, each Pong offering up to five),
// arriving in Pong-sized groups with one probe popped per group.
// range(0) selects the probe policy (0 = Random, 1 = MR).
void BM_QueryCandidateChurn(benchmark::State& state) {
  constexpr PeerId kIds = 6380;
  const Policy policy = state.range(0) == 0 ? Policy::kRandom : Policy::kMR;
  Rng rng(1);
  std::vector<std::size_t> ids = rng.sample_indices(kIds - 1, 3000);
  std::vector<CacheEntry> entries;
  for (std::size_t id : ids) {
    entries.push_back(CacheEntry{
        id + 1, 0.0, 0, static_cast<std::uint32_t>(rng.uniform_int(0, 5))});
  }
  QueryExecution query(0, 1, 1, policy, 0.0);
  for (auto _ : state) {
    query.reset(0, 1, 1, policy, 0.0);
    query.reserve_candidates(120, kIds);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      query.add_candidate(entries[i], rng);
      if (i % 5 == 4) benchmark::DoNotOptimize(query.next_candidate());
    }
    benchmark::DoNotOptimize(query.seen());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_QueryCandidateChurn)->Arg(0)->Arg(1)->ArgName("policy");

// Event-queue benchmarks run under both backends: range(0) selects the
// scheduler (0 = heap, 1 = calendar).
sim::Scheduler bench_scheduler(const benchmark::State& state) {
  return state.range(0) == 0 ? sim::Scheduler::kHeap
                             : sim::Scheduler::kCalendar;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue(bench_scheduler(state));
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(rng.uniform(0.0, 100.0), [] {});
    }
    sim::Time at = 0.0;
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop(at));
    }
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop)
    ->Arg(0)->Arg(1)
    ->ArgName("scheduler");

// Steady-state hold-and-replace: the simulator's dominant pattern (every
// pop schedules a successor), measured per event at a fixed population.
void BM_EventQueueSteadyState(benchmark::State& state) {
  Rng rng(1);
  sim::EventQueue queue(bench_scheduler(state));
  sim::Time now = 0.0;
  for (int i = 0; i < 4096; ++i) {
    queue.schedule(now + rng.uniform(0.0, 10.0), [] {});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.pop(now));
    queue.schedule(now + rng.uniform(0.0, 10.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(0)->Arg(1)->ArgName("scheduler");

// Cancellation-heavy: half the scheduled events are cancelled before they
// can fire, the footprint of churn (peer death revokes its timers).
void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  Rng rng(1);
  sim::EventQueue queue(bench_scheduler(state));
  sim::Time now = 0.0;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 2048; ++i) {
    handles.push_back(queue.schedule(now + rng.uniform(0.0, 10.0), [] {}));
  }
  std::size_t victim = 0;
  for (auto _ : state) {
    auto& h = handles[victim++ % handles.size()];
    // The victim may already have fired via pop; replace it only when the
    // cancel actually removed an event, keeping the population constant.
    bool was_pending = h.pending();
    h.cancel();
    benchmark::DoNotOptimize(queue.pop(now));
    h = queue.schedule(now + rng.uniform(0.0, 10.0), [] {});
    if (!was_pending) continue;
    queue.schedule(now + rng.uniform(0.0, 10.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleCancelPop)
    ->Arg(0)->Arg(1)
    ->ArgName("scheduler");

// Periodic series firing from slab-resident slots: no slot churn at all.
void BM_EventQueuePeriodicFire(benchmark::State& state) {
  sim::EventQueue queue(bench_scheduler(state));
  for (int i = 0; i < 256; ++i) {
    queue.schedule_periodic(1.0 + 0.01 * i, 1.0, [] {});
  }
  sim::Time now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.pop(now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePeriodicFire)->Arg(0)->Arg(1)->ArgName("scheduler");

void BM_OverlayLargestWeakComponent(benchmark::State& state) {
  Rng rng(1);
  auto n = static_cast<std::size_t>(state.range(0));
  analysis::OverlayGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    for (int e = 0; e < 10; ++e) {
      graph.add_edge(i, rng.index(n));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.largest_weak_component());
  }
}
BENCHMARK(BM_OverlayLargestWeakComponent)->Arg(1000)->Arg(5000);

void BM_SampleLibrary(benchmark::State& state) {
  content::ContentModel model{content::ContentParams{}};
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.sample_library(static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_SampleLibrary)->Arg(30)->Arg(300)->Arg(1500);

}  // namespace
}  // namespace guess
