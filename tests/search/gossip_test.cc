// Gossip backend (DESIGN.md §12.4): rumor spread, TTL/staleness expiry,
// query-tier resolution, fault handling, and the determinism contracts every
// backend inherits (scheduler- and thread-count-independence).
#include "search/gossip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "sim/simulator.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess::search {
namespace {

SystemParams tiny_system(std::size_t n) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 60;
  system.content.query_universe = 80;
  system.num_desired_results = 1;
  // Effectively no churn / no background query bursts: tests drive rounds
  // and queries by hand and advance time through an empty event queue.
  system.lifespan_multiplier = 500.0;
  system.query_rate = 1e-9;
  return system;
}

/// A two-peer world with huge timer periods: gossip_now() is the only way
/// ads move, and the partner draw has exactly one choice.
SimulationConfig pair_config(double ad_ttl = 50.0) {
  GossipBackendParams tuning;
  tuning.gossip_interval = 1e9;
  tuning.fanout = 1;
  tuning.ad_ttl = ad_ttl;
  tuning.ads_per_exchange = 8;
  tuning.residual_pushes = 2;
  return SimulationConfig().system(tiny_system(2)).gossip(tuning);
}

/// First file `id` has a cached ad for, scanning the catalog; the content
/// catalog is small enough to scan exhaustively.
content::FileId first_known_file(const GossipBackend& backend,
                                 std::uint64_t id,
                                 std::size_t catalog_size) {
  for (content::FileId file = 0; file < catalog_size; ++file) {
    if (backend.knows(id, file)) return file;
  }
  return content::kNonexistentFile;
}

/// A two-peer world where gossip verifiably flowed: `knower` holds a cached
/// ad for `file`, and `provider` (the only other peer) is its source and
/// owns the file. Peer libraries come from the paper's sharing
/// distribution, which includes free riders sharing nothing — some seeds
/// are silent worlds, so construction scans seeds until rumors flow. The
/// scan is deterministic: the same seed succeeds every run.
struct PairWorld {
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<GossipBackend> backend;
  std::uint64_t provider = 0;
  std::uint64_t knower = 0;
  content::FileId file = 0;
};

PairWorld make_pair_world(const SimulationConfig& config,
                          std::uint64_t start_seed = 1) {
  std::size_t catalog = config.system().content.catalog_size;
  for (std::uint64_t seed = start_seed; seed < start_seed + 64; ++seed) {
    PairWorld world;
    world.simulator = std::make_unique<sim::Simulator>();
    world.backend =
        std::make_unique<GossipBackend>(config, *world.simulator, Rng(seed));
    world.backend->bootstrap();
    std::uint64_t a = world.backend->alive_ids()[0];
    std::uint64_t b = world.backend->alive_ids()[1];
    for (int round = 0; round < 8; ++round) {
      world.backend->gossip_now(a);
      world.backend->gossip_now(b);
    }
    for (std::uint64_t knower : {a, b}) {
      content::FileId file = first_known_file(*world.backend, knower, catalog);
      if (file == content::kNonexistentFile) continue;
      world.knower = knower;
      world.provider = knower == a ? b : a;  // the only possible source
      world.file = file;
      return world;
    }
  }
  ADD_FAILURE() << "no seed in [" << start_seed << ", " << start_seed + 64
                << ") produced a flowing two-peer world";
  return PairWorld{};
}

TEST(Gossip, ExchangeSpreadsAdsIntoKnowledgeCaches) {
  PairWorld world = make_pair_world(pair_config());
  ASSERT_NE(world.backend, nullptr);
  // The cached ad names a file its provider actually owns: a fresh-enough
  // query resolves through it (knowledge hit, one fetch probe).
  EXPECT_GT(world.backend->knowledge_entries(world.knower), 0u);
  world.backend->begin_measurement();
  world.backend->submit_query(world.knower, world.file);
  SearchResults results = world.backend->collect();
  const auto* stats = results.extra_as<GossipStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(results.queries_satisfied, 1u);
  EXPECT_EQ(stats->knowledge_hits, 1u);
  EXPECT_EQ(stats->fallback_queries, 0u);
  EXPECT_EQ(results.probes, 1u);  // one direct fetch from the provider
}

TEST(Gossip, ExpiredAdsAreDiscardedOnAccessAndCounted) {
  SimulationConfig config = pair_config(/*ad_ttl=*/50.0);
  PairWorld world = make_pair_world(config);
  ASSERT_NE(world.backend, nullptr);

  // Past the TTL the cached ad is stale: discarded on access, tallied, and
  // the query falls back to direct probing.
  world.simulator->run_until(60.0);  // > ad_ttl; timer phases are ~1e9
  ASSERT_TRUE(world.backend->knows(world.knower, world.file));
  world.backend->begin_measurement();
  world.backend->submit_query(world.knower, world.file);
  SearchResults stale = world.backend->collect();
  const auto* stats = stale.extra_as<GossipStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->stale_ads_expired, 1u);
  EXPECT_EQ(stats->knowledge_hits, 0u);
  EXPECT_FALSE(world.backend->knows(world.knower, world.file));
}

TEST(Gossip, DeadProviderAdsAreDiscardedOnAccessAndCounted) {
  SimulationConfig config = pair_config(/*ad_ttl=*/1e6);
  // The mass-kill victim draw is random; scan worlds until the draw takes
  // the provider and leaves the knower (deterministic, like the seed scan).
  for (std::uint64_t start = 1; start < 256; start += 1) {
    PairWorld world = make_pair_world(config, start);
    ASSERT_NE(world.backend, nullptr);
    world.backend->fault_mass_kill(0.5);  // one of the two, at random
    if (!world.backend->alive_ids().empty() &&
        world.backend->alive_ids()[0] == world.knower) {
      world.backend->begin_measurement();
      world.backend->submit_query(world.knower, world.file);
      SearchResults results = world.backend->collect();
      const auto* stats = results.extra_as<GossipStats>();
      ASSERT_NE(stats, nullptr);
      EXPECT_GE(stats->stale_ads_dead, 1u);
      EXPECT_EQ(stats->knowledge_hits, 0u);
      EXPECT_FALSE(world.backend->knows(world.knower, world.file));
      return;
    }
  }
  FAIL() << "no kill draw ever took the provider and spared the knower";
}

TEST(Gossip, OwnLibraryHitResolvesWithZeroProbes) {
  PairWorld world = make_pair_world(pair_config());
  ASSERT_NE(world.backend, nullptr);
  // The provider owns the advertised file, so its own query for it is a
  // tier-1 local hit: satisfied with zero probes and zero wait.
  world.backend->begin_measurement();
  world.backend->submit_query(world.provider, world.file);
  SearchResults results = world.backend->collect();
  const auto* stats = results.extra_as<GossipStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->local_hits, 1u);
  EXPECT_EQ(results.queries_satisfied, 1u);
  EXPECT_EQ(results.probes, 0u);
  EXPECT_EQ(results.response_time.min(), 0.0);
}

TEST(Gossip, PartitionSeversQueriesAndClearingHeals) {
  SimulationConfig config = pair_config(/*ad_ttl=*/1e6);
  PairWorld world = make_pair_world(config);
  ASSERT_NE(world.backend, nullptr);

  // Each fault_set_partition redraws groups; with 8 ways the pair usually
  // separates. Severed links drop the knowledge fetch AND the fallback
  // probes, so the query goes unsatisfied — the observable sever signal.
  bool severed = false;
  for (int attempt = 0; attempt < 64 && !severed; ++attempt) {
    world.backend->fault_set_partition(8);
    world.backend->begin_measurement();
    world.backend->submit_query(world.knower, world.file);
    SearchResults results = world.backend->collect();
    severed = results.queries_satisfied == 0;
  }
  ASSERT_TRUE(severed) << "partition draws never separated the pair";
  // The unanswered probe must not have evicted the ad (the provider is
  // alive, the ad fresh — only delivery failed).
  EXPECT_TRUE(world.backend->knows(world.knower, world.file));

  // Healing the partition restores resolution through the same ad.
  world.backend->fault_clear_partition();
  world.backend->begin_measurement();
  world.backend->submit_query(world.knower, world.file);
  SearchResults healed = world.backend->collect();
  const auto* stats = healed.extra_as<GossipStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(healed.queries_satisfied, 1u);
  EXPECT_EQ(stats->knowledge_hits, 1u);
}

TEST(Gossip, MassJoinGrowsPopulation) {
  sim::Simulator simulator;
  GossipBackend backend(pair_config(), simulator, Rng(9));
  backend.bootstrap();
  EXPECT_EQ(backend.live_peers(), 2u);
  backend.fault_mass_join(3);
  EXPECT_EQ(backend.live_peers(), 5u);
  EXPECT_THROW(backend.fault_set_poisoning(true), CheckError);
}

// --- full-run determinism contracts ----------------------------------------

SimulationConfig run_config() {
  SystemParams system;
  system.network_size = 200;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return SimulationConfig()
      .system(system)
      .backend(SearchBackendId::kGossip)
      .seed(17)
      .warmup(150.0)
      .measure(300.0);
}

void expect_identical(const SearchResults& a, const SearchResults& b) {
  testsupport::expect_identical(a, b);
  const auto* ea = a.extra_as<GossipStats>();
  const auto* eb = b.extra_as<GossipStats>();
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(ea->local_hits, eb->local_hits);
  EXPECT_EQ(ea->knowledge_hits, eb->knowledge_hits);
  EXPECT_EQ(ea->fallback_queries, eb->fallback_queries);
  EXPECT_EQ(ea->stale_ads_expired, eb->stale_ads_expired);
  EXPECT_EQ(ea->stale_ads_dead, eb->stale_ads_dead);
  EXPECT_EQ(ea->gossip_exchanges, eb->gossip_exchanges);
  EXPECT_EQ(ea->gossip_legs, eb->gossip_legs);
  EXPECT_EQ(ea->ads_sent, eb->ads_sent);
  testsupport::expect_identical(ea->knowledge_size, eb->knowledge_size);
}

TEST(GossipDeterminism, SchedulerChoiceNeverChangesResults) {
  SearchResults heap =
      run_search(run_config().scheduler(sim::Scheduler::kHeap));
  SearchResults calendar =
      run_search(run_config().scheduler(sim::Scheduler::kCalendar));
  expect_identical(heap, calendar);
  EXPECT_GT(heap.queries_completed, 0u);
  EXPECT_GT(heap.maintenance_messages, 0u);
}

TEST(GossipDeterminism, SeedSweepIsThreadCountInvariant) {
  const int seeds = 4;
  std::vector<SearchResults> serial =
      run_search_seeds(run_config().threads(1), seeds);
  std::vector<SearchResults> threaded =
      run_search_seeds(run_config().threads(4), seeds);
  ASSERT_EQ(serial.size(), threaded.size());
  for (int i = 0; i < seeds; ++i) {
    SCOPED_TRACE("seed offset " + std::to_string(i));
    expect_identical(serial[static_cast<std::size_t>(i)],
                     threaded[static_cast<std::size_t>(i)]);
  }
  // Distinct seeds produce distinct runs (the sweep actually varies).
  EXPECT_NE(serial[0].probes, serial[1].probes);
}

TEST(GossipDeterminism, WarmNetworkAnswersSomeQueriesWithoutFallback) {
  SearchResults results = run_search(run_config());
  const auto* stats = results.extra_as<GossipStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->local_hits + stats->knowledge_hits, 0u);
  EXPECT_GT(stats->gossip_legs, 0u);
  EXPECT_GT(stats->knowledge_size.mean(), 0.0);
  // A hit resolved before fallback is necessarily satisfied; every fallback
  // started as a completed query.
  EXPECT_LE(stats->local_hits + stats->knowledge_hits,
            results.queries_satisfied);
  EXPECT_LE(stats->fallback_queries, results.queries_completed);
}

TEST(GossipDeterminism, IntervalSeriesCoversRunAndCountsQueries) {
  SearchResults results = run_search(run_config().metrics_interval(75.0));
  ASSERT_GT(results.interval_series.size(), 0u);
  std::uint64_t total = 0;
  for (const IntervalSample& sample : results.interval_series) {
    EXPECT_GT(sample.live_peers, 0u);
    total += sample.queries_completed;
  }
  // Intervals span warmup + measure, so they see at least the measured load.
  EXPECT_GE(total, results.queries_completed);
}

}  // namespace
}  // namespace guess::search
