// The ported-silo contract (DESIGN.md §12.2): every legacy protocol driven
// through run_search() is bitwise-identical to its legacy free-standing
// driver — same construction order, same RNG consumption, same event
// schedule. Each test replicates a silo's legacy driver sequence verbatim
// (the sequences the pre-§12 benches used) and compares the legacy results
// struct riding in the extension slot field by field, under both event-queue
// backends. "Bitwise" is literal: doubles compare ==.
//
// GUESS has no driver besides run_search. Its two cases pin run_search to
// golden values recorded from the standalone GUESS driver that run_search
// replaced: the headline counters exactly, plus a 64-bit digest over every
// field testsupport::expect_identical compares.
#include <gtest/gtest.h>

#include "baseline/iterative_deepening.h"
#include "common/check.h"
#include "baseline/static_population.h"
#include "content/content_model.h"
#include "gnutella/dynamic_overlay.h"
#include "onehop/one_hop_dht.h"
#include "search/adapters.h"
#include "search/backend.h"
#include "sim/simulator.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess::search {
namespace {

SystemParams small_system(std::size_t n = 150) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return system;
}

void expect_identical(const RunningStat& a, const RunningStat& b) {
  testsupport::expect_identical(a, b);
}

void expect_identical(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.values(), b.values());
}

class BackendEquivalenceTest : public ::testing::TestWithParam<sim::Scheduler> {
};

// --- GUESS ------------------------------------------------------------------

TEST_P(BackendEquivalenceTest, GuessMatchesLegacySimulation) {
  auto config = SimulationConfig()
                    .system(small_system())
                    .protocol(ProtocolParams{})
                    .seed(11)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(GetParam());

  SearchResults unified = run_search(config);
  const auto* extra = unified.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 560u);
  EXPECT_EQ(extra->queries_satisfied, 529u);
  EXPECT_EQ(extra->probes.good, 8886u);
  EXPECT_EQ(extra->probes.dead, 2620u);
  EXPECT_EQ(extra->probes.refused, 0u);
  EXPECT_EQ(extra->deaths, 55u);
  EXPECT_EQ(extra->pings_sent, 2010u);
  EXPECT_EQ(extra->pings_to_dead, 421u);
  EXPECT_EQ(extra->transport.messages_sent, 13725u);
  EXPECT_EQ(testsupport::digest(*extra), 0x9041bb322fe1c4b7ull);

  // The unified mapping is arithmetic over the GUESS struct.
  EXPECT_EQ(unified.backend, "guess");
  EXPECT_EQ(unified.queries_completed, extra->queries_completed);
  EXPECT_EQ(unified.queries_satisfied, extra->queries_satisfied);
  EXPECT_EQ(unified.probes, extra->probes.total());
  EXPECT_EQ(unified.deaths, extra->deaths);
  EXPECT_EQ(unified.measure_duration, 400.0);
  expect_identical(unified.probe_samples, extra->query_probes);
  EXPECT_GT(unified.bytes_on_wire(), 0u);
  EXPECT_GT(unified.events_fired, 0u);
}

TEST_P(BackendEquivalenceTest, GuessMatchesLegacyUnderFaultsAndLossAndIntervals) {
  // The loaded variant: lossy transport, a fault scenario, the interval
  // series and connectivity sampling all at once — every optional code path
  // of the driver loop.
  auto config = SimulationConfig()
                    .system(small_system())
                    .protocol(ProtocolParams{})
                    .transport(TransportParams::lossy(0.05))
                    .scenario(faults::Scenario::parse(
                        "at 300 kill 0.2\nat 360 join 30"))
                    .metrics_interval(60.0)
                    .sample_connectivity(true)
                    .seed(23)
                    .warmup(200.0)
                    .measure(400.0)
                    .scheduler(GetParam());

  SearchResults unified = run_search(config);
  const auto* extra = unified.extra_as<SimulationResults>();
  ASSERT_NE(extra, nullptr);

  EXPECT_EQ(extra->queries_completed, 526u);
  EXPECT_EQ(extra->queries_satisfied, 491u);
  EXPECT_EQ(extra->probes.good, 6981u);
  EXPECT_EQ(extra->probes.dead, 4547u);
  EXPECT_EQ(extra->probes.refused, 0u);
  EXPECT_EQ(extra->deaths, 53u);
  EXPECT_EQ(extra->pings_sent, 1950u);
  EXPECT_EQ(extra->pings_to_dead, 780u);
  EXPECT_EQ(extra->transport.messages_sent, 13813u);
  EXPECT_EQ(extra->transport.messages_lost, 1317u);
  EXPECT_EQ(extra->transport.timeouts, 1311u);
  EXPECT_EQ(extra->interval_series.size(), 10u);
  EXPECT_EQ(extra->final_largest_component, 150u);
  EXPECT_EQ(extra->final_largest_strong_component, 129u);
  EXPECT_EQ(testsupport::digest(*extra), 0x84823693446d7640ull);

  testsupport::expect_identical(unified.interval_series,
                                extra->interval_series);
}

// --- Gnutella flooding ------------------------------------------------------

void expect_identical(const gnutella::DynamicResults& a,
                      const gnutella::DynamicResults& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_satisfied, b.queries_satisfied);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.peers_reached, b.peers_reached);
  expect_identical(a.response_time, b.response_time);
  expect_identical(a.peer_loads, b.peer_loads);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.repairs, b.repairs);
  expect_identical(a.query_reach, b.query_reach);
}

TEST_P(BackendEquivalenceTest, FloodMatchesLegacyDriver) {
  SystemParams system = small_system();

  // The legacy driver sequence (bench_gnutella_compare's flood lane): the
  // workload fields on DynamicParams, everything else at its defaults —
  // which are exactly the FloodBackendParams defaults.
  gnutella::DynamicParams params;
  params.network_size = system.network_size;
  params.content = system.content;
  params.query_rate = system.query_rate;
  params.num_desired_results = system.num_desired_results;
  params.ttl = FloodBackendParams{}.ttl;
  sim::Simulator simulator(GetParam());
  gnutella::DynamicOverlay overlay(params, simulator, Rng(31));
  overlay.initialize();
  simulator.run_until(200.0);
  overlay.begin_measurement();
  simulator.run_until(600.0);
  gnutella::DynamicResults legacy = overlay.results();

  SearchResults unified = run_search(SimulationConfig()
                                         .system(system)
                                         .backend(SearchBackendId::kFlood)
                                         .seed(31)
                                         .warmup(200.0)
                                         .measure(400.0)
                                         .scheduler(GetParam()));

  const auto* extra = unified.extra_as<gnutella::DynamicResults>();
  ASSERT_NE(extra, nullptr);
  expect_identical(legacy, *extra);

  EXPECT_EQ(unified.backend, "flood");
  EXPECT_EQ(unified.queries_completed, legacy.queries_completed);
  EXPECT_EQ(unified.probes, legacy.peers_reached);
  EXPECT_EQ(unified.query_messages, legacy.messages);
  EXPECT_EQ(unified.maintenance_messages, 2 * legacy.repairs);
  EXPECT_GT(unified.queries_completed, 0u);
}

// --- One-hop DHT ------------------------------------------------------------

void expect_identical(const onehop::OneHopResults& a,
                      const onehop::OneHopResults& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.one_hop, b.one_hop);
  EXPECT_EQ(a.corrective_hops, b.corrective_hops);
  EXPECT_EQ(a.timeouts, b.timeouts);
  expect_identical(a.probes_per_lookup, b.probes_per_lookup);
  expect_identical(a.lookup_probes, b.lookup_probes);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.membership_events, b.membership_events);
}

TEST_P(BackendEquivalenceTest, OneHopMatchesLegacyDriver) {
  SystemParams system = small_system();

  // The legacy driver sequence (bench_onehop's): the adapter maps
  // system.query_rate onto lookup_rate, so the legacy run uses the same
  // value explicitly.
  onehop::OneHopParams params;
  params.network_size = system.network_size;
  params.lifespan_multiplier = system.lifespan_multiplier;
  params.lookup_rate = system.query_rate;
  params.dissemination_delay = OneHopBackendParams{}.dissemination_delay;
  sim::Simulator simulator(GetParam());
  onehop::OneHopDht dht(params, simulator, Rng(37));
  dht.initialize();
  simulator.run_until(200.0);
  dht.begin_measurement();
  simulator.run_until(600.0);
  onehop::OneHopResults legacy = dht.results();

  SearchResults unified = run_search(SimulationConfig()
                                         .system(system)
                                         .backend(SearchBackendId::kOneHop)
                                         .seed(37)
                                         .warmup(200.0)
                                         .measure(400.0)
                                         .scheduler(GetParam()));

  const auto* extra = unified.extra_as<onehop::OneHopResults>();
  ASSERT_NE(extra, nullptr);
  expect_identical(legacy, *extra);

  EXPECT_EQ(unified.backend, "onehop");
  EXPECT_EQ(unified.queries_completed, legacy.lookups);
  EXPECT_EQ(unified.queries_satisfied, legacy.lookups);  // exact-match DHT
  EXPECT_EQ(unified.maintenance_messages,
            legacy.membership_events * system.network_size);
  EXPECT_GT(unified.queries_completed, 0u);
}

// --- Iterative deepening ----------------------------------------------------

TEST_P(BackendEquivalenceTest, IterativeMatchesLegacyDriver) {
  SystemParams system = small_system();

  // The legacy driver sequence (bench_fig08's): model, population from the
  // run's RNG, then the Monte-Carlo batch from the same RNG.
  content::ContentModel model(system.content);
  Rng rng(41);
  baseline::StaticPopulation population(model, system.network_size, rng);
  baseline::DeepeningResult legacy = baseline::evaluate_iterative_deepening(
      population, model, baseline::default_schedule(system.network_size),
      kIterativeQueries,
      static_cast<std::uint32_t>(system.num_desired_results), rng);

  SearchResults unified = run_search(SimulationConfig()
                                         .system(system)
                                         .backend(SearchBackendId::kIterative)
                                         .seed(41)
                                         .scheduler(GetParam()));

  const auto* extra = unified.extra_as<baseline::DeepeningResult>();
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(legacy.avg_cost, extra->avg_cost);
  EXPECT_EQ(legacy.unsatisfied_rate, extra->unsatisfied_rate);

  EXPECT_EQ(unified.backend, "iterative");
  EXPECT_EQ(unified.queries_completed, kIterativeQueries);
  EXPECT_EQ(unified.probe_samples.size(), kIterativeQueries);
  EXPECT_GT(unified.probes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, BackendEquivalenceTest,
                         ::testing::Values(sim::Scheduler::kHeap,
                                           sim::Scheduler::kCalendar),
                         [](const auto& info) {
                           return sim::scheduler_name(info.param);
                         });

// --- registry ---------------------------------------------------------------

TEST(BackendRegistry, AllFiveBackendsRegistered) {
  std::vector<SearchBackendId> ids = registered_backends();
  ASSERT_EQ(ids.size(), 5u);
  for (SearchBackendId id : ids) {
    sim::Simulator simulator;
    auto backend = make_backend(
        SimulationConfig().system(small_system(50)).backend(id), simulator,
        Rng(1));
    ASSERT_NE(backend, nullptr);
    EXPECT_STREQ(backend->name(), backend_name(id));
  }
}

TEST(BackendRegistry, BackendNamesRoundTrip) {
  for (SearchBackendId id : registered_backends()) {
    EXPECT_EQ(parse_backend(backend_name(id)), id);
  }
  EXPECT_THROW(parse_backend("carrier-pigeon"), CheckError);
}

TEST(BackendRegistry, NonGuessBackendsRejectUnsupportedFaults) {
  sim::Simulator simulator;
  auto backend = make_backend(SimulationConfig()
                                  .system(small_system(50))
                                  .backend(SearchBackendId::kFlood),
                              simulator, Rng(1));
  EXPECT_THROW(backend->fault_set_poisoning(true), CheckError);
  EXPECT_THROW(backend->fault_set_partition(2), CheckError);
}

TEST(BackendRegistry, EveryBackendSupportsMassKillAndJoin) {
  for (SearchBackendId id : registered_backends()) {
    sim::Simulator simulator;
    auto backend = make_backend(
        SimulationConfig().system(small_system(50)).backend(id), simulator,
        Rng(1));
    backend->bootstrap();
    std::size_t before = backend->live_peers();
    EXPECT_NO_THROW(backend->fault_mass_kill(0.2)) << backend->name();
    EXPECT_LT(backend->live_peers(), before) << backend->name();
    EXPECT_NO_THROW(backend->fault_mass_join(10)) << backend->name();
  }
}

}  // namespace
}  // namespace guess::search
