// Determinism across every simulator in the repository: identical
// (parameters, seed) must give identical results, the property that makes
// trace-based debugging and CI regression pinning possible.
#include <gtest/gtest.h>

#include "faults/fault_engine.h"
#include "gnutella/dynamic_overlay.h"
#include "guess/network.h"
#include "onehop/one_hop_dht.h"
#include "search/backend.h"
#include "sim/simulator.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

TEST(Determinism, DynamicGnutellaOverlay) {
  auto run = [](std::uint64_t seed) {
    gnutella::DynamicParams params;
    params.network_size = 150;
    params.lifespan_multiplier = 0.2;
    params.content.catalog_size = 400;
    params.content.query_universe = 500;
    sim::Simulator simulator;
    gnutella::DynamicOverlay overlay(params, simulator, Rng(seed));
    overlay.initialize();
    simulator.run_until(200.0);
    overlay.begin_measurement();
    simulator.run_until(900.0);
    return overlay.results();
  };
  auto a = run(11);
  auto b = run(11);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_satisfied, b.queries_satisfied);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.repairs, b.repairs);
  auto c = run(12);
  EXPECT_NE(a.messages, c.messages);
}

TEST(Determinism, OneHopDht) {
  auto run = [](std::uint64_t seed) {
    onehop::OneHopParams params;
    params.network_size = 150;
    params.lifespan_multiplier = 0.1;
    sim::Simulator simulator;
    onehop::OneHopDht dht(params, simulator, Rng(seed));
    dht.initialize();
    simulator.run_until(300.0);
    dht.begin_measurement();
    simulator.run_until(2000.0);
    return dht.results();
  };
  auto a = run(21);
  auto b = run(21);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.one_hop, b.one_hop);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.membership_events, b.membership_events);
}

TEST(Determinism, GuessWithEveryExtensionEnabled) {
  auto run = [](std::uint64_t seed) {
    SystemParams system;
    system.network_size = 200;
    system.content.catalog_size = 400;
    system.content.query_universe = 500;
    system.percent_bad_peers = 10.0;
    system.bad_pong_behavior = BadPongBehavior::kBad;
    system.percent_selfish_peers = 10.0;
    ProtocolParams protocol;
    protocol.query_probe = Policy::kMR;
    protocol.query_pong = Policy::kMR;
    protocol.cache_replacement = Replacement::kLR;
    protocol.payments = true;
    protocol.detection.enabled = true;
    protocol.pong_server_reseed = true;
    protocol.adaptive_ping = true;
    protocol.adaptive_parallel = true;
    protocol.do_backoff = true;
    SimulationOptions options;
    options.seed = seed;
    options.warmup = 150.0;
    options.measure = 600.0;
    return testsupport::guess_results(search::run_search(
        SimulationConfig().system(system).protocol(protocol).options(
            options)));
  };
  auto a = run(31);
  auto b = run(31);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.probes.good, b.probes.good);
  EXPECT_EQ(a.probes.dead, b.probes.dead);
  EXPECT_EQ(a.probes.refused, b.probes.refused);
  EXPECT_EQ(a.queries_stalled_out, b.queries_stalled_out);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_DOUBLE_EQ(a.cache_health.good_entries, b.cache_health.good_entries);
}

// The scheduler backend is pure mechanism: heap and calendar queues pop the
// identical (time, seq) sequence, so a full GUESS simulation — churn,
// adaptive extensions, malicious peers and all — must produce bitwise
// identical results under either backend.
TEST(Determinism, HeapAndCalendarSchedulersBitwiseIdentical) {
  auto run = [](sim::Scheduler scheduler) {
    SystemParams system;
    system.network_size = 200;
    system.lifespan_multiplier = 0.5;  // churn-heavy: exercises cancels
    system.content.catalog_size = 400;
    system.content.query_universe = 500;
    system.percent_bad_peers = 10.0;
    system.bad_pong_behavior = BadPongBehavior::kBad;
    ProtocolParams protocol;
    protocol.query_probe = Policy::kMR;
    protocol.cache_replacement = Replacement::kLR;
    protocol.adaptive_ping = true;
    protocol.do_backoff = true;
    SimulationOptions options;
    options.seed = 77;
    options.warmup = 150.0;
    options.measure = 600.0;
    options.scheduler = scheduler;
    return testsupport::guess_results(search::run_search(
        SimulationConfig().system(system).protocol(protocol).options(
            options)));
  };
  auto heap = run(sim::Scheduler::kHeap);
  auto calendar = run(sim::Scheduler::kCalendar);
  testsupport::expect_identical(heap, calendar);
}

// LossyTransport schedules real timeout/retry/delivery events, so it is the
// sharpest probe of scheduler equivalence: both backends must drain the
// fault-injected event stream in the identical order.
TEST(Determinism, LossyTransportHeapAndCalendarBitwiseIdentical) {
  auto run = [](sim::Scheduler scheduler) {
    SystemParams system;
    system.network_size = 150;
    system.lifespan_multiplier = 0.5;
    system.content.catalog_size = 400;
    system.content.query_universe = 500;
    TransportParams transport = TransportParams::lossy(0.1);
    transport.max_retries = 2;
    auto config = SimulationConfig()
                      .system(system)
                      .transport(transport)
                      .seed(77)
                      .warmup(150.0)
                      .measure(600.0)
                      .scheduler(scheduler);
    return testsupport::guess_results(search::run_search(config));
  };
  auto heap = run(sim::Scheduler::kHeap);
  auto calendar = run(sim::Scheduler::kCalendar);
  testsupport::expect_identical(heap, calendar);
  EXPECT_GT(heap.transport.timeouts, 0u);  // the faults actually fired
}

// The acceptance criterion of the fault-scenario engine: a kill-30%-then-
// recover scenario — mass kill, flash-crowd rejoin, a partition window and
// a degradation window, with the interval series on — must be bitwise
// identical under the heap and calendar schedulers. Fault events, window
// ends and interval samples all collide at round timestamps, so this leans
// on the (time, seq) tie-ordering harder than any other run in the suite.
TEST(Determinism, FaultScenarioHeapAndCalendarBitwiseIdentical) {
  auto run = [](sim::Scheduler scheduler) {
    SystemParams system;
    system.network_size = 150;
    system.lifespan_multiplier = 0.5;
    system.content.catalog_size = 400;
    system.content.query_universe = 500;
    system.percent_bad_peers = 10.0;
    system.bad_pong_behavior = BadPongBehavior::kBad;
    TransportParams transport = TransportParams::lossy(0.05);
    transport.max_retries = 2;
    auto config =
        SimulationConfig()
            .system(system)
            .transport(transport)
            .scenario(faults::Scenario::parse(
                "at 250 kill 0.3; at 250 poison off; "
                "at 300 partition 2 for 100; "
                "at 450 degrade loss=0.3 latency=2 for 50; at 550 join 60"))
            .metrics_interval(50.0)
            .seed(77)
            .warmup(150.0)
            .measure(600.0)
            .scheduler(scheduler);
    return testsupport::guess_results(search::run_search(config));
  };
  auto heap = run(sim::Scheduler::kHeap);
  auto calendar = run(sim::Scheduler::kCalendar);
  testsupport::expect_identical(heap, calendar);
  // The scenario actually bit: population dipped to 105 and rebounded.
  // The sample closing exactly at the kill instant (end = 250) already
  // reflects the post-kill population: fault events win the time tie.
  ASSERT_GE(heap.interval_series.size(), 15u);
  EXPECT_EQ(heap.interval_series[3].live_peers, 150u);   // 150..200
  EXPECT_EQ(heap.interval_series[4].live_peers, 105u);   // 200..250
  EXPECT_EQ(heap.interval_series.back().live_peers, 165u);
  EXPECT_GT(heap.transport.exchanges_failed, 0u);
}

// Every adversary in the zoo (DESIGN.md §11) must be pure simulation: for
// each attack kind, a hardened-detection run under lossy transport — the
// configuration where attacks touch the most machinery (adversary spawns,
// sybil respawn timers, severed exchanges resolving as timeouts, oversize
// truncation, no-reply charging) — must be bitwise identical under the heap
// and calendar schedulers, AttackStats included.
TEST(Determinism, EachAttackHeapAndCalendarBitwiseIdentical) {
  struct Case {
    const char* name;
    const char* spec;
  };
  const Case kCases[] = {
      {"eclipse", "at 200 attack eclipse frac=0.1 for 200"},
      {"sybil", "at 200 attack sybil frac=0.1 for 200"},
      {"pong-flood", "at 200 attack pong-flood frac=0.1 for 200"},
      {"withhold", "at 200 attack withhold frac=0.1 for 200"},
  };
  for (const Case& attack : kCases) {
    SCOPED_TRACE(attack.name);
    auto run = [&](sim::Scheduler scheduler) {
      SystemParams system;
      system.network_size = 150;
      system.lifespan_multiplier = 0.5;
      system.content.catalog_size = 400;
      system.content.query_universe = 500;
      ProtocolParams protocol;
      protocol.query_probe = Policy::kMR;
      protocol.query_pong = Policy::kMR;
      protocol.detection = DetectionParams::hardened();
      protocol.do_backoff = true;
      TransportParams transport = TransportParams::lossy(0.05);
      transport.max_retries = 2;
      auto config = SimulationConfig()
                        .system(system)
                        .protocol(protocol)
                        .transport(transport)
                        .scenario(faults::Scenario::parse(attack.spec))
                        .metrics_interval(50.0)
                        .seed(77)
                        .warmup(150.0)
                        .measure(450.0)
                        .scheduler(scheduler);
      return testsupport::guess_results(search::run_search(config));
    };
    auto heap = run(sim::Scheduler::kHeap);
    auto calendar = run(sim::Scheduler::kCalendar);
    testsupport::expect_identical(heap, calendar);
    EXPECT_GT(heap.attack.adversaries_spawned, 0u);  // the attack ran
    // The window closed inside the run: every spawn (respawns included)
    // was matched by a retirement.
    EXPECT_EQ(heap.attack.adversaries_spawned,
              heap.attack.adversaries_retired);
  }
}

// All four attacks layered into one scenario, swept across worker-thread
// counts: the pooled replication path must not perturb a single counter.
TEST(Determinism, AttackGauntletIdenticalAcrossThreadCounts) {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  ProtocolParams protocol;
  protocol.detection = DetectionParams::hardened();
  auto config_for = [&](int threads) {
    return SimulationConfig()
        .system(system)
        .protocol(protocol)
        .scenario(faults::Scenario::parse(
            "at 150 attack eclipse frac=0.05 for 150; "
            "at 200 attack sybil frac=0.05 for 150; "
            "at 250 attack pong-flood frac=0.05 for 150; "
            "at 300 attack withhold frac=0.05 for 150"))
        .metrics_interval(60.0)
        .seed(55)
        .warmup(120.0)
        .measure(480.0)
        .threads(threads);
  };
  auto serial =
      testsupport::guess_results(search::run_search_seeds(config_for(1), 3));
  auto pooled =
      testsupport::guess_results(search::run_search_seeds(config_for(4), 3));
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("seed index " + std::to_string(i));
    testsupport::expect_identical(serial[i], pooled[i]);
  }
  EXPECT_GT(serial[0].attack.adversaries_spawned, 0u);
}

// ... and across worker-thread counts: a scenario replication sweep must be
// bitwise identical whether the seeds run serially or on a pool.
TEST(Determinism, FaultScenarioIdenticalAcrossThreadCounts) {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  auto config_for = [&](int threads) {
    return SimulationConfig()
        .system(system)
        .scenario(
            faults::Scenario::parse("at 200 kill 0.3; at 400 join 45"))
        .metrics_interval(60.0)
        .seed(55)
        .warmup(120.0)
        .measure(480.0)
        .threads(threads);
  };
  auto serial =
      testsupport::guess_results(search::run_search_seeds(config_for(1), 3));
  auto pooled =
      testsupport::guess_results(search::run_search_seeds(config_for(4), 3));
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("seed index " + std::to_string(i));
    testsupport::expect_identical(serial[i], pooled[i]);
  }
}

// run_search_seeds (which dispatches replications onto a worker pool) must
// be indistinguishable from n completely independent single-seed runs,
// entry for entry — the contract that makes the parallel path safe to use
// for every figure and table in the paper reproduction.
TEST(Determinism, RunSeedsEqualsIndependentRuns) {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  ProtocolParams protocol;
  SimulationOptions options;
  options.seed = 99;
  options.warmup = 120.0;
  options.measure = 480.0;
  options.threads = 0;  // auto: exercises the default (parallel) path

  const int kSeeds = 4;
  auto sweep = testsupport::guess_results(search::run_search_seeds(
      SimulationConfig().system(system).protocol(protocol).options(options),
      kSeeds));
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(kSeeds));
  for (int i = 0; i < kSeeds; ++i) {
    SCOPED_TRACE("seed index " + std::to_string(i));
    SimulationOptions one = options;
    one.seed = options.seed + static_cast<std::uint64_t>(i);
    auto independent = testsupport::guess_results(search::run_search(
        SimulationConfig().system(system).protocol(protocol).options(one)));
    testsupport::expect_identical(sweep[static_cast<std::size_t>(i)],
                                  independent);
  }
}

// --- dense slot assignment is pure mechanism -----------------------------
//
// The dense peer table maps each PeerId to a slab slot at birth; which slot
// a peer lands in is an implementation detail that must be invisible in
// results. debug_seed_free_slots pre-shuffles the free list so every birth
// claims a maximally different slot than the natural run, and the results
// must still be bitwise identical: iteration and sampling orders depend
// only on the birth/death sequence, never on slot numbers.

namespace {

// Runs `config` with births claiming slots in a shuffled order when
// `shuffle_seed` is nonzero (0 = natural slot order). The slots must be
// seeded before the population is built, so this drives the network
// directly, in run_search's step order.
SimulationResults run_with_slot_order(const SimulationConfig& config,
                                      std::uint64_t shuffle_seed,
                                      std::size_t seeded_slots) {
  const SimulationOptions& options = config.options();
  sim::Simulator simulator(options.scheduler);
  GuessNetwork network(config, simulator, Rng(config.seed()));
  if (shuffle_seed != 0) {
    std::vector<std::uint32_t> order(seeded_slots);
    for (std::size_t i = 0; i < seeded_slots; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    Rng(shuffle_seed).shuffle(order);
    network.debug_seed_free_slots(std::move(order));
  }
  network.initialize();
  faults::FaultEngine fault_engine(config.scenario(), simulator, network);
  fault_engine.schedule();
  if (options.metrics_interval > 0.0) {
    network.begin_interval_metrics(options.metrics_interval);
    simulator.every(options.metrics_interval, options.metrics_interval,
                    [&network]() { network.sample_interval(); });
  }
  simulator.run_until(options.warmup);
  network.begin_measurement();
  network.sample_cache_health();
  simulator.every(kHealthSampleInterval, kHealthSampleInterval,
                  [&network]() { network.sample_cache_health(); });
  simulator.run_until(options.warmup + options.measure);
  SimulationResults results = network.collect_results();
  results.measure_duration = options.measure;
  return results;
}

}  // namespace

TEST(Determinism, SlotAssignmentInvisibleUnderChurn) {
  SystemParams system;
  system.network_size = 150;
  system.lifespan_multiplier = 0.5;  // heavy churn: slots free and refill
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.cache_replacement = Replacement::kLR;
  protocol.detection.enabled = true;
  protocol.do_backoff = true;
  auto config = SimulationConfig()
                    .system(system)
                    .protocol(protocol)
                    .seed(77)
                    .warmup(150.0)
                    .measure(600.0);
  auto natural = run_with_slot_order(config, 0, 0);
  auto shuffled = run_with_slot_order(config, 1234, 400);
  testsupport::expect_identical(natural, shuffled);
  EXPECT_GT(natural.deaths, 0u);  // slots actually cycled through reuse

  // Two different shuffles also agree — and under either scheduler backend.
  auto reshuffled = run_with_slot_order(config, 5678, 400);
  testsupport::expect_identical(natural, reshuffled);
  auto calendar = run_with_slot_order(
      SimulationConfig(config).scheduler(sim::Scheduler::kCalendar), 1234,
      400);
  testsupport::expect_identical(natural, calendar);
}

// The sharpest variant: lossy transport plus a full fault scenario (mass
// kill, partition window, degradation window, flash-crowd join) with the
// interval series on. Partition stamps, per-slot query slots and dead-load
// flushing all index by slot here; a shuffled slab must not shift a single
// sample.
TEST(Determinism, SlotAssignmentInvisibleUnderFaultScenario) {
  SystemParams system;
  system.network_size = 150;
  system.lifespan_multiplier = 0.5;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  TransportParams transport = TransportParams::lossy(0.05);
  transport.max_retries = 2;
  auto config =
      SimulationConfig()
          .system(system)
          .transport(transport)
          .scenario(faults::Scenario::parse(
              "at 250 kill 0.3; at 250 poison off; "
              "at 300 partition 2 for 100; "
              "at 450 degrade loss=0.3 latency=2 for 50; at 550 join 60"))
          .metrics_interval(50.0)
          .seed(77)
          .warmup(150.0)
          .measure(600.0);
  auto natural = run_with_slot_order(config, 0, 0);
  // The direct drive is run_search's run, step for step.
  testsupport::expect_identical(
      natural, testsupport::guess_results(search::run_search(config)));
  auto shuffled = run_with_slot_order(config, 4321, 400);
  testsupport::expect_identical(natural, shuffled);
  auto calendar_shuffled = run_with_slot_order(
      SimulationConfig(config).scheduler(sim::Scheduler::kCalendar), 4321,
      400);
  testsupport::expect_identical(natural, calendar_shuffled);
  // The scenario bit exactly as in the unshuffled pinned run.
  ASSERT_GE(shuffled.interval_series.size(), 15u);
  EXPECT_EQ(shuffled.interval_series[4].live_peers, 105u);
  EXPECT_EQ(shuffled.interval_series.back().live_peers, 165u);
}

}  // namespace
}  // namespace guess
