// Open-loop arrivals + overload control through run_search (DESIGN.md §13):
// conservation of every offered query, censored accounting of in-flight work
// at window close, bitwise determinism across schedulers and thread counts,
// and the overload columns of the interval series.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "faults/scenario.h"
#include "guess/config.h"
#include "search/backend.h"

namespace guess::search {
namespace {

SystemParams small_system(std::size_t n = 120) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return system;
}

SimulationConfig open_config(OverloadPolicy policy, double qps,
                             std::uint64_t seed = 7) {
  return SimulationConfig()
      .system(small_system())
      .seed(seed)
      .warmup(0.0)
      .measure(150.0)
      .arrival(sim::ArrivalMode::kOpen)
      .offered_qps(qps)
      .overload_policy(policy);
}

void expect_identical(const OverloadStats& a, const OverloadStats& b) {
  EXPECT_EQ(a.open_loop, b.open_loop);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.slo_ok, b.slo_ok);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.open_at_close, b.open_at_close);
  EXPECT_TRUE(a.latency == b.latency) << "latency histograms differ";
}

// Every offered query must be accounted for exactly once:
//   arrivals = completed + rejected + shed + abandoned + open_at_close
// and the latency histogram holds completions plus censored open queries.
// Requires warmup == 0: with a warmup, queries admitted before the window
// complete inside it (counted as completed but never as an arrival).
void expect_conserved(const OverloadStats& s) {
  EXPECT_EQ(s.arrivals,
            s.completed + s.rejected + s.shed + s.abandoned + s.open_at_close);
  EXPECT_EQ(s.latency.count(), s.completed + s.open_at_close);
  EXPECT_LE(s.admitted, s.arrivals);
  EXPECT_LE(s.slo_ok, s.satisfied);
  EXPECT_LE(s.satisfied, s.completed);
}

TEST(OpenLoop, ClosedLoopRunsCarryZeroOverloadStats) {
  auto config = SimulationConfig()
                    .system(small_system())
                    .seed(3)
                    .warmup(50.0)
                    .measure(100.0);
  SearchResults r = run_search(config);
  EXPECT_FALSE(r.overload.open_loop);
  EXPECT_EQ(r.overload.arrivals, 0u);
  EXPECT_TRUE(r.overload.latency.empty());
  EXPECT_GT(r.queries_completed, 0u);  // the closed-loop clock still ran
}

TEST(OpenLoop, ConservationHoldsForEveryPolicy) {
  for (OverloadPolicy policy :
       {OverloadPolicy::kNone, OverloadPolicy::kAdmit, OverloadPolicy::kShed}) {
    SCOPED_TRACE(overload_policy_name(policy));
    SearchResults r = run_search(open_config(policy, 5.0));
    EXPECT_TRUE(r.overload.open_loop);
    EXPECT_EQ(r.overload.policy, policy);
    EXPECT_GT(r.overload.arrivals, 0u);
    EXPECT_GT(r.overload.completed, 0u);
    expect_conserved(r.overload);
  }
}

// Every query the controller saw complete is one the backend reports:
// overload.completed == queries_completed, the identity bench/e2e checks.
// A one-hop run under total loss has no answered lookup at all.
TEST(OpenLoop, ConservationHoldsOnEveryBackend) {
  std::vector<SimulationConfig> configs;
  for (SearchBackendId id : registered_backends()) {
    configs.push_back(open_config(OverloadPolicy::kNone, 5.0).backend(id));
  }
  configs.push_back(open_config(OverloadPolicy::kNone, 5.0)
                        .backend(SearchBackendId::kOneHop)
                        .transport(TransportParams::lossy(1.0)));
  for (const SimulationConfig& config : configs) {
    SCOPED_TRACE(std::string(backend_name(config.backend())) + " loss " +
                 std::to_string(config.transport().loss));
    SearchResults r = run_search(config);
    EXPECT_TRUE(r.overload.open_loop);
    EXPECT_GT(r.overload.arrivals, 0u);
    EXPECT_GT(r.overload.completed, 0u);
    EXPECT_EQ(r.overload.completed, r.queries_completed);
    expect_conserved(r.overload);
  }
}

TEST(OpenLoop, InFlightQueriesAtCloseAreCensoredNotDropped) {
  // Regression for the closed-loop assumption this PR removes: GUESS
  // queries span many probe slots, so at a continuous 20 q/s some are
  // always mid-flight when the window closes. They must surface as
  // open_at_close with their ages in the histogram — not silently vanish
  // (which would let an overloaded run hide its backlog).
  SearchResults r = run_search(open_config(OverloadPolicy::kNone, 20.0));
  EXPECT_GT(r.overload.open_at_close, 0u);
  expect_conserved(r.overload);
  EXPECT_EQ(r.overload.latency.count(),
            r.overload.completed + r.overload.open_at_close);
}

TEST(OpenLoop, AdmissionControlRejectsPastItsWindow) {
  OverloadParams overload;
  overload.policy = OverloadPolicy::kAdmit;
  overload.max_in_flight = 4;
  SearchResults r =
      run_search(open_config(OverloadPolicy::kAdmit, 20.0).overload(overload));
  EXPECT_GT(r.overload.rejected, 0u);
  EXPECT_EQ(r.overload.shed, 0u);  // admission control never queues
  expect_conserved(r.overload);
}

TEST(OpenLoop, SheddingDropsQueuedWorkPastTheWatermark) {
  OverloadParams overload;
  overload.policy = OverloadPolicy::kShed;
  overload.max_in_flight = 4;
  overload.shed_watermark = 4;
  SearchResults r =
      run_search(open_config(OverloadPolicy::kShed, 20.0).overload(overload));
  EXPECT_GT(r.overload.shed, 0u);
  expect_conserved(r.overload);
}

TEST(OpenLoop, SameSeedIsBitwiseReproducible) {
  SearchResults a = run_search(open_config(OverloadPolicy::kShed, 10.0));
  SearchResults b = run_search(open_config(OverloadPolicy::kShed, 10.0));
  expect_identical(a.overload, b.overload);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
}

TEST(OpenLoop, BitwiseIdenticalAcrossSchedulers) {
  for (OverloadPolicy policy : {OverloadPolicy::kNone, OverloadPolicy::kShed}) {
    SCOPED_TRACE(overload_policy_name(policy));
    SearchResults heap = run_search(
        open_config(policy, 8.0).scheduler(sim::Scheduler::kHeap));
    SearchResults calendar = run_search(
        open_config(policy, 8.0).scheduler(sim::Scheduler::kCalendar));
    expect_identical(heap.overload, calendar.overload);
    EXPECT_EQ(heap.queries_completed, calendar.queries_completed);
    EXPECT_EQ(heap.probes, calendar.probes);
  }
}

TEST(OpenLoop, BitwiseIdenticalAcrossThreadCounts) {
  auto config = open_config(OverloadPolicy::kAdmit, 8.0);
  auto serial = run_search_seeds(config.threads(1), 3);
  auto parallel = run_search_seeds(config.threads(3), 3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i].overload, parallel[i].overload);
    EXPECT_EQ(serial[i].queries_completed, parallel[i].queries_completed);
  }
}

TEST(OpenLoop, AttachingTheDriverDoesNotPerturbDifferentSeeds) {
  // The arrival and workload RNG streams are salted off the config seed;
  // two different seeds must still produce different runs (the salt is not
  // collapsing the stream).
  SearchResults a = run_search(open_config(OverloadPolicy::kNone, 5.0, 7));
  SearchResults b = run_search(open_config(OverloadPolicy::kNone, 5.0, 8));
  EXPECT_NE(a.overload.arrivals, 0u);
  EXPECT_FALSE(a.overload.latency == b.overload.latency);
}

// 40 s rows over a 150 s run leave a 30 s trailing row, which the driver
// closes at finalize as every backend's ledger closes its own.
// With no warmup the window is the whole run, so the rows sum exactly to
// the window's totals.
TEST(OpenLoop, IntervalSeriesCarriesOverloadColumns) {
  for (SearchBackendId id : registered_backends()) {
    SCOPED_TRACE(backend_name(id));
    SearchResults r = run_search(open_config(OverloadPolicy::kNone, 8.0)
                                     .backend(id)
                                     .metrics_interval(40.0));
    ASSERT_EQ(r.interval_series.size(), 4u);
    EXPECT_DOUBLE_EQ(r.interval_series.back().start, 120.0);
    EXPECT_DOUBLE_EQ(r.interval_series.back().end, 150.0);
    std::uint64_t arrivals = 0;
    std::uint64_t slo_ok = 0;
    for (const IntervalSample& row : r.interval_series) {
      EXPECT_GT(row.end, row.start);
      arrivals += row.arrivals;
      slo_ok += row.slo_ok;
    }
    EXPECT_GT(arrivals, 0u);
    EXPECT_EQ(arrivals, r.overload.arrivals);
    EXPECT_EQ(slo_ok, r.overload.slo_ok);
  }
}

TEST(OpenLoop, DriverProvidesIntervalRowsForHookFreeBackends) {
  // Iterative's rows come from its ledger, which counts every open-loop
  // walk where it finishes; the driver merges its overload columns in.
  SearchResults r = run_search(open_config(OverloadPolicy::kNone, 8.0)
                                   .backend(SearchBackendId::kIterative)
                                   .metrics_interval(30.0));
  ASSERT_FALSE(r.interval_series.empty());
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  for (const IntervalSample& row : r.interval_series) {
    arrivals += row.arrivals;
    completed += row.queries_completed;
  }
  EXPECT_GT(arrivals, 0u);
  EXPECT_GT(completed, 0u);
}

// Every row counts the probes of the queries finishing in it, from the
// backend's ledger. With no warmup the rows sum to the run's probes.
TEST(OpenLoop, IntervalRowsSumToTheRunsProbes) {
  for (SearchBackendId id : registered_backends()) {
    SCOPED_TRACE(backend_name(id));
    SearchResults r = run_search(open_config(OverloadPolicy::kNone, 8.0)
                                     .backend(id)
                                     .metrics_interval(30.0));
    ASSERT_FALSE(r.interval_series.empty());
    std::uint64_t probes = 0;
    for (const IntervalSample& row : r.interval_series) probes += row.probes;
    EXPECT_GT(r.probes, 0u);
    EXPECT_EQ(probes, r.probes);
  }
}

TEST(OpenLoop, GoodputAndViolationRateAreConsistent) {
  SearchResults r = run_search(open_config(OverloadPolicy::kAdmit, 10.0));
  const OverloadStats& s = r.overload;
  EXPECT_DOUBLE_EQ(s.goodput(r.measure_duration),
                   static_cast<double>(s.slo_ok) / r.measure_duration);
  double rate = s.slo_violation_rate();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

// Every mass kill validate() accepts runs to completion, closed and open
// loop (DESIGN.md §9). `kill 1.0` empties GUESS, flood and gossip (one-hop
// keeps two peers, iterative one): open-loop arrivals meanwhile find no
// origin and are abandoned, and the join refills the network. `kill 0.6`
// leaves iterative fewer peers than its middle ring, which must collapse
// into the last.
struct MassKillCase {
  SearchBackendId backend;
  const char* scenario;
  bool empties;  ///< the kill leaves no peer alive
  const char* name;
};

void PrintTo(const MassKillCase& c, std::ostream* os) { *os << c.name; }

class ValidatedMassKill : public ::testing::TestWithParam<MassKillCase> {};

TEST_P(ValidatedMassKill, RunsClosedAndOpenLoop) {
  const MassKillCase& c = GetParam();
  auto scenario = faults::Scenario::parse(c.scenario);

  SearchResults closed = run_search(SimulationConfig()
                                        .system(small_system())
                                        .backend(c.backend)
                                        .scenario(scenario)
                                        .seed(9)
                                        .warmup(0.0)
                                        .measure(150.0));
  EXPECT_GT(closed.queries_completed, 0u);

  SearchResults open = run_search(
      open_config(OverloadPolicy::kAdmit, 5.0, 9).backend(c.backend).scenario(
          scenario));
  EXPECT_GT(open.overload.completed, 0u);
  expect_conserved(open.overload);
  // ~30 s of arrivals at 5 q/s find an empty network.
  if (c.empties) {
    EXPECT_GT(open.overload.abandoned, 100u);
  }
}

constexpr const char* kKillAll = "at 50 kill 1.0; at 80 join 30";

INSTANTIATE_TEST_SUITE_P(
    Kills, ValidatedMassKill,
    ::testing::Values(
        MassKillCase{SearchBackendId::kGuess, kKillAll, true, "guess_kill_all"},
        MassKillCase{SearchBackendId::kFlood, kKillAll, true, "flood_kill_all"},
        MassKillCase{SearchBackendId::kIterative, kKillAll, false,
                     "iterative_kill_all"},
        MassKillCase{SearchBackendId::kOneHop, kKillAll, false,
                     "onehop_kill_all"},
        MassKillCase{SearchBackendId::kGossip, kKillAll, true,
                     "gossip_kill_all"},
        MassKillCase{SearchBackendId::kIterative, "at 50 kill 0.6", false,
                     "iterative_kill_most"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace guess::search
