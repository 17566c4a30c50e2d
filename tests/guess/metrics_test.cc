#include "guess/metrics.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess {
namespace {

TEST(Metrics, DerivedRatesFromCounters) {
  SimulationResults results;
  results.queries_completed = 10;
  results.queries_satisfied = 9;
  results.probes.good = 70;
  results.probes.dead = 25;
  results.probes.refused = 5;
  EXPECT_DOUBLE_EQ(results.unsatisfied_rate(), 0.1);
  EXPECT_DOUBLE_EQ(results.probes_per_query(), 10.0);
  EXPECT_DOUBLE_EQ(results.good_probes_per_query(), 7.0);
  EXPECT_DOUBLE_EQ(results.dead_probes_per_query(), 2.5);
  EXPECT_DOUBLE_EQ(results.refused_probes_per_query(), 0.5);
}

TEST(Metrics, ZeroQueriesAreSafe) {
  SimulationResults results;
  EXPECT_DOUBLE_EQ(results.unsatisfied_rate(), 0.0);
  EXPECT_DOUBLE_EQ(results.probes_per_query(), 0.0);
  ClassMetrics cls;
  EXPECT_DOUBLE_EQ(cls.unsatisfied_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cls.probes_per_query(), 0.0);
}

TEST(Metrics, ClassMetricsMirrorGlobalDerivations) {
  ClassMetrics cls;
  cls.queries_completed = 4;
  cls.queries_satisfied = 3;
  cls.probes.good = 8;
  cls.probes.dead = 4;
  EXPECT_DOUBLE_EQ(cls.unsatisfied_rate(), 0.25);
  EXPECT_DOUBLE_EQ(cls.probes_per_query(), 3.0);
}

TEST(Metrics, AverageComputesStandardErrors) {
  SimulationResults a, b;
  a.queries_completed = 10;
  a.queries_satisfied = 10;
  a.probes.good = 100;  // 10 probes/query
  b.queries_completed = 10;
  b.queries_satisfied = 5;  // 0.5 unsat
  b.probes.good = 200;      // 20 probes/query
  auto avg = average({a, b});
  EXPECT_DOUBLE_EQ(avg.probes_per_query, 15.0);
  EXPECT_DOUBLE_EQ(avg.unsatisfied_rate, 0.25);
  // SE of {10, 20}: stddev = sqrt(50), / sqrt(2) = 5.
  EXPECT_NEAR(avg.probes_per_query_se, 5.0, 1e-12);
  // SE of {0, .5}: stddev ≈ .3536, / sqrt(2) = .25.
  EXPECT_NEAR(avg.unsatisfied_rate_se, 0.25, 1e-12);
}

TEST(Metrics, SingleRunHasZeroStandardError) {
  SimulationResults a;
  a.queries_completed = 10;
  a.probes.good = 100;
  auto avg = average({a});
  EXPECT_DOUBLE_EQ(avg.probes_per_query_se, 0.0);
  EXPECT_DOUBLE_EQ(avg.unsatisfied_rate_se, 0.0);
}

IntervalSample interval(sim::Time start, sim::Time end,
                        std::uint64_t completed, std::uint64_t satisfied) {
  IntervalSample s;
  s.start = start;
  s.end = end;
  s.queries_completed = completed;
  s.queries_satisfied = satisfied;
  return s;
}

TEST(IntervalSampleTest, SuccessRateAndEmptySentinel) {
  EXPECT_DOUBLE_EQ(interval(0, 10, 8, 6).success_rate(), 0.75);
  EXPECT_DOUBLE_EQ(interval(0, 10, 8, 6).probes_per_query(), 0.0);
  // An empty interval carries no signal: -1, not "0% success".
  EXPECT_DOUBLE_EQ(interval(0, 10, 0, 0).success_rate(), -1.0);
}

TEST(Recovery, BaselineMinTtrAndAvailability) {
  IntervalSeries series = {
      interval(0, 100, 10, 10),     // 1.00  pre-fault
      interval(100, 200, 10, 9),    // 0.90  pre-fault
      interval(200, 300, 10, 5),    // 0.50  during the window
      interval(300, 400, 10, 8),    // 0.80  after, still depressed
      interval(400, 500, 20, 19),   // 0.95  recovered
  };
  RecoveryMetrics r = compute_recovery(series, 200.0, 300.0, 0.05);
  EXPECT_DOUBLE_EQ(r.baseline, 0.95);
  EXPECT_DOUBLE_EQ(r.min_during_fault, 0.5);
  // First interval wholly after the window with success >= 0.95 - 0.05 is
  // [400, 500): recovery time counts from fault ONSET.
  EXPECT_DOUBLE_EQ(r.time_to_recovery, 300.0);
  // Post-onset intervals: 0.50 (no), 0.80 (no), 0.95 (yes).
  EXPECT_NEAR(r.availability, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.epsilon, 0.05);
}

TEST(Recovery, EmptyIntervalsCarryNoSignal) {
  IntervalSeries series = {
      interval(0, 100, 10, 9),    // 0.9 pre-fault
      interval(100, 200, 0, 0),   // empty: must not drag the baseline to 0
      interval(200, 300, 0, 0),   // empty during the fault: not a 0% dip
      interval(300, 400, 10, 9),  // 0.9: recovered
  };
  RecoveryMetrics r = compute_recovery(series, 200.0, 250.0, 0.05);
  EXPECT_DOUBLE_EQ(r.baseline, 0.9);
  EXPECT_DOUBLE_EQ(r.min_during_fault, 0.9);  // only the recovered interval
  EXPECT_DOUBLE_EQ(r.time_to_recovery, 200.0);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
}

TEST(Recovery, NeverRecoveredIsMinusOne) {
  IntervalSeries series = {
      interval(0, 100, 10, 10),
      interval(100, 200, 10, 2),
      interval(200, 300, 10, 3),
  };
  RecoveryMetrics r = compute_recovery(series, 100.0, 100.0, 0.05);
  EXPECT_DOUBLE_EQ(r.time_to_recovery, -1.0);
  EXPECT_DOUBLE_EQ(r.min_during_fault, 0.2);
  EXPECT_DOUBLE_EQ(r.availability, 0.0);
}

// A healthy interval DURING the window (queries resolving on one side of a
// partition) is not the network healing: recovery only counts for intervals
// lying wholly after fault_end.
TEST(Recovery, HealthyIntervalInsideWindowNotCredited) {
  IntervalSeries series = {
      interval(0, 100, 10, 10),
      interval(100, 200, 10, 10),  // inside the window but healthy
      interval(200, 300, 10, 10),  // first interval after the window
  };
  RecoveryMetrics r = compute_recovery(series, 100.0, 250.0, 0.05);
  EXPECT_DOUBLE_EQ(r.time_to_recovery, -1.0);  // [200,300) starts at 200<250
  RecoveryMetrics healed = compute_recovery(series, 100.0, 200.0, 0.05);
  EXPECT_DOUBLE_EQ(healed.time_to_recovery, 200.0);  // 300 - onset
}

TEST(Recovery, NoPreFaultSignalFallsBackToPerfectBaseline) {
  IntervalSeries series = {
      interval(0, 100, 10, 8),  // straddles nothing: fault hits at t=50
  };
  RecoveryMetrics r = compute_recovery(series, 50.0, 50.0, 0.05);
  EXPECT_DOUBLE_EQ(r.baseline, 1.0);
  EXPECT_DOUBLE_EQ(r.min_during_fault, 0.8);
  EXPECT_DOUBLE_EQ(r.availability, 0.0);  // 0.8 < 1.0 - 0.05
}

TEST(Recovery, NoPostOnsetDataDefaultsToBaseline) {
  IntervalSeries series = {
      interval(0, 100, 10, 9),
  };
  RecoveryMetrics r = compute_recovery(series, 100.0, 100.0, 0.05);
  EXPECT_DOUBLE_EQ(r.baseline, 0.9);
  EXPECT_DOUBLE_EQ(r.min_during_fault, 0.9);  // no dip observed
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_DOUBLE_EQ(r.time_to_recovery, -1.0);
  // Degenerate but legal: an empty series.
  RecoveryMetrics empty = compute_recovery({}, 10.0, 20.0, 0.05);
  EXPECT_DOUBLE_EQ(empty.baseline, 1.0);
  EXPECT_DOUBLE_EQ(empty.availability, 1.0);
}

TEST(Metrics, TransportCounterArithmetic) {
  TransportCounters a;
  a.messages_sent = 10;
  a.messages_lost = 4;
  a.timeouts = 3;
  TransportCounters b;
  b.messages_sent = 3;
  b.messages_lost = 1;
  TransportCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.messages_sent, 13u);
  EXPECT_EQ(sum.messages_lost, 5u);
  TransportCounters diff = sum - a;
  EXPECT_EQ(diff.messages_sent, 3u);
  EXPECT_EQ(diff.messages_lost, 1u);
  EXPECT_EQ(diff.timeouts, 0u);
}

TEST(Metrics, CacheHealthDefaultsZeroed) {
  CacheHealth health;
  EXPECT_DOUBLE_EQ(health.fraction_live, 0.0);
  EXPECT_DOUBLE_EQ(health.absolute_live, 0.0);
  EXPECT_DOUBLE_EQ(health.good_entries, 0.0);
  EXPECT_EQ(health.samples, 0u);
}

}  // namespace
}  // namespace guess
