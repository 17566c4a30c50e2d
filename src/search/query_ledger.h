// QueryLedger — what a finished query adds to the results, counted once for
// every backend (DESIGN.md §12.2), and the window's peer deaths.
//
// Each backend owns one ledger and reports every finished query to it
// exactly once, in the unified units (probes as SearchResults::probes, and
// the first-result latency where the backend models one). The ledger keeps
// the measurement-window totals (completed, satisfied, probes, one probe
// sample per query, response time of satisfied queries, deaths), which
// begin_measurement() resets, and from begin_intervals() on the interval
// rows (DESIGN.md §9): each query lands in the row in which it finishes,
// warmup included. collect() writes all of it into SearchResults.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/stats.h"
#include "guess/metrics.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::search {

class QueryLedger {
 public:
  explicit QueryLedger(const sim::Simulator& simulator)
      : simulator_(simulator) {}

  /// Open the measurement window: the totals restart from zero.
  void begin_measurement();

  /// Open the first row at now. `transport` is the backend's transport
  /// counters now; rows carry their delta (zeros without a transport).
  void begin_intervals(sim::Duration width,
                       const TransportCounters& transport = {});
  /// Close the open row at now, with the population and transport counters
  /// read at the boundary, and open the next. A no-op before
  /// begin_intervals().
  void sample_interval(std::size_t live_peers,
                       const TransportCounters& transport = {});

  /// One finished query, into the totals (when measuring) and the open row.
  void record(bool satisfied, std::uint64_t probes);
  /// The same; `response_time` enters the totals if the query was satisfied.
  void record(bool satisfied, std::uint64_t probes, double response_time);
  /// A query that ran outside simulated time (iterative's closed-loop batch
  /// at collect): into the totals only, no row.
  void record_untimed(bool satisfied, std::uint64_t probes);

  /// `peers` removed by churn or by a fault kill (when measuring).
  /// Adversary-cohort retirements are not deaths; AttackStats counts them.
  void record_deaths(std::uint64_t peers = 1) {
    if (measuring_) deaths_ += peers;
  }

  /// Write the totals and the rows into `out`. A trailing partial row
  /// (horizon not aligned to the width) is closed at now in `out` only, so
  /// the ledger can keep running.
  void collect(SearchResults& out, std::size_t live_peers,
               const TransportCounters& transport = {}) const;

 private:
  /// The open row, closed at now.
  IntervalSample open_row(std::size_t live_peers,
                          const TransportCounters& transport) const;

  const sim::Simulator& simulator_;

  bool measuring_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t satisfied_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t deaths_ = 0;
  RunningStat response_time_;
  SampleSet probe_samples_;

  bool rows_on_ = false;
  IntervalSample row_;               ///< the open row: start, counts so far
  TransportCounters row_transport_;  ///< transport counters at row_.start
  IntervalSeries rows_;
};

}  // namespace guess::search
