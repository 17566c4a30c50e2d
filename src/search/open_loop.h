// OpenLoopDriver — open-loop arrivals + overload control over any
// SearchBackend (DESIGN.md §13).
//
// run_search attaches one of these when SimulationOptions::arrival is kOpen.
// The driver:
//   * silences the backend's closed-loop query clock and installs itself as
//     the QueryObserver (SearchBackend::configure_open_loop);
//   * runs a sim::ArrivalProcess at offered_qps on dedicated RNG streams
//     (seed ^ salt), so attaching it never perturbs the backend's draws;
//   * gates every arrival through an OverloadController (none / admit /
//     shed) and starts admitted queries via SearchBackend::start_query with
//     their original arrival instant — a query's measured latency includes
//     any time it spent queued;
//   * accounts latency (LogHistogram), SLO conformance, goodput, rejects,
//     sheds and abandons into SearchResults::overload, and the overload
//     columns of the backend's interval rows (the backend's QueryLedger
//     counts the queries in them); at the end of the window, queries still
//     open are censored at their current age (in-flight work is counted,
//     not silently dropped).
//
// Determinism: the controller is pure arithmetic, the arrival process and
// origin draws use their own Rng streams, and all event scheduling rides
// the simulator's (time, seq) order — open-loop runs are bitwise identical
// across heap/calendar schedulers and thread counts (asserted by
// tests/search/open_loop_test.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "guess/config.h"
#include "guess/metrics.h"
#include "guess/overload.h"
#include "search/backend.h"
#include "sim/arrival.h"
#include "sim/simulator.h"

namespace guess::search {

class OpenLoopDriver final : public QueryObserver {
 public:
  OpenLoopDriver(const SimulationConfig& config, sim::Simulator& simulator,
                 SearchBackend& backend);

  /// Configure the backend for open-loop operation and schedule the arrival
  /// process. Call once, after bootstrap() and before any events run.
  void start();

  /// Start the measurement window (run_search calls this right after the
  /// backend's own begin_measurement()).
  void begin_measurement();

  /// Close the current overload-accounting interval (run_search calls this
  /// right after the backend's own sample_interval()).
  void sample_interval();

  /// End-of-run: census still-open queries at their current age, stamp
  /// SearchResults::overload, close the trailing partial interval, and
  /// merge the per-interval overload columns into the backend's interval
  /// rows. The backend's rows must match the driver's one for one, in count
  /// and in start and end times.
  void finalize(SearchResults& out);

  // --- QueryObserver (called by the backend) ---
  void on_query_complete(double latency, bool satisfied) override;
  void on_query_abandoned(double age) override;

 private:
  struct PumpFired {
    OpenLoopDriver* driver;
    void operator()() const { driver->pump(); }
  };

  void on_arrival();
  /// Start queued arrivals while the controller grants slots. Re-entrancy
  /// guarded: synchronous backends complete queries inside start_query,
  /// which calls back into on_query_complete -> pump.
  void pump();
  void launch(sim::Time issued);

  sim::Simulator& simulator_;
  SearchBackend& backend_;
  OverloadController controller_;
  sim::ArrivalProcess arrivals_;
  Rng workload_rng_;
  double slo_;

  bool measuring_ = false;
  bool pumping_ = false;
  OverloadStats stats_;

  // The overload columns of the interval rows (run from t=0, like the
  // backend's rows — recovery analysis needs pre-fault baselines). row_ is
  // the open row: its start and the columns so far.
  sim::Duration interval_width_ = 0.0;
  IntervalSample row_;
  IntervalSeries interval_rows_;
};

}  // namespace guess::search
