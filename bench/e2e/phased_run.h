// run_search replayed step by step through public calls, with a steady
// clock read at each step boundary.
//
// The sequence is exactly search::run_search's: validate -> Simulator ->
// make_backend -> bootstrap -> FaultEngine::schedule / OpenLoopDriver::start
// -> interval `every` -> run_until(warmup) -> begin_measurement ->
// run_until(end) -> collect / finalize. The traced run asserts that its
// digest equals a run_search() call in the same process, which proves the
// replay measures the real path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "guess/config.h"
#include "search/backend.h"

namespace guess::e2e {

/// Wall seconds per phase. setup = construct + bootstrap (which includes
/// attaching the fault engine, open-loop driver and interval sampler).
struct PhaseTimes {
  double construct_s = 0.0;  ///< validate + Simulator + make_backend
  double bootstrap_s = 0.0;  ///< bootstrap + driver attach
  double warmup_s = 0.0;     ///< run_until(warmup)
  double measure_s = 0.0;    ///< begin_measurement + run_until(end)
  double collect_s = 0.0;    ///< collect + finalize

  double setup_s() const { return construct_s + bootstrap_s; }
  double run_s() const {
    return setup_s() + warmup_s + measure_s + collect_s;
  }
};

/// Host-side observations of one phased run. The slice and pending
/// fields are filled only when slices were requested.
struct PhasedRun {
  search::SearchResults results;
  PhaseTimes phases;
  std::uint64_t events_at_warmup_end = 0;
  std::uint64_t events_at_end = 0;
  /// Wall milliseconds of each `slice_width` of the measurement window.
  std::vector<double> slice_ms;
  /// Mean of Simulator::pending_events() over the slice boundaries.
  double pending_mean = 0.0;
  double rss_after_bootstrap_mb = 0.0;
  /// Queries the backend held open when the measurement window began.
  std::uint64_t open_at_measure_start = 0;
};

/// Run `config` phase by phase. With slice_width > 0 the measurement window
/// runs as consecutive run_until() calls of that many simulated seconds,
/// each timed; the sequence of events is the same as one call.
PhasedRun run_phased(const SimulationConfig& config, double slice_width = 0.0);

/// FNV-1a digest over every simulated statistic the run reports (unified
/// results, interval series, overload accounting and the backend's own
/// counters). Two runs with equal digests produced the same statistics.
std::uint64_t results_digest(const search::SearchResults& results);

/// Conservation identities a run's results must satisfy. Returns one
/// message per violated identity (empty when all hold).
std::vector<std::string> check_identities(const PhasedRun& run);

/// Resident set size of this process now, and its peak so far, in MB.
double current_rss_mb();
double peak_rss_mb();

}  // namespace guess::e2e
