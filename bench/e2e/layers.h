// Per-layer measurements taken from outside the library.
//
// Nothing here instruments src/. Two public seams are used instead:
//  * a timing decorator registered through search::register_backend that
//    wraps each real factory and times the calls a run makes into the
//    search layer (start_query, sample_interval, fault hooks, collect);
//  * layer kernels: after the simulation, the benchmark calls one layer's
//    public functions in a loop at the workload's shape (scheduler and
//    pending depth, cache size and policies, pong size, n, loss, latency,
//    timeout) and times them. A kernel's cost times a call count derived
//    from the run's own counters, divided by the measurement phase's wall
//    time, estimates that layer's share (`*.est_frac`; README.md gives
//    each formula).
#pragma once

#include "json.h"
#include "phased_run.h"
#include "workloads.h"

namespace guess::e2e {

/// Register the timing decorator in front of every in-tree backend and
/// zero the counters.
void install_timing_decorator();

/// Re-register the undecorated in-tree factories.
void remove_timing_decorator();

/// Every per-layer metric of a traced run, as name -> {value, unit}.
/// `traced` is the run made with the decorator installed; `peak_rss_mb` is
/// the process peak read right after it. Runs the layer kernels.
JsonObject layer_metrics(const Workload& workload, const PhasedRun& traced,
                         double peak_rss_mb);

}  // namespace guess::e2e
