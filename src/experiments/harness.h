// Shared plumbing for the per-figure benchmark harnesses.
//
// Each bench binary reproduces one paper table/figure. All of them accept:
//   --full          paper-scale runs (longer windows, more seeds)
//   --seed=N        base RNG seed (default 42)
//   --seeds=N       override number of seeds averaged
//   --threads=N     worker threads for replications (default: GUESS_THREADS
//                   env var, else all hardware threads; 1 = serial)
//   --progress      report replications completed / total on stderr
//   --csv           additionally emit CSV blocks for plotting
// and each main calls Flags::reject_unread() after its last read, so a flag
// the bench does not read fails the run instead of being ignored.
// The default (reduced) scale preserves every shape the paper reports while
// finishing in seconds-to-minutes; EXPERIMENTS.md records both scales.
// Replications are independent and run concurrently on a ParallelRunner
// pool; thread count never changes any reported number (results come back
// in deterministic seed order — see DESIGN.md "Threading model").
#pragma once

#include <iosfwd>
#include <string>

#include "common/flags.h"
#include "faults/scenario.h"
#include "guess/config.h"
#include "guess/metrics.h"
#include "guess/params.h"

namespace guess::experiments {

/// Scale knobs derived from the command line.
struct Scale {
  sim::Duration warmup = 400.0;
  sim::Duration measure = 1600.0;
  int seeds = 2;
  bool full = false;
  std::uint64_t base_seed = 42;
  bool csv = false;
  /// Worker threads for replications (0 = auto, see Flags::threads()).
  int threads = 0;
  /// Report sweep progress to stderr.
  bool progress = false;
  /// Event-queue backend (--scheduler={heap,calendar}); never changes
  /// results, only simulator speed.
  sim::Scheduler scheduler = sim::Scheduler::kHeap;
  /// Message transport (--loss / --link-latency / --probe-timeout /
  /// --max-retries switch on LossyTransport; default synchronous). Applied
  /// uniformly to every configuration the harness runs, so any bench can be
  /// re-run under fault injection without per-bench plumbing.
  TransportParams transport;
  /// Fault scenario (--scenario / --scenario-file, DESIGN.md §9); empty by
  /// default. Like the transport, applied to every configuration run.
  faults::Scenario scenario;
  /// Width of the time-resolved metrics intervals (--interval, seconds);
  /// 0 disables the interval series.
  sim::Duration metrics_interval = 0.0;

  static Scale from_flags(const Flags& flags);

  SimulationOptions options() const;

  /// The scale as a SimulationConfig (options + transport); callers chain
  /// .system()/.protocol() on top.
  SimulationConfig config() const;
};

/// A named query-side policy configuration — the paper's convention of
/// setting QueryProbe / QueryPong / CacheReplacement together ("MFS" means
/// MFS/MFS/LFS; "MR*" is MR/MR/LR with ResetNumResults).
struct PolicyCombo {
  std::string name;
  Policy probe = Policy::kRandom;
  Policy pong = Policy::kRandom;
  Replacement replacement = Replacement::kRandom;
  bool reset_num_results = false;

  /// Recognizes: "Ran", "MRU", "LRU", "MFS", "MR", "MR*".
  static PolicyCombo from_name(const std::string& name);

  /// Apply to a parameter set (query-side policies only; ping-side policies
  /// stay as configured, Random by default, matching §6.2).
  ProtocolParams apply(ProtocolParams params) const;
};

/// The four robustness combos of Figures 16–21.
const std::vector<PolicyCombo>& robustness_combos();

/// Average results for one (system, protocol) configuration across seeds.
/// Replications run on a worker pool of scale.threads threads (0 = auto).
AveragedResults run_config(const SystemParams& system,
                           const ProtocolParams& protocol,
                           const Scale& scale,
                           SimulationOptions options_override);

AveragedResults run_config(const SystemParams& system,
                           const ProtocolParams& protocol,
                           const Scale& scale);

/// One point of a sweep: a (system, protocol, options) combination whose
/// seed sweep is averaged into one AveragedResults.
struct ConfigJob {
  SystemParams system;
  ProtocolParams protocol;
  SimulationOptions options;
};

/// Run every configuration's seed sweep on ONE shared worker pool and return
/// the per-configuration averages, in job order. Equivalent to calling
/// run_config(job.system, job.protocol, scale, job.options) for each job —
/// same seed derivation, bitwise-identical averages — but all jobs.size() ×
/// scale.seeds replications are interleaved across the pool (the
/// multi-config search::run_search_seeds), so a multi-config sweep
/// saturates the machine even at seeds=1.
std::vector<AveragedResults> run_configs(const std::vector<ConfigJob>& jobs,
                                         const Scale& scale);

/// Standard bench header: figure id, claim being reproduced, parameters.
void print_header(std::ostream& os, const std::string& experiment,
                  const std::string& paper_claim, const SystemParams& system,
                  const ProtocolParams& protocol, const Scale& scale);

}  // namespace guess::experiments
