// Aggregated simulation results — one struct per run, covering every metric
// the paper's tables and figures report.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "guess/query_execution.h"
#include "sim/time.h"

namespace guess {

/// Link-cache health, averaged over periodic samples of all live good peers
/// (Table 3; Figures 18 and 21).
struct CacheHealth {
  double fraction_live = 0.0;   ///< live entries / current entries
  double absolute_live = 0.0;   ///< live entries per cache
  double good_entries = 0.0;    ///< entries pointing to live, honest peers
  double entries = 0.0;         ///< current entries per cache (≤ CacheSize)
  std::size_t samples = 0;
};

/// Message-level accounting of the transport layer (DESIGN.md §8). All
/// fields stay zero under the default SynchronousTransport except
/// messages_sent; the fault-injection counters (losses, timeouts,
/// retransmits, late replies) only move under LossyTransport.
struct TransportCounters {
  std::uint64_t messages_sent = 0;     ///< request attempts, incl. retransmits
  std::uint64_t messages_lost = 0;     ///< request or reply legs dropped
  std::uint64_t timeouts = 0;          ///< attempts that expired unanswered
  std::uint64_t retransmits = 0;       ///< re-sends after a timed-out attempt
  std::uint64_t late_replies = 0;      ///< replies landing after the timeout
  std::uint64_t exchanges_failed = 0;  ///< exchanges that exhausted retries

  TransportCounters& operator+=(const TransportCounters& other);
  /// Counter-wise difference (for measurement-window snapshots); every field
  /// of `other` must be <= the corresponding field of *this.
  TransportCounters operator-(const TransportCounters& other) const;
};

/// Adversary-zoo activity and the defenses it triggered (DESIGN.md §11).
/// Counted over the whole run (attack windows rarely align with the
/// measurement window); all zeros when the scenario deploys no attacks.
struct AttackStats {
  std::uint64_t adversaries_spawned = 0;  ///< cohort members ever deployed
  std::uint64_t adversaries_retired = 0;  ///< removed at window end / expiry
  std::uint64_t sybil_respawns = 0;       ///< fresh identities after expiry
  std::uint64_t withheld_exchanges = 0;   ///< send attempts withholders swallowed
  std::uint64_t oversized_pongs = 0;      ///< pongs over max_pong_entries
  std::uint64_t pong_entries_dropped = 0; ///< entries discarded by the cap
  std::uint64_t no_reply_charges = 0;     ///< charge_no_reply referrals filed
};

/// One closed sampling interval of the time-resolved series (DESIGN.md §9).
/// Queries are attributed to the interval in which they *finish*; population
/// and transport counters are read at the interval boundary.
struct IntervalSample {
  sim::Time start = 0.0;               ///< inclusive interval start
  sim::Time end = 0.0;                 ///< exclusive interval end
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_satisfied = 0;
  std::uint64_t probes = 0;            ///< probes of queries finishing here
  std::size_t live_peers = 0;          ///< live population at `end`
  TransportCounters transport;         ///< counter deltas over the interval

  // --- open-loop overload accounting (DESIGN.md §13; zero when closed) ---
  std::uint64_t arrivals = 0;   ///< offered queries this interval
  std::uint64_t rejected = 0;   ///< refused at the door by the controller
  std::uint64_t shed = 0;       ///< dropped from the controller queue
  std::uint64_t slo_ok = 0;     ///< completions satisfied within the SLO

  /// Goodput of the interval: satisfied-within-SLO completions per second.
  double goodput() const {
    sim::Duration width = end - start;
    return width > 0.0 ? static_cast<double>(slo_ok) / width : 0.0;
  }

  /// Satisfied fraction of the interval's queries; -1 if none finished (an
  /// empty interval carries no success signal and must not read as 0%).
  double success_rate() const {
    return queries_completed == 0
               ? -1.0
               : static_cast<double>(queries_satisfied) /
                     static_cast<double>(queries_completed);
  }
  double probes_per_query() const {
    return queries_completed == 0 ? 0.0
                                  : static_cast<double>(probes) /
                                        static_cast<double>(queries_completed);
  }
};

/// The whole run's interval series, in time order: SearchResults::
/// interval_series on every backend, kept by its QueryLedger. Unlike the
/// measurement-window totals it spans warmup too: a fault landing at the
/// measurement boundary still needs a pre-fault baseline to recover *to*.
/// Iterative's closed-loop batch runs outside simulated time and lands in
/// no row, so its rows carry only the population.
using IntervalSeries = std::vector<IntervalSample>;

/// Fault-recovery summary derived from an IntervalSeries and a fault window
/// (DESIGN.md §9). All rates are interval success rates; intervals in which
/// no query finished are skipped (they carry no signal).
struct RecoveryMetrics {
  double baseline = 1.0;        ///< mean success over pre-fault intervals
  double min_during_fault = 1.0;///< worst interval at/after fault onset
  /// Seconds from fault onset until the first post-fault-end interval whose
  /// success rate is back within epsilon of baseline; -1 if never recovered.
  double time_to_recovery = -1.0;
  /// Fraction of intervals at/after onset with success >= baseline - epsilon.
  double availability = 1.0;
  double epsilon = 0.0;         ///< tolerance the above were computed with
};

/// Compute recovery metrics for a fault active over [fault_start, fault_end]
/// (for an instantaneous fault like a mass kill, pass fault_end ==
/// fault_start). `epsilon` is the tolerated success-rate shortfall.
RecoveryMetrics compute_recovery(const IntervalSeries& series,
                                 sim::Time fault_start, sim::Time fault_end,
                                 double epsilon = 0.05);

/// Per-peer-class query metrics: the selfish-peer study (§3.3) compares
/// honest and selfish peers' experience side by side.
struct ClassMetrics {
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_satisfied = 0;
  ProbeCounters probes;
  RunningStat response_time;

  double unsatisfied_rate() const;
  double probes_per_query() const;
};

/// Everything GUESS measures during one simulation's measurement window.
/// The per-query totals, probe samples and interval rows are the unified
/// SearchResults fields, counted once by the backend's QueryLedger;
/// queries_completed, queries_satisfied and response_time are copies of
/// them, kept for average() and the per-class splits' readers.
struct SimulationResults {
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_satisfied = 0;
  ProbeCounters probes;  ///< summed over completed queries

  /// Per-class splits of the same query metrics (honest vs selfish peers).
  ClassMetrics honest;
  ClassMetrics selfish;

  /// Response time of satisfied queries, seconds (§6.2).
  RunningStat response_time;

  /// Distinct peers that entered a query's candidate set (query-cache size).
  RunningStat query_cache_population;

  /// Query probes received per peer over its lifetime, one sample per good
  /// peer that existed during the run (Figure 13).
  SampleSet peer_loads;

  CacheHealth cache_health;

  /// Largest weakly-connected component of the conceptual overlay, sampled
  /// periodically when connectivity sampling is enabled (Figures 6, 7).
  RunningStat largest_component;

  /// End-of-run connectivity snapshot (only when connectivity sampling is
  /// enabled). Neighbor pointers are one-way (§2.1), so the strongly
  /// connected component — peers that can reach each other — can be much
  /// smaller than the weak one the paper plots.
  std::size_t final_largest_component = 0;
  std::size_t final_largest_strong_component = 0;

  std::uint64_t pings_sent = 0;    ///< during measurement
  std::uint64_t pings_to_dead = 0; ///< during measurement

  /// Transport-level message accounting during measurement (DESIGN.md §8).
  TransportCounters transport;

  /// Adversary-zoo activity and triggered defenses, whole-run (§11).
  AttackStats attack;

  /// Queries abandoned because a creditless peer stalled past the limit
  /// (§3.3 probe payments; counted within queries_completed, unsatisfied).
  std::uint64_t queries_stalled_out = 0;

  // --- derived ---
  double unsatisfied_rate() const;
  double probes_per_query() const;
  double good_probes_per_query() const;
  double dead_probes_per_query() const;
  double refused_probes_per_query() const;
};

/// Aggregate of repeated runs: averages of the headline per-query metrics,
/// plus standard errors across seeds for the two headline numbers (0 when
/// only one seed was run).
struct AveragedResults {
  double probes_per_query = 0.0;
  double good_per_query = 0.0;
  double dead_per_query = 0.0;
  double refused_per_query = 0.0;
  double unsatisfied_rate = 0.0;
  double fraction_live = 0.0;
  double absolute_live = 0.0;
  double good_entries = 0.0;
  double largest_component = 0.0;
  double response_time = 0.0;
  double queries_completed = 0.0;
  double probes_per_query_se = 0.0;
  double unsatisfied_rate_se = 0.0;
  /// End-of-run connectivity snapshots (0 unless sample_connectivity).
  double final_largest_component = 0.0;
  double final_largest_strong_component = 0.0;
};

AveragedResults average(const std::vector<SimulationResults>& runs);

}  // namespace guess
