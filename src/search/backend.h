// SearchBackend — one API over every search protocol (DESIGN.md §12).
//
// The paper's central move is comparing GUESS against forwarding search
// under one methodology. Every protocol is a SearchBackend built straight
// from SimulationConfig, so the harness, guess_cli --backend=..., examples
// and benches all run protocols through one code path — and the churn,
// lossy-transport and fault-scenario machinery is available to every
// backend, not just GUESS.
//
//   auto config = guess::SimulationConfig()
//                     .backend(guess::SearchBackendId::kGossip)
//                     .seed(7);
//   guess::search::SearchResults r = guess::search::run_search(config);
//
// run_search is the only simulation driver. All five backends are written
// against this interface (adapters.h lists their factories); tests drive
// the concrete classes directly too.
// tests/search/backend_equivalence_test.cc pins every backend's runs to
// golden values; the per-backend results struct rides along in the typed
// extension slot (`extra_as<T>()`).
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "faults/fault_host.h"
#include "guess/config.h"
#include "guess/metrics.h"
#include "sim/simulator.h"

namespace guess::search {

/// Nominal wire sizes (bytes) used to convert message counts into
/// bytes-on-wire, uniformly across backends. The absolute numbers are a
/// documented model (DESIGN.md §12.3), not a packet trace; what matters for
/// the matrix bench is that every backend is billed by the same schedule.
struct WireModel {
  std::size_t header = 24;            ///< per message: framing + ids + type
  std::size_t probe_payload = 16;     ///< query/probe/ping request body
  std::size_t result_entry = 24;      ///< one (provider, file) result
  std::size_t ad_entry = 16;          ///< one pong/advertisement entry
  std::size_t membership_entry = 16;  ///< one-hop membership event record
};

/// The wire model every in-tree mapping uses.
inline constexpr WireModel kWire{};

/// Unified results superset. Naming normalization (all rates are fractions
/// in [0, 1], never percents):
///   * queries_completed/satisfied — "lookups" in OneHopResults; a lookup
///     is satisfied when some probe got an answer.
///   * probes — peers contacted per query, summed over completed queries:
///     GUESS probes.total(), flooding peers_reached, DHT probes incl.
///     timeouts, iterative peers probed, gossip probes.
///   * query_messages — transmissions serving queries, duplicates included:
///     flooding's "messages" (forward legs); direct-probe backends count
///     request + reply legs (dead/lost targets never reply).
///   * maintenance_messages — protocol upkeep: GUESS ping+pong legs,
///     flooding repair handshakes, DHT membership dissemination (each
///     event × the live ring it reaches), gossip push/pull legs.
/// The per-query fields (completed, satisfied, probes, probe_samples,
/// response_time) and interval_series are counted once, by the backend's
/// QueryLedger (query_ledger.h). Per-backend extras (the backend's own
/// results struct, holding only what is specific to it) travel in the
/// typed extension slot: `extra_as<SimulationResults>()` for GUESS,
/// `extra_as<gnutella::DynamicResults>()`, `extra_as<OneHopResults>()`,
/// `extra_as<baseline::DeepeningResult>()` (closed-loop batch only),
/// `extra_as<GossipStats>()`.
struct SearchResults {
  std::string backend;
  /// The configured population, SystemParams::network_size, on every
  /// backend — not the peers churn and faults left alive at collect.
  std::size_t network_size = 0;
  double measure_duration = 0.0;  ///< seconds of measurement window

  std::uint64_t queries_completed = 0;
  std::uint64_t queries_satisfied = 0;
  std::uint64_t probes = 0;
  std::uint64_t query_messages = 0;
  std::uint64_t maintenance_messages = 0;
  std::uint64_t query_bytes = 0;        ///< via kWire (DESIGN.md §12.3)
  std::uint64_t maintenance_bytes = 0;  ///< via kWire
  /// Peers removed during the measurement window by churn or by a fault
  /// kill, on every backend. Adversary-cohort retirements are not deaths;
  /// GUESS counts them in AttackStats.
  std::uint64_t deaths = 0;

  /// First-result latency of satisfied queries, seconds. Empty for the
  /// analytic backends (iterative) and the DHT (lookup latency is a probe
  /// count there, not simulated time).
  RunningStat response_time;

  /// Per-query probes, one sample per completed query (percentiles).
  SampleSet probe_samples;

  /// Time-resolved series (metrics_interval > 0), from t = 0, on every
  /// backend; see IntervalSeries.
  IntervalSeries interval_series;

  /// Open-loop arrival + overload-control accounting (DESIGN.md §13); all
  /// zeros (open_loop == false) for closed-loop runs.
  OverloadStats overload;

  /// Events the run's simulator fired, warmup included
  /// (sim::Simulator::events_fired(); stamped by run_search).
  std::uint64_t events_fired = 0;

  /// Typed extension slot: the backend's own results struct.
  std::any extra;

  template <typename T>
  const T* extra_as() const {
    return std::any_cast<T>(&extra);
  }

  // --- derived (fractions, not percents) ---
  double success_rate() const;
  double unsatisfied_rate() const { return 1.0 - success_rate(); }
  double probes_per_query() const;
  double query_messages_per_query() const;
  std::uint64_t bytes_on_wire() const { return query_bytes + maintenance_bytes; }
  double bytes_per_query() const;
  /// Percentile p in [0, 100] of the per-query probe distribution (0 when
  /// the backend recorded no samples).
  double probes_percentile(double p) const;
};

/// Abstract search protocol. Constructed from (SimulationConfig, Simulator,
/// Rng) by the factory; driven by run_search() in a fixed order (bootstrap →
/// faults → open-loop driver → intervals → warmup → begin_measurement →
/// measure → collect) that the GUESS golden values pin.
///
/// SearchBackend is a faults::FaultHost: the PR 4 fault-scenario engine
/// drives any backend. The base class rejects every action with a
/// CheckError naming the backend; backends override what they support
/// (GUESS: everything; gossip: kill/join/partition/degrade).
class SearchBackend : public faults::FaultHost {
 public:
  ~SearchBackend() override = default;

  virtual const char* name() const = 0;

  /// Build the initial population and start timers/workloads. Call once,
  /// before running the simulator.
  virtual void bootstrap() = 0;

  /// Start the measurement window (end of warmup). Backends also schedule
  /// their own periodic samplers here.
  virtual void begin_measurement() = 0;

  /// Inject one query from a uniformly random live peer for a
  /// workload-drawn target, through the normal protocol machinery. `rng`
  /// supplies the origin/target draws. `issued` is the query's external
  /// issue time (its open-loop arrival instant — latency is billed from
  /// here, including any controller queueing delay); direct callers pass
  /// the current simulated time.
  virtual void start_query(Rng& rng, sim::Time issued) = 0;

  /// Attach the open-loop query-lifecycle observer and silence the
  /// backend's own closed-loop query clock for this run. Called once by the
  /// driver, after bootstrap() and before any events run. The base class
  /// rejects (CheckError) — a backend that cannot report per-query
  /// completion must not silently drop latency accounting.
  virtual void configure_open_loop(QueryObserver* observer);

  /// Transport-level counters observed so far; the default reports zeros.
  /// The library no longer calls this and no in-tree backend overrides it;
  /// it stays declared because bench/e2e's timing wrapper forwards it.
  virtual TransportCounters transport_counters() const { return {}; }

  /// Visit the external issue time of every query currently open (active
  /// or queued inside the backend). End-of-window censusing: the driver
  /// bills still-running queries their age so an overloaded run cannot
  /// hide its backlog. Synchronous backends have nothing open.
  virtual void visit_open_queries(
      const std::function<void(sim::Time)>& visit) const {
    (void)visit;
  }

  /// Finalize and return results (run control fields like measure_duration
  /// are stamped by the driver).
  virtual SearchResults collect() = 0;

  virtual std::size_t live_peers() const = 0;

  // --- per-interval metric hooks (DESIGN.md §9/§12) ---
  // Every in-tree backend forwards both to its QueryLedger; the default
  // leaves the series empty. begin_intervals runs at t=0 (pre-fault
  // baselines), sample_interval at every interval boundary.
  virtual void begin_intervals(sim::Duration width) { (void)width; }
  virtual void sample_interval() {}

  // --- faults::FaultHost: reject-by-default ---
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;
  void fault_set_partition(int ways) override;
  void fault_clear_partition() override;
  void fault_set_degradation(double extra_loss,
                             double latency_factor) override;
  void fault_clear_degradation() override;
  void fault_set_poisoning(bool active) override;
  void fault_start_attack(faults::AttackKind kind, double fraction) override;
  void fault_stop_attack(faults::AttackKind kind) override;

 protected:
  /// Throws CheckError: "backend <name> does not support fault action ...".
  [[noreturn]] void unsupported_fault(const char* action) const;
};

/// Factory signature: every backend builds from the same three inputs.
using BackendFactory = std::unique_ptr<SearchBackend> (*)(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);

/// Override or extend the registry (the five in-tree backends are
/// pre-registered; tests may install instrumented doubles).
void register_backend(SearchBackendId id, BackendFactory factory);

/// Construct the backend selected by config.backend(). The config must
/// already be validated. Throws CheckError for an unregistered id.
std::unique_ptr<SearchBackend> make_backend(const SimulationConfig& config,
                                            sim::Simulator& simulator,
                                            Rng rng);

/// All registered backend ids, in enum order.
std::vector<SearchBackendId> registered_backends();

/// Run one full simulation of config.backend(): validate, build the
/// simulator and backend, bootstrap, attach the fault engine and interval
/// sampler, warm up, measure, collect. For kGuess the GUESS-only results
/// are in extra_as<SimulationResults>().
SearchResults run_search(const SimulationConfig& config);

/// Seed sweep over run_search (config.seed(), +1, ...) on a worker pool of
/// options().threads threads (0 = auto, see SimulationOptions::threads).
/// Results come back in seed order and are bitwise-identical for any thread
/// count. `progress`, when set, is called after each completed replication
/// with (completed, num_seeds); it runs on worker threads, serialized, in
/// completion order.
std::vector<SearchResults> run_search_seeds(
    const SimulationConfig& config, int num_seeds,
    const std::function<void(int, int)>& progress = {});

/// The seed sweeps of several configs on one shared worker pool, so a
/// multi-config sweep saturates the machine even at one seed each.
/// Replication i of configs[c] runs at seed configs[c].seed() + i and lands
/// at index c * num_seeds + i. Every config must ask for the same
/// options().threads; progress counts all configs.size() * num_seeds runs.
std::vector<SearchResults> run_search_seeds(
    const std::vector<SimulationConfig>& configs, int num_seeds,
    const std::function<void(int, int)>& progress = {});

}  // namespace guess::search
