// SimulationConfig — the unified, validated construction surface of
// guesslib.
//
// Historically a simulation was assembled from loose parameter structs plus
// a bool threaded positionally through the network, the driver and the
// bench harness (`SystemParams, ProtocolParams, enable_queries, ...`).
// SimulationConfig replaces that boundary with one builder-style object:
//
//   auto config = guess::SimulationConfig()
//                     .system(system)
//                     .protocol(protocol)
//                     .transport(guess::TransportParams::lossy(0.05))
//                     .seed(7)
//                     .measure(1800.0);
//   auto run = guess::search::run_search(config);  // validates first
//   const auto& results = *run.extra_as<guess::SimulationResults>();
//
// The old positional signatures were removed after every in-tree harness,
// bench and example migrated; SimulationConfig is the only construction
// surface. It is also the construction surface of every search backend
// (search::SearchBackend, DESIGN.md §12): the `backend` field selects the
// protocol and the `backends` block carries per-backend tuning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "faults/scenario.h"
#include "guess/overload.h"
#include "guess/params.h"
#include "guess/transport.h"
#include "sim/arrival.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace guess {

/// Which search protocol a run drives (search::SearchBackend registry key,
/// DESIGN.md §12). Every backend shares the SystemParams workload (network
/// size, churn, content model, bursty query arrivals) — the paper's "same
/// methodology" requirement — and draws protocol tuning from its own block
/// in BackendParams.
enum class SearchBackendId {
  kGuess,      ///< non-forwarding GUESS (src/guess, the paper's subject)
  kFlood,      ///< live Gnutella-style TTL flooding (search/flood.h)
  kIterative,  ///< iterative deepening over a static population
  kOneHop,     ///< one-hop DHT lookups (search/onehop.h)
  kGossip,     ///< push/pull gossip of content ads + local knowledge (§12.4)
};

/// "guess" / "flood" / "iterative" / "onehop" / "gossip".
const char* backend_name(SearchBackendId id);

/// Parse a --backend= value; throws CheckError on unknown names.
SearchBackendId parse_backend(const std::string& name);

/// Tuning for the flooding backend (the workload fields come from
/// SystemParams; the degrees and hop delay are gnutella::kTargetDegree,
/// kMaxDegree and kHopDelay). The iterative-deepening backend has no tuning:
/// it always runs baseline::default_schedule(network_size).
struct FloodBackendParams {
  std::size_t ttl = 4;  ///< flood TTL in overlay hops
};

/// Tuning for the one-hop DHT backend.
struct OneHopBackendParams {
  sim::Duration dissemination_delay = 30.0;  ///< membership-event lag (s)
};

/// Tuning for the gossip backend (DESIGN.md §12.4): push/pull rumor
/// mongering of content advertisements into per-peer knowledge caches.
struct GossipBackendParams {
  sim::Duration gossip_interval = 10.0;  ///< seconds between a peer's rounds
  std::size_t fanout = 2;                ///< exchange partners per round
  std::size_t ads_per_exchange = 8;      ///< advertisement entries per leg
  std::size_t knowledge_capacity = 64;   ///< per-peer knowledge-cache bound
  sim::Duration ad_ttl = 120.0;          ///< advertisement lifetime (s)
  /// Push-with-counter rumor mongering: how many times a learned ad is
  /// re-forwarded before it goes quiet (0 = only own-library ads spread).
  std::size_t residual_pushes = 2;
  /// Fallback probing budget per query once local knowledge is exhausted
  /// (mirrors kMaxProbesPerQuery).
  std::size_t max_probes = 1000;
  sim::Duration probe_interval = 0.2;    ///< modeled per-probe RTT slot (s)
};

/// Per-backend tuning blocks, all defaulted; only the selected backend's
/// block is read. GUESS tuning stays in ProtocolParams (Table 2).
struct BackendParams {
  FloodBackendParams flood;
  OneHopBackendParams onehop;
  GossipBackendParams gossip;
};

/// Interval between cache-health samples (Table 3, Figures 18/21).
inline constexpr sim::Duration kHealthSampleInterval = 60.0;

/// Run-control block: seed, windows, sampling cadence, threading and the
/// event-queue backend. Lives inside SimulationConfig; a standalone struct
/// so harnesses can set the whole block at once (SimulationConfig::options).
struct SimulationOptions {
  std::uint64_t seed = 42;

  /// Simulated seconds before measurement starts (caches reach steady
  /// state; the paper measures steady-state behaviour).
  sim::Duration warmup = 600.0;

  /// Simulated seconds of the measurement window.
  sim::Duration measure = 2400.0;

  /// False for the §6.1 maintenance-only runs (Figures 6/7 isolate pings).
  /// GUESS only: validate() rejects false on any other backend.
  bool enable_queries = true;

  /// When true, also sample the conceptual overlay's largest connected
  /// component every connectivity_sample_interval (Figures 6/7). GUESS
  /// only: validate() rejects it on any other backend.
  bool sample_connectivity = false;
  sim::Duration connectivity_sample_interval = 120.0;

  /// Worker threads for search::run_search_seeds (replications run
  /// concurrently, one per thread). 0 = auto: the GUESS_THREADS environment
  /// variable when set, else all hardware threads. 1 = serial in the calling
  /// thread. Thread count never changes results — replications are
  /// independent and are returned in seed order (see DESIGN.md "Threading
  /// model").
  int threads = 0;

  /// Event-queue backend (--scheduler={heap,calendar}). Both schedulers pop
  /// events in identical (time, seq) order, so the choice never changes
  /// results — only how fast the simulator processes events (see DESIGN.md
  /// "Event core").
  sim::Scheduler scheduler = sim::Scheduler::kHeap;

  /// Width of the time-resolved metrics intervals (DESIGN.md §9); 0 disables
  /// the interval series. Surfaced as --interval.
  sim::Duration metrics_interval = 0.0;

  /// How queries are injected (DESIGN.md §13): kClosed is the paper's
  /// per-peer query clock; kOpen replaces it with an external
  /// sim::ArrivalProcess at offered_qps arrivals/sec (--arrival).
  sim::ArrivalMode arrival = sim::ArrivalMode::kClosed;

  /// Open-loop offered load, queries per simulated second (--offered-qps).
  /// Must be > 0 when arrival == kOpen; ignored (and required 0) when
  /// closed.
  double offered_qps = 0.0;

  /// Latency SLO in seconds (--slo-ms / 1000): a query counts toward
  /// goodput only if it is satisfied within this budget.
  double slo = 10.0;

  /// Overload-control policy + tuning for open-loop runs (DESIGN.md §13.3,
  /// --overload-policy).
  OverloadParams overload;
};

/// Everything a GUESS simulation is built from, behind chainable setters.
/// Cheap to copy; validate() (called by search::run_search and by the GUESS
/// backend on construction) rejects nonsense configurations with a
/// CheckError instead of letting them run.
class SimulationConfig {
 public:
  SimulationConfig() = default;

  // --- chainable setters ---

  SimulationConfig& system(SystemParams v) {
    system_ = v;
    return *this;
  }
  SimulationConfig& protocol(ProtocolParams v) {
    protocol_ = v;
    return *this;
  }
  SimulationConfig& transport(TransportParams v) {
    transport_ = v;
    return *this;
  }
  /// Replace the whole run-control block at once (harness convenience).
  SimulationConfig& options(SimulationOptions v) {
    options_ = v;
    return *this;
  }
  SimulationConfig& seed(std::uint64_t v) {
    options_.seed = v;
    return *this;
  }
  SimulationConfig& warmup(sim::Duration v) {
    options_.warmup = v;
    return *this;
  }
  SimulationConfig& measure(sim::Duration v) {
    options_.measure = v;
    return *this;
  }
  SimulationConfig& enable_queries(bool v) {
    options_.enable_queries = v;
    return *this;
  }
  SimulationConfig& sample_connectivity(bool v) {
    options_.sample_connectivity = v;
    return *this;
  }
  SimulationConfig& threads(int v) {
    options_.threads = v;
    return *this;
  }
  SimulationConfig& scheduler(sim::Scheduler v) {
    options_.scheduler = v;
    return *this;
  }
  SimulationConfig& metrics_interval(sim::Duration v) {
    options_.metrics_interval = v;
    return *this;
  }
  SimulationConfig& arrival(sim::ArrivalMode v) {
    options_.arrival = v;
    return *this;
  }
  SimulationConfig& offered_qps(double v) {
    options_.offered_qps = v;
    return *this;
  }
  SimulationConfig& slo(double seconds) {
    options_.slo = seconds;
    return *this;
  }
  SimulationConfig& overload(OverloadParams v) {
    options_.overload = v;
    return *this;
  }
  SimulationConfig& overload_policy(OverloadPolicy v) {
    options_.overload.policy = v;
    return *this;
  }
  /// Fault scenario executed against the run (DESIGN.md §9). Empty (the
  /// default) means no fault engine is attached at all.
  SimulationConfig& scenario(faults::Scenario v) {
    scenario_ = std::move(v);
    return *this;
  }
  /// Which search backend a run drives (search::make_backend key); GUESS by
  /// default. Non-GUESS backends read the workload from SystemParams and
  /// their tuning from the backends block.
  SimulationConfig& backend(SearchBackendId v) {
    backend_ = v;
    return *this;
  }
  /// Replace the per-backend tuning blocks at once.
  SimulationConfig& backends(BackendParams v) {
    backends_ = std::move(v);
    return *this;
  }
  SimulationConfig& flood(FloodBackendParams v) {
    backends_.flood = v;
    return *this;
  }
  SimulationConfig& onehop(OneHopBackendParams v) {
    backends_.onehop = v;
    return *this;
  }
  SimulationConfig& gossip(GossipBackendParams v) {
    backends_.gossip = v;
    return *this;
  }

  // --- accessors ---

  const SystemParams& system() const { return system_; }
  const ProtocolParams& protocol() const { return protocol_; }
  const TransportParams& transport() const { return transport_; }
  const SimulationOptions& options() const { return options_; }
  const faults::Scenario& scenario() const { return scenario_; }
  SearchBackendId backend() const { return backend_; }
  const BackendParams& backends() const { return backends_; }
  std::uint64_t seed() const { return options_.seed; }
  bool enable_queries() const { return options_.enable_queries; }
  /// True when the run uses the external open-loop arrival process.
  bool open_loop() const {
    return options_.arrival == sim::ArrivalMode::kOpen;
  }

  /// Throws CheckError (with the offending field named) on invalid
  /// configurations: negative rates, loss outside [0, 1], timeout <= 0,
  /// empty windows of negative length, fractions that exceed the
  /// population, and similar nonsense. Returns *this so construction sites
  /// can validate inline.
  const SimulationConfig& validate() const;

 private:
  SystemParams system_;
  ProtocolParams protocol_;
  TransportParams transport_;
  SimulationOptions options_;
  faults::Scenario scenario_;
  SearchBackendId backend_ = SearchBackendId::kGuess;
  BackendParams backends_;
};

}  // namespace guess
