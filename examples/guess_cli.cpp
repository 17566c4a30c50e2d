// guess_cli: a command-line front end exposing every Table 1/2 parameter
// plus the extension knobs — the tool a downstream user runs to explore
// configurations without writing code.
//
//   ./build/examples/guess_cli --help
//   ./build/examples/guess_cli --n=2000 --query-pong=MFS --cache-size=50
//       --bad=10 --bad-behavior=Bad --detection --measure=3600
#include <algorithm>
#include <iostream>
#include <limits>

#include "analysis/load_analysis.h"
#include "common/check.h"
#include "common/flags.h"
#include "experiments/harness.h"
#include "faults/scenario.h"
#include "search/backend.h"
#include "search/gossip.h"

namespace {

void print_help() {
  std::cout << R"(guess_cli — simulate a GUESS network (paper defaults unless overridden)

System (Table 1):
  --n=1000                 NetworkSize
  --desired=1              NumDesiredResults
  --lifespan=1.0           LifespanMultiplier
  --query-rate=0.00926     queries per user per second
  --max-probes-per-sec=100 MaxProbesPerSecond
  --bad=0                  PercentBadPeers (0..100)
  --bad-behavior=Dead      Dead | Bad (collusion)
  --selfish=0              percent of selfish peers (§3.3)

Protocol (Table 2):
  --query-probe=Ran --query-pong=Ran --ping-probe=Ran --ping-pong=Ran
                           Ran | MRU | LRU | MFS | MR
  --replacement=Ran        Ran | LRU | MRU | LFS | LR (what gets evicted)
  --ping-interval=30 --cache-size=100 --pong-size=5 --intro-prob=0.1
  --reset-num-results      MR* ingestion (first-hand NumRes only)
  --backoff                DoBackoff on refused probes
  --parallel=1             probes per slot (§6.2 walks)

Extensions:
  --payments               probe-payment economy (§3.3)
  --detection              malicious-peer detection + adaptive MR->MR* (§6.4)
  --detection-hardened     hardened preset (DESIGN.md §11): enables detection
                           plus oversize-pong caps, no-reply charging and a
                           first-hand cache floor
  --max-pong-entries=0     discard pongs above this many entries and
                           blacklist the sender (0 = off)
  --charge-no-reply        charge peers whose pings/probes time out
  --first-hand-floor=0     LinkCache keeps at least this many first-hand
                           entries against foreign displacement (0 = off)
  --reseed                 pong-server rebootstrap (§6.1)
  --adaptive-ping          adaptive PingInterval (§6.1): every 5 pings, 1 dead
                           grows it 1.5x, 2+ dead halve it
  --adaptive-parallel      adaptive probe-rate ramp (§6.2): doubles the
                           probes per slot after 5 result-less slots
  --no-query-cache         ablate the query cache (§2.3)

Transport fault injection (presence of any switches on LossyTransport):
  --loss=0.05              i.i.d. per-message loss probability
  --link-latency=0.05      one-way link latency (s)
  --probe-timeout=2        per-attempt round-trip timeout (s)
  --max-retries=0          retransmits after the first timeout (each sent
                           the instant its predecessor times out)

Fault scenarios (DESIGN.md §9) and attacks (DESIGN.md §11):
  --scenario="at 600 kill 0.3; at 600 partition 2 for 300"
                           inline fault-scenario spec
  --scenario="at 600 attack eclipse frac=0.1 for 300"
                           adversary attack window; kinds: eclipse | sybil |
                           pong-flood | withhold
  --scenario-file=PATH     load the spec from a file
  --interval=60            time-resolved metrics interval (s); defaults to
                           60 when a scenario is given, else off

Search backend (DESIGN.md §12; all run through the SearchBackend API):
  --backend=guess          guess | flood | iterative | onehop | gossip
                           non-GUESS backends print the unified results
                           (success rate, probes/query, bytes on wire)

Open-loop arrivals + overload control (DESIGN.md §13):
  --arrival=closed         closed (population query clocks) | open (arrival
                           process at --offered-qps, any backend)
  --offered-qps=0          offered load in queries/s (required when open)
  --overload-policy=none   none | admit | shed
  --slo-ms=10000           latency SLO (ms) for goodput accounting

Run control:
  --seed=42 --warmup=600 --measure=2400 --connectivity

Unknown flags, and negative values for counts and sizes, are rejected.
)";
}

}  // namespace

int main(int argc, char** argv) {
  guess::Flags flags(argc, argv);
  if (flags.has("help")) {
    print_help();
    return 0;
  }

  guess::SystemParams system;
  system.network_size = flags.get_size("n", 1000);
  system.num_desired_results = flags.get_size("desired", 1);
  system.lifespan_multiplier = flags.get_double("lifespan", 1.0);
  system.query_rate = flags.get_double("query-rate", 9.26e-3);
  const std::size_t max_probes = flags.get_size("max-probes-per-sec", 100);
  GUESS_CHECK_MSG(max_probes <= std::numeric_limits<std::uint32_t>::max(),
                  "--max-probes-per-sec must fit in 32 bits, got "
                      << max_probes);
  system.max_probes_per_second = static_cast<std::uint32_t>(max_probes);
  system.percent_bad_peers = flags.get_double("bad", 0.0);
  system.bad_pong_behavior =
      guess::parse_bad_pong_behavior(flags.get_string("bad-behavior", "Dead"));
  system.percent_selfish_peers = flags.get_double("selfish", 0.0);

  guess::ProtocolParams protocol;
  protocol.query_probe =
      guess::parse_policy(flags.get_string("query-probe", "Ran"));
  protocol.query_pong =
      guess::parse_policy(flags.get_string("query-pong", "Ran"));
  protocol.ping_probe =
      guess::parse_policy(flags.get_string("ping-probe", "Ran"));
  protocol.ping_pong =
      guess::parse_policy(flags.get_string("ping-pong", "Ran"));
  protocol.cache_replacement =
      guess::parse_replacement(flags.get_string("replacement", "Ran"));
  protocol.ping_interval = flags.get_double("ping-interval", 30.0);
  protocol.cache_size = flags.get_size("cache-size", 100);
  protocol.pong_size = flags.get_size("pong-size", 5);
  protocol.intro_prob = flags.get_double("intro-prob", 0.1);
  protocol.reset_num_results = flags.get_bool("reset-num-results", false);
  protocol.do_backoff = flags.get_bool("backoff", false);
  protocol.parallel_probes = flags.get_size("parallel", 1);
  protocol.payments = flags.get_bool("payments", false);
  if (flags.get_bool("detection-hardened", false)) {
    protocol.detection = guess::DetectionParams::hardened();
  }
  protocol.detection.enabled =
      flags.get_bool("detection", protocol.detection.enabled);
  protocol.detection.max_pong_entries =
      flags.get_size("max-pong-entries", protocol.detection.max_pong_entries);
  protocol.detection.charge_no_reply =
      flags.get_bool("charge-no-reply", protocol.detection.charge_no_reply);
  protocol.detection.first_hand_floor =
      flags.get_size("first-hand-floor", protocol.detection.first_hand_floor);
  protocol.pong_server_reseed = flags.get_bool("reseed", false);
  protocol.adaptive_ping = flags.get_bool("adaptive-ping", false);
  protocol.adaptive_parallel = flags.get_bool("adaptive-parallel", false);
  protocol.use_query_cache = !flags.get_bool("no-query-cache", false);

  auto injection = guess::experiments::FaultInjection::from_flags(flags);
  const guess::TransportParams& transport = injection.transport;
  const guess::faults::Scenario& scenario = injection.scenario;

  guess::SearchBackendId backend =
      guess::parse_backend(flags.get_string("backend", "guess"));
  auto config = guess::SimulationConfig()
                    .backend(backend)
                    .system(system)
                    .protocol(protocol)
                    .transport(transport)
                    .scenario(scenario)
                    .metrics_interval(injection.metrics_interval)
                    .seed(flags.seed())
                    .warmup(flags.get_double("warmup", 600.0))
                    .measure(flags.get_double("measure", 2400.0))
                    .sample_connectivity(flags.get_bool("connectivity", false));
  config
      .arrival(guess::sim::parse_arrival_mode(
          flags.get_string("arrival", "closed")))
      .offered_qps(flags.get_double("offered-qps", 0.0))
      .overload_policy(guess::parse_overload_policy(
          flags.get_string("overload-policy", "none")))
      .slo(flags.slo_ms() / 1000.0);
  flags.reject_unread();

  std::cout << "backend:  " << guess::backend_name(backend) << "\n"
            << "system:   " << guess::describe(system) << "\n"
            << "protocol: " << guess::describe(protocol) << "\n";
  if (transport.kind == guess::TransportParams::Kind::kLossy) {
    std::cout << "transport: " << guess::describe(transport) << "\n";
  }
  if (!scenario.empty()) {
    std::cout << "scenario: " << scenario.describe() << "\n";
  }
  std::cout << "running " << config.options().warmup << "s warmup + "
            << config.options().measure << "s measurement (seed "
            << config.seed() << ")...\n\n";

  // Every backend runs through the one SearchBackend code path.
  guess::search::SearchResults unified = guess::search::run_search(config);

  std::cout << "queries completed     " << unified.queries_completed << "\n"
            << "unsatisfied           " << 100.0 * unified.unsatisfied_rate()
            << " %\n"
            << "probes/query          " << unified.probes_per_query()
            << "  (p95 " << unified.probes_percentile(95.0) << ")\n"
            << "messages              " << unified.query_messages
            << " query + " << unified.maintenance_messages
            << " maintenance\n"
            << "bytes on wire         " << unified.bytes_on_wire() << " ("
            << unified.bytes_per_query() << " per query)\n"
            << "peer deaths           " << unified.deaths << "\n";

  if (unified.overload.open_loop) {
    const guess::OverloadStats& ol = unified.overload;
    std::cout << "offered load          " << ol.offered_qps << " q/s, policy "
              << guess::overload_policy_name(ol.policy) << "\n"
              << "arrivals              " << ol.arrivals << " (admitted "
              << ol.admitted << ", rejected " << ol.rejected << ", shed "
              << ol.shed << ", abandoned " << ol.abandoned << ", open at close "
              << ol.open_at_close << ")\n"
              << "latency (s)           p50 " << ol.latency_percentile(50.0)
              << ", p95 " << ol.latency_percentile(95.0) << ", p99 "
              << ol.latency_percentile(99.0) << ", p99.9 "
              << ol.latency_percentile(99.9) << "\n"
              << "slo " << ol.slo << " s            " << ol.slo_ok
              << " within (" << 100.0 * ol.slo_violation_rate()
              << "% violations), goodput "
              << ol.goodput(unified.measure_duration) << " q/s\n";
  }

  if (const auto* results = unified.extra_as<guess::SimulationResults>()) {
    auto load = guess::analysis::summarize_load(results->peer_loads);
    std::cout << "probe split           good "
              << results->good_probes_per_query() << ", dead "
              << results->dead_probes_per_query() << ", refused "
              << results->refused_probes_per_query() << "\n"
              << "response time         " << results->response_time.mean()
              << " s mean, " << results->response_time.max() << " s max\n"
              << "cache health          "
              << results->cache_health.fraction_live << " live fraction, "
              << results->cache_health.good_entries << " good entries\n"
              << "load                  gini " << load.gini << ", top peer "
              << load.max << " probes\n";
    if (transport.kind == guess::TransportParams::Kind::kLossy) {
      const guess::TransportCounters& tc = results->transport;
      std::cout << "transport             " << tc.messages_sent << " sent, "
                << tc.messages_lost << " lost, " << tc.timeouts
                << " timeouts, " << tc.retransmits << " retransmits, "
                << tc.late_replies << " late replies, "
                << tc.exchanges_failed << " failed exchanges\n";
    }
    if (scenario.uses_attacks()) {
      const guess::AttackStats& as = results->attack;
      std::cout << "attack                " << as.adversaries_spawned
                << " spawned, " << as.adversaries_retired << " retired, "
                << as.sybil_respawns << " sybil respawns, "
                << as.withheld_exchanges << " withheld, "
                << as.oversized_pongs << " oversized pongs ("
                << as.pong_entries_dropped << " entries dropped), "
                << as.no_reply_charges << " no-reply charges\n";
    }
    if (config.options().sample_connectivity) {
      std::cout << "largest component     "
                << results->largest_component.mean()
                << " (mean of samples)\n";
    }
    if (system.percent_selfish_peers > 0.0) {
      std::cout << "honest:  " << results->honest.probes_per_query()
                << " probes/q, "
                << 100.0 * results->honest.unsatisfied_rate() << "% unsat, "
                << results->honest.response_time.mean() << " s\n"
                << "selfish: " << results->selfish.probes_per_query()
                << " probes/q, "
                << 100.0 * results->selfish.unsatisfied_rate() << "% unsat, "
                << results->selfish.response_time.mean() << " s\n";
    }
  }
  if (const auto* gossip = unified.extra_as<guess::search::GossipStats>()) {
    std::cout << "gossip                " << gossip->local_hits << " local, "
              << gossip->knowledge_hits << " knowledge, "
              << gossip->fallback_queries << " fallback; stale ads "
              << gossip->stale_ads_expired << " expired + "
              << gossip->stale_ads_dead << " dead; knowledge "
              << gossip->knowledge_size.mean() << " entries/peer\n";
  }
  if (!unified.interval_series.empty()) {
    std::cout << "\ninterval series (start..end  success  queries  probes/q"
                 "  live):\n";
    for (const guess::IntervalSample& s : unified.interval_series) {
      std::cout << "  " << s.start << " .. " << s.end << "  ";
      if (s.queries_completed == 0) {
        std::cout << "   -  ";
      } else {
        std::cout << 100.0 * s.success_rate() << "%";
      }
      std::cout << "  " << s.queries_completed << "  "
                << s.probes_per_query() << "  " << s.live_peers << "\n";
    }
    // A series in which no row completed a query (iterative's closed-loop
    // batch runs outside simulated time) carries no recovery signal.
    bool any_completed = std::ranges::any_of(
        unified.interval_series,
        [](const guess::IntervalSample& s) { return s.queries_completed > 0; });
    if (!scenario.empty() && any_completed) {
      guess::RecoveryMetrics recovery = guess::compute_recovery(
          unified.interval_series, scenario.first_fault_time(),
          scenario.last_fault_end());
      std::cout << "recovery: baseline " << 100.0 * recovery.baseline
                << "%, min during fault "
                << 100.0 * recovery.min_during_fault << "%, time to recovery ";
      if (recovery.time_to_recovery < 0.0) {
        std::cout << "never";
      } else {
        std::cout << recovery.time_to_recovery << " s";
      }
      std::cout << ", availability " << 100.0 * recovery.availability
                << "% (epsilon " << recovery.epsilon << ")\n";
    }
  }
  return 0;
}
