// GUESS as a SearchBackend (DESIGN.md §12): the population of peers,
// message exchange, churn, workload and metric collection of the paper's
// non-forwarding search, driven by search::run_search like the other four
// backends. The GUESS-only results travel in the extension slot
// (`extra_as<SimulationResults>()`).
//
// Message exchange flows through a pluggable Transport (DESIGN.md §8). The
// default SynchronousTransport resolves every probe/reply round trip inline
// within the sending event — the paper's §5.1 assumption that a probe and
// its reply complete "within the timeout" — while LossyTransport injects
// loss, latency, timeouts and retries, resolving exchanges through
// scheduled events. Time passes between probes through the probe-slot
// scheduling in query_step(); a slot's epilogue runs when its last probe
// resolves.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "common/pool.h"
#include "common/rng.h"
#include "common/trace.h"
#include "content/content_model.h"
#include "content/query_stream.h"
#include "guess/adversary.h"
#include "guess/config.h"
#include "guess/metrics.h"
#include "guess/peer.h"
#include "guess/peer_table.h"
#include "guess/query_execution.h"
#include "guess/transport.h"
#include "search/backend.h"
#include "search/population.h"
#include "search/query_ledger.h"
#include "sim/simulator.h"

namespace guess::search {

// GuessBackend supports every fault action (DESIGN.md §9) and is the
// TransportModulation (the partition / degradation overlay the transport
// consults per send). The modulation is installed on the transport only
// when the config carries a scenario, so scenario-free runs execute the
// exact pre-fault code path.
class GuessBackend final : public SearchBackend, public TransportModulation {
 public:
  /// Validates the config and keeps it: the system, protocol and transport
  /// blocks and the query switches are read from it for the whole run.
  GuessBackend(const SimulationConfig& config, sim::Simulator& simulator,
               Rng rng);

  ~GuessBackend() override;

  GuessBackend(const GuessBackend&) = delete;
  GuessBackend& operator=(const GuessBackend&) = delete;

  const char* name() const override { return "guess"; }

  /// Create the initial population, seed link caches, start ping timers and
  /// the per-peer query clocks (none when queries are disabled or the run
  /// is open loop). Call once, before running the simulator.
  void bootstrap() override;

  /// Start the measurement window: from now on completed queries, pings and
  /// samples count toward the results. Takes a cache-health sample at once,
  /// then every kHealthSampleInterval, and (sample_connectivity) a
  /// largest-component sample every connectivity_sample_interval.
  void begin_measurement() override;

  /// One query from a uniformly random live origin for a workload-drawn
  /// file; `rng` draws the origin, then the file.
  void start_query(Rng& rng, sim::Time issued) override;

  /// Attach the open-loop query-lifecycle observer (DESIGN.md §13).
  /// Completion callbacks fire after the backend's own bookkeeping for the
  /// finishing query — including auto-starting the origin's next pending
  /// query — so the observer may start new queries reentrantly.
  void configure_open_loop(QueryObserver* observer) override {
    query_observer_ = observer;
  }

  /// Active executions plus per-peer pending entries.
  void visit_open_queries(
      const std::function<void(sim::Time)>& visit) const override;

  /// Finalize and return results (flushes live peers' loads; with
  /// sample_connectivity, takes a last sample and the end-of-run component
  /// snapshot). The backend can keep running afterwards, but results are a
  /// snapshot.
  SearchResults collect() override;

  std::size_t live_peers() const override { return peers_.table().size(); }

  // --- time-resolved interval metrics (DESIGN.md §9) ---

  /// Start the interval rows; they carry the transport delta. Unlike
  /// begin_measurement() this runs from t=0: a fault needs a pre-fault
  /// baseline even when it lands at the measurement boundary.
  void begin_intervals(sim::Duration width) override {
    ledger_.begin_intervals(width, transport_->counters());
  }
  /// Close the current interval at now and open the next one.
  void sample_interval() override {
    ledger_.sample_interval(live_peers(), transport_->counters());
  }

  // --- faults::FaultHost (DESIGN.md §9) ---

  /// Correlated mass departure: kill floor(fraction * alive) peers chosen
  /// uniformly at random, with NO replacement births — the population stays
  /// reduced until a join action (natural churn still replaces 1:1).
  void fault_mass_kill(double fraction) override;
  /// Flash crowd: `count` honest newborns join through the normal birth
  /// path (friend-seeded caches, churn-registered lifetimes).
  void fault_mass_join(std::size_t count) override;
  /// Assign every live peer to one of `ways` groups uniformly at random;
  /// cross-group exchanges are severed until the partition heals. Newborns
  /// during the partition draw a group on birth.
  void fault_set_partition(int ways) override;
  void fault_clear_partition() override;
  /// Open a transport-degradation window: extra per-leg loss (added to the
  /// configured loss, clamped to 1) and a latency multiplier.
  void fault_set_degradation(double extra_loss,
                             double latency_factor) override;
  void fault_clear_degradation() override;
  /// Toggle §6.4's poisoners (forwarded to the zoo). While off, they answer
  /// with their real caches and honest introduction entries.
  void fault_set_poisoning(bool active) override;
  /// Deploy an adversary cohort of floor(fraction * alive) members (min 1)
  /// running `kind`'s behavior (DESIGN.md §11). Cohort members are not
  /// churn-registered — their lifetime is the attack window (sybils recycle
  /// identities within it) — and the poisoning toggle does not touch them.
  void fault_start_attack(faults::AttackKind kind, double fraction) override;
  /// Retire the whole cohort of `kind` without replacement births.
  void fault_stop_attack(faults::AttackKind kind) override;

  // --- TransportModulation (consulted by the transport per send) ---

  bool severed(PeerId from, PeerId to) const override;
  double extra_loss() const override { return peers_.extra_loss(); }
  double latency_factor() const override { return peers_.latency_factor(); }

  // --- introspection (tests, analysis) ---

  bool alive(PeerId id) const { return peers_.table().alive(id); }
  const Peer* find(PeerId id) const { return peers_.table().find(id); }
  Peer* find(PeerId id) { return peers_.table().find(id); }
  const std::vector<PeerId>& alive_ids() const {
    return peers_.table().alive_ids();
  }
  bool is_malicious(PeerId id) const;
  bool poisoning_active() const { return zoo_.poisoning(); }
  /// True iff `id` is an adversary-zoo member: a poisoner or a deployed
  /// cohort member (tests).
  bool is_adversary(PeerId id) const { return zoo_.contains(id); }
  const AdversaryZoo& adversary_zoo() const { return zoo_; }
  /// The entry `peer` introduces itself with right now: a liar's claims,
  /// else its real library size.
  CacheEntry introduction_entry(const Peer& peer) const;
  /// Whole-run attack/defense counters (also snapshotted into results).
  const AttackStats& attack_stats() const { return attack_stats_; }
  int partition_ways() const { return peers_.partition_ways(); }
  /// Partition group of `id`, or -1 when unpartitioned/unknown (tests).
  int partition_group(PeerId id) const { return peers_.side(id); }
  /// Churn deaths over the whole run, warmup included (tests).
  std::uint64_t deaths() const { return peers_.deaths(); }
  std::size_t active_queries() const { return active_query_count_; }
  const SystemParams& system() const { return config_.system(); }
  const ProtocolParams& protocol() const { return config_.protocol(); }

  /// Visit every conceptual-overlay edge (live owner -> live target).
  /// The visitor is invoked as visit(owner, target) and is templated so hot
  /// callers (largest_component, connectivity sampling) pay no type-erasure
  /// dispatch per edge.
  template <typename Visitor>
  void visit_live_edges(Visitor&& visit) const {
    for (PeerId id : alive_ids()) {
      const Peer& peer = *find(id);
      for (const CacheEntry& entry : peer.cache().entries()) {
        if (alive(entry.id)) visit(id, entry.id);
      }
    }
  }

  /// Largest weakly-connected component of the conceptual overlay.
  std::size_t largest_component() const;

  /// Inject a query from `origin` for `file` (tests); it runs through the
  /// normal probe machinery and is issued now.
  void submit_query(PeerId origin, content::FileId file);

  /// Attach an event tracer (nullptr detaches). The tracer must outlive the
  /// backend. Zero overhead beyond one branch per trace point when the
  /// category is off. Forwards to the transport (kTransport category).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    transport_->set_tracer(tracer);
  }

  /// Test hook (determinism suite): force births to claim dense slots in
  /// the given order instead of 0, 1, 2, ... — results must be bitwise
  /// identical either way. Call before bootstrap().
  void debug_seed_free_slots(std::vector<std::uint32_t> order) {
    peers_.table().debug_seed_free_slots(std::move(order));
  }

 private:
  // --- event thunks ---
  // The per-event callables of the three hot self-rescheduling chains
  // (pings, query bursts, probe slots). Named structs instead of per-call
  // lambdas so guess.cc can static_assert they stay within the event
  // queue's inline-callback buffer: scheduling them never allocates.
  struct PingFired;
  struct BurstFired;
  struct QueryStepFired;

  // --- transport completion thunks ---
  // Callables handed to Transport::exchange. Named structs so guess.cc can
  // static_assert they fit the Transport::Completion inline buffer.
  struct PingResolved;
  struct QueryProbeResolved;

  // --- adversary-zoo event thunk (sybil identity expiry) ---
  struct SybilExpired;

  // --- lifecycle ---
  /// Birth one population member (initial or newborn): honest, selfish,
  /// or a §6.4 poisoner.
  PeerId spawn_peer(bool malicious, bool selfish, Birth birth);
  /// Birth one cohort member of `kind`: malicious, friend-seeded, not
  /// churn-registered, no query workload, ping timer scaled by the
  /// behavior's factor; sybils also arm their identity-expiry timer.
  PeerId spawn_adversary(faults::AttackKind kind);
  /// The birth steps every peer shares: the population's birth, credit,
  /// cache orderings and floors, and the active-query slot.
  Peer& create_peer(Birth birth, content::Library library, bool malicious,
                    bool selfish);
  void sybil_expired(PeerId id);
  void on_peer_death(PeerId id);
  /// Tear one peer out of the network (timers, queries, alive list, zoo
  /// roster) WITHOUT the replacement birth. The death path and the
  /// fault-scenario mass kill share this.
  void remove_peer(PeerId id);
  void seed_initial_caches();
  void seed_from_friend(Peer& newborn);
  /// Arm the ping chain at `factor` × PingInterval (1 for honest peers and
  /// poisoners) with a random phase.
  void start_ping_timer(Peer& peer, double factor);
  void schedule_next_ping(Peer& peer, sim::Duration delay);
  void ping_timer_fired(PeerId id);
  void start_query_workload(Peer& peer);
  void schedule_next_burst(Peer& peer);
  void burst_timer_fired(PeerId id);

  // --- protocol messages ---
  void do_ping(PeerId pinger_id);
  void ping_resolved(PeerId pinger_id, PeerId target_id, bool measured,
                     DeliveryStatus status);
  void maybe_reseed_from_pong_server(Peer& peer);
  /// Fill `out` with the responder's Pong: its behavior's attack pong if it
  /// lies right now, else select_top under `policy`. Callers pass the shared
  /// pong_scratch_; no path generates a Pong while another is being consumed
  /// (single-threaded event loop, and neither process_pong_entries nor
  /// offer_query_pong can re-enter a Pong build).
  void make_pong_into(const Peer& responder, Policy policy,
                      std::vector<CacheEntry>& out);
  void process_pong_entries(Peer& receiver, PeerId source,
                            const std::vector<CacheEntry>& entries);
  /// Pong-size cap (max_pong_entries): discards oversized pongs, charging
  /// the sender. Returns the accepted prefix length of the pong.
  std::size_t accepted_pong_entries(Peer& receiver, PeerId source,
                                    std::size_t entry_count);
  /// charge_no_reply: file a bad referral against a target that never
  /// answered our Ping/QueryProbe (reply-withholding defense).
  void charge_no_reply(Peer& prober, PeerId target_id);
  void maybe_introduce(Peer& responder, const Peer& initiator);

  // --- queries ---
  void start_next_query(Peer& origin);
  void query_step(PeerId origin_id);
  void probe_resolved(PeerId origin_id, std::uint64_t token,
                      const QueryExecution::Candidate& candidate,
                      DeliveryStatus status);
  void finish_slot(PeerId origin_id);
  void finish_query(Peer& origin, QueryExecution& query, bool satisfied);
  void offer_query_pong(Peer& origin, QueryExecution& query, PeerId source,
                        const std::vector<CacheEntry>& entries);
  /// The origin's active query, or nullptr (dead origin / no query). O(1):
  /// two array indexings through the dense slot table.
  QueryExecution* active_query_for(PeerId origin_id);
  /// Return the slot's active query (if any) to the pool.
  void release_active_query(std::uint32_t slot);

  // --- measurement ---
  /// One cache-health sample (Table 3 / Figures 18, 21), folded into the
  /// results' running averages.
  void sample_cache_health();
  /// One largest-component sample (Figures 6, 7); returns its size.
  std::size_t sample_connectivity();

  // --- bookkeeping ---
  void flush_load(const Peer& peer);

  /// Lazily-built trace record: the builder runs only if the category is on.
  template <typename Builder>
  void trace(TraceCategory category, Builder&& builder) {
    if (tracer_ != nullptr && tracer_->on(category)) {
      std::ostringstream os;
      builder(os);
      tracer_->record(category, simulator_.now(), os.str());
    }
  }

  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;

  content::ContentModel content_;
  content::QueryStream query_stream_;
  // Every hostile peer: §6.4's poisoners and the attack cohorts.
  AdversaryZoo zoo_;
  // The peers, with churn, partition sides and the degradation window.
  Population<Peer> peers_;
  std::unique_ptr<Transport> transport_;

  // Active queries, indexed by the origin's dense slot. A slot's entry is
  // returned to the pool when its query finishes or its origin dies, so a
  // slot's next tenant always starts clean; late transport completions are
  // rejected by token mismatch. Steady-state queries recycle pooled
  // executions and never allocate.
  std::vector<std::unique_ptr<QueryExecution>> active_query_by_slot_;
  FreeListPool<QueryExecution> query_pool_;
  std::size_t active_query_count_ = 0;
  std::uint64_t next_query_token_ = 0;

  bool measuring_ = false;
  QueryLedger ledger_;
  SimulationResults results_;
  TransportCounters transport_baseline_;
  // Lifetime loads of honest corpses (Figure 13); ids are not needed, the
  // loads feed an order-insensitive summary.
  std::vector<std::uint64_t> dead_peer_loads_;
  // Shared Pong build buffer (see make_pong_into).
  std::vector<CacheEntry> pong_scratch_;
  Tracer* tracer_ = nullptr;
  QueryObserver* query_observer_ = nullptr;

  // --- adversary-zoo state (DESIGN.md §11) ---
  // Whole-run counters; mutable because severed() — a const modulation
  // callback the transport consults per send — is where a withholder
  // swallowing an exchange is observed.
  mutable AttackStats attack_stats_;
};

}  // namespace guess::search
