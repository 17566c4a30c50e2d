#include "search/guess.h"

#include <algorithm>
#include <utility>

#include "analysis/overlay_graph.h"
#include "common/check.h"
#include "search/adapters.h"

namespace guess::search {

namespace {
// A query's stores are reserved for its link cache plus this many probe
// slots' worth of Pong fan-in.
constexpr std::size_t kReservedPongSlots = 4;
// A pooled execution keeps stores of at most this many full-cache
// reservations; a query that grew past them frees its stores on release.
constexpr std::size_t kPooledReservations = 4;
}  // namespace

// Event thunks for the hot self-rescheduling chains. Each is a fixed
// two-word callable, and the static_asserts pin them to the event queue's
// inline buffer: scheduling a ping, burst, or probe slot is allocation-free.
struct GuessBackend::PingFired {
  GuessBackend* net;
  PeerId id;
  void operator()() const { net->ping_timer_fired(id); }
};
struct GuessBackend::BurstFired {
  GuessBackend* net;
  PeerId id;
  void operator()() const { net->burst_timer_fired(id); }
};
struct GuessBackend::QueryStepFired {
  GuessBackend* net;
  PeerId id;
  void operator()() const { net->query_step(id); }
};

// Transport completion thunks. The static_asserts pin them to the
// Transport::Completion inline buffer: issuing a ping or a probe never
// allocates for the callback, under either transport.
struct GuessBackend::PingResolved {
  GuessBackend* net;
  PeerId pinger;
  PeerId target;
  // measuring_ at issue time: pings_sent is counted at issue, so the dead
  // outcome must be attributed to the same measurement window even when the
  // exchange resolves after begin_measurement (lossy mode).
  bool measured;
  void operator()(DeliveryStatus status) const {
    net->ping_resolved(pinger, target, measured, status);
  }
};
struct GuessBackend::SybilExpired {
  GuessBackend* net;
  PeerId id;
  void operator()() const { net->sybil_expired(id); }
};

struct GuessBackend::QueryProbeResolved {
  GuessBackend* net;
  PeerId origin;
  std::uint64_t token;
  QueryExecution::Candidate candidate;
  void operator()(DeliveryStatus status) const {
    net->probe_resolved(origin, token, candidate, status);
  }
};
GuessBackend::GuessBackend(const SimulationConfig& config,
                           sim::Simulator& simulator, Rng rng)
    : config_(config.validate()),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(system().content),
      query_stream_(system().query_rate),
      zoo_(system().bad_pong_behavior),
      peers_(simulator, system().lifespan_multiplier, rng_,
             [this](PeerId id) { on_peer_death(id); }),
      ledger_(simulator) {
  // The RNG split for the transport happens only on the lossy path: the
  // default SynchronousTransport draws nothing, so default-config runs
  // consume the exact pre-transport random stream (bitwise determinism
  // against the legacy API, asserted by the determinism tests).
  if (config_.transport().kind == TransportParams::Kind::kLossy) {
    transport_ = std::make_unique<LossyTransport>(config_.transport(),
                                                  simulator_, rng_.split());
  } else {
    transport_ = std::make_unique<SynchronousTransport>();
  }
  // The partition/degradation overlay only exists for scenario runs;
  // scenario-free runs keep the transport unmodulated (and identical to the
  // pre-fault code path).
  if (!config_.scenario().empty()) transport_->set_modulation(this);
}

GuessBackend::~GuessBackend() = default;

bool GuessBackend::is_malicious(PeerId id) const {
  const Peer* peer = find(id);
  return peer != nullptr && peer->malicious();
}

void GuessBackend::bootstrap() {
  GUESS_CHECK_MSG(peers_.id_bound() == 0, "bootstrap() called twice");
  peers_.table().reserve(system().network_size);
  // Dead poisoners' ammunition, allocated before the population.
  if (system().bad_fraction() > 0.0 &&
      system().bad_pong_behavior == BadPongBehavior::kDead) {
    zoo_.set_dead_pool(
        peers_.fabricate_ids(kDeadPoolFactor * system().network_size));
  }

  // Initial population: exactly the configured bad and selfish fractions,
  // placed randomly (ids are assigned in order, so shuffle the flags).
  // Selfishness applies to honest peers only — attackers don't query.
  auto bad_count = static_cast<std::size_t>(
      system().bad_fraction() * static_cast<double>(system().network_size));
  auto selfish_count = static_cast<std::size_t>(
      system().percent_selfish_peers / 100.0 *
      static_cast<double>(system().network_size));
  GUESS_CHECK_MSG(bad_count + selfish_count <= system().network_size,
                  "bad + selfish fractions exceed the population");
  // 0 honest, 1 bad, 2 selfish.
  std::vector<char> role(system().network_size, 0);
  std::fill_n(role.begin(), bad_count, char{1});
  std::fill_n(role.begin() + static_cast<std::ptrdiff_t>(bad_count),
              selfish_count, char{2});
  rng_.shuffle(role);
  for (std::size_t i = 0; i < system().network_size; ++i) {
    spawn_peer(role[i] == 1, role[i] == 2, Birth::kInitial);
  }
  seed_initial_caches();
}

Peer& GuessBackend::create_peer(Birth birth, content::Library library,
                                bool malicious, bool selfish) {
  Peer& ref = peers_.birth(birth, simulator_.now(), std::move(library),
                           protocol().cache_size, malicious, selfish);
  ref.set_credit(kInitialCredit);
  // Maintain incremental orderings for exactly the policies this run's
  // selections and replacements use (the cache rejects any other).
  ref.cache().configure_indices(
      {protocol().ping_probe, protocol().ping_pong, protocol().query_pong},
      protocol().cache_replacement);
  // MR*: ranking ignores foreign NumRes claims from the start.
  ref.cache().set_first_hand_only(protocol().reset_num_results);
  // Eclipse resistance (§11): protect a reserve of first-hand entries. Only
  // query probes create first-hand entries, so attackers' floors stay idle.
  if (protocol().detection.enabled) {
    ref.cache().set_first_hand_floor(protocol().detection.first_hand_floor);
  }
  active_query_by_slot_.resize(std::max(active_query_by_slot_.size(),
                                        peers_.table().slot_count()));
  return ref;
}

PeerId GuessBackend::spawn_peer(bool malicious, bool selfish, Birth birth) {
  content::Library library =
      malicious ? content::Library{} : content_.sample_peer_library(rng_);
  Peer& ref = create_peer(birth, std::move(library), malicious, selfish);
  PeerId id = ref.id();
  if (malicious) zoo_.add_poisoner(id);
  trace(TraceCategory::kChurn, [&](std::ostream& os) {
    os << "birth peer=" << id << " files=" << ref.num_files()
       << (malicious ? " malicious" : "") << (selfish ? " selfish" : "");
  });
  if (birth == Birth::kNewborn) seed_from_friend(ref);
  start_ping_timer(ref, 1.0);
  // Open-loop runs have no per-peer query clock; queries arrive only
  // through start_query.
  if (config_.enable_queries() && !config_.open_loop() && !malicious) {
    start_query_workload(ref);
  }
  return id;
}

PeerId GuessBackend::spawn_adversary(faults::AttackKind kind) {
  Peer& ref = create_peer(Birth::kCohort, content::Library{},
                          /*malicious=*/true, /*selfish=*/false);
  PeerId id = ref.id();
  zoo_.add(kind, id);
  ++attack_stats_.adversaries_spawned;
  trace(TraceCategory::kChurn, [&](std::ostream& os) {
    os << "birth adversary=" << id
       << " kind=" << faults::attack_kind_name(kind);
  });
  // A cohort birth is not churn-registered: fault_stop_attack retires the
  // cohort, and a sybil recycles identities through its own expiry timer
  // instead of the death/replacement path.
  seed_from_friend(ref);
  const AdversaryBehavior& behavior = zoo_.behavior(kind);
  start_ping_timer(ref, behavior.ping_interval_factor());
  // Adversaries run no query workload, so the burst timer slot is free to
  // carry the sybil identity-expiry event.
  sim::Duration lifetime = behavior.identity_lifetime();
  if (lifetime > 0.0) {
    static_assert(sim::EventQueue::Callback::stores_inline<SybilExpired>());
    ref.burst_timer = simulator_.after(lifetime, SybilExpired{this, id});
  }
  return id;
}

void GuessBackend::sybil_expired(PeerId id) {
  // The cohort may already have been retired (window end) or mass-killed;
  // remove_peer cancelled the timer then, but stay defensive.
  if (!zoo_.contains(id)) return;
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "sybil expire peer=" << id;
  });
  remove_peer(id);
  ++attack_stats_.adversaries_retired;
  ++attack_stats_.sybil_respawns;
  // A fresh identity replaces it: a new PeerId (the old one is tombstoned
  // by the PeerTable forever), a fresh cache, a fresh timer phase.
  spawn_adversary(faults::AttackKind::kSybil);
}

void GuessBackend::seed_initial_caches() {
  std::size_t seed_size = system().resolved_cache_seed(protocol().cache_size);
  // Seed from the initial population only (all alive at time 0).
  std::vector<PeerId> population = alive_ids();
  // Reused across peers: one allocation each for the whole population.
  std::vector<std::size_t> picks;
  std::vector<std::size_t> scratch;
  for (PeerId id : population) {
    Peer& peer = *find(id);
    rng_.sample_indices_into(population.size(),
                             std::min(seed_size + 1, population.size()),
                             picks, scratch);
    std::size_t added = 0;
    for (std::size_t idx : picks) {
      if (added >= seed_size) break;
      PeerId other = population[idx];
      if (other == id) continue;
      const Peer& target = *find(other);
      peer.cache().insert_free(introduction_entry(target));
      ++added;
    }
  }
}

CacheEntry GuessBackend::introduction_entry(const Peer& peer) const {
  // A liar introduces itself with its behavior's claims; everyone else,
  // silenced poisoners included, with its real library size.
  if (peer.malicious()) {
    if (const AdversaryBehavior* liar = zoo_.behavior_of(peer.id())) {
      return liar->introduction(peer.id(), simulator_.now());
    }
  }
  return CacheEntry{peer.id(), simulator_.now(), peer.num_files(), 0};
}

void GuessBackend::seed_from_friend(Peer& newborn) {
  // Random-friend seeding (§5.1, after [9]): copy the link cache of one
  // live peer the newborn already knows.
  auto friend_id = peers_.random_alive(newborn.id());
  if (!friend_id) return;
  const Peer& buddy = *find(*friend_id);
  for (const CacheEntry& entry : buddy.cache().entries()) {
    if (newborn.cache().full()) break;
    if (entry.id == newborn.id() || newborn.cache().contains(entry.id))
      continue;
    CacheEntry copy = entry;
    copy.first_hand = false;  // the friend's experience, not the newborn's
    newborn.cache().insert_free(copy);
  }
}

void GuessBackend::on_peer_death(PeerId id) {
  Peer* peer = find(id);
  GUESS_CHECK_MSG(peer != nullptr, "death of unknown peer");
  bool was_malicious = peer->malicious();
  bool was_selfish = peer->selfish();
  trace(TraceCategory::kChurn, [&](std::ostream& os) {
    os << "death peer=" << id << " probes_received="
       << peer->probes_received();
  });
  remove_peer(id);
  ledger_.record_deaths();
  // A new peer is born for every death, keeping NetworkSize constant; it
  // inherits the role flags so the configured fractions stay exact
  // (§5.1, §6.4, §3.3).
  spawn_peer(was_malicious, was_selfish, Birth::kNewborn);
}

void GuessBackend::remove_peer(PeerId id) {
  PeerTable& table = peers_.table();
  Peer* peer = table.find(id);
  GUESS_CHECK_MSG(peer != nullptr, "removal of unknown peer");
  peer->ping_timer.cancel();
  peer->burst_timer.cancel();
  // Open-loop accounting: queries dying with their origin are abandoned,
  // not silently dropped — the active execution plus every waiting entry.
  // The observer must not start new work reentrantly here (the peer is
  // mid-removal); the open-loop driver defers its reaction to a zero-delay
  // event.
  if (query_observer_ != nullptr) {
    std::uint32_t slot = table.slot_of(id);
    if (slot != PeerTable::kNoSlot &&
        active_query_by_slot_[slot] != nullptr) {
      query_observer_->on_query_abandoned(
          simulator_.now() - active_query_by_slot_[slot]->issue_time());
    }
    peer->visit_pending_queries([&](const Peer::PendingQuery& q) {
      query_observer_->on_query_abandoned(simulator_.now() - q.issued);
    });
  }
  // Releasing the active query bumps nothing else: in-flight lossy
  // exchanges of this query resolve against a stale token and are dropped
  // (releasing any credit reservation defensively), and probes *to* this
  // peer resolve as dead once the table entry is gone. The partition side
  // needs no cleanup: a dead id has no slot.
  release_active_query(table.slot_of(id));
  flush_load(*peer);
  if (peer->malicious()) zoo_.remove(id);
  table.destroy(id);
}

void GuessBackend::flush_load(const Peer& peer) {
  if (peer.malicious()) return;  // load fairness is about honest peers
  dead_peer_loads_.push_back(peer.probes_received());
}

// --- pings -----------------------------------------------------------------

void GuessBackend::start_ping_timer(Peer& peer, double factor) {
  sim::Duration interval = protocol().ping_interval * factor;
  peer.set_ping_interval(interval);
  // Random phase desynchronizes the population's pings.
  schedule_next_ping(peer, rng_.uniform(0.0, interval));
}

// Self-rescheduling ping chain: re-reads the peer's (possibly adapted,
// §6.1) interval after every ping.
void GuessBackend::schedule_next_ping(Peer& peer, sim::Duration delay) {
  static_assert(sim::EventQueue::Callback::stores_inline<PingFired>());
  peer.ping_timer = simulator_.after(delay, PingFired{this, peer.id()});
}

void GuessBackend::ping_timer_fired(PeerId id) {
  do_ping(id);
  Peer* p = find(id);
  if (p == nullptr) return;
  schedule_next_ping(*p, p->ping_interval());
}

void GuessBackend::do_ping(PeerId pinger_id) {
  Peer* pinger = find(pinger_id);
  if (pinger == nullptr) return;  // died; timer cancellation races are benign
  maybe_reseed_from_pong_server(*pinger);
  auto entry = pinger->cache().select_best(protocol().ping_probe, rng_);
  if (!entry) return;
  bool measured = measuring_;
  if (measured) ++results_.pings_sent;
  // Under SynchronousTransport the completion runs inline, right here;
  // under LossyTransport it runs when the exchange resolves (delivery or
  // final timeout), and the pinger may have died or re-pinged meanwhile.
  static_assert(Transport::Completion::stores_inline<PingResolved>());
  transport_->exchange(MessageKind::kPing, pinger_id, entry->id,
                       PingResolved{this, pinger_id, entry->id, measured});
}

void GuessBackend::ping_resolved(PeerId pinger_id, PeerId target_id,
                                 bool measured, DeliveryStatus status) {
  Peer* pinger = find(pinger_id);
  if (pinger == nullptr) return;  // died while the ping was in flight
  Peer* target =
      status == DeliveryStatus::kTimedOut ? nullptr : find(target_id);
  if (target == nullptr) {
    // No response — the target is gone, or (lossy) every attempt timed out:
    // either way the pinger believes it dead and evicts the entry (§2.2).
    pinger->cache().evict(target_id);
    if (measured) ++results_.pings_to_dead;
    pinger->note_ping_result(/*dead=*/true, protocol().adaptive_ping);
    charge_no_reply(*pinger, target_id);
    trace(TraceCategory::kPing, [&](std::ostream& os) {
      os << "ping peer=" << pinger_id << " -> " << target_id
         << " dead, evicted";
    });
    return;
  }
  trace(TraceCategory::kPing, [&](std::ostream& os) {
    os << "ping peer=" << pinger_id << " -> " << target_id << " alive";
  });
  pinger->note_ping_result(/*dead=*/false, protocol().adaptive_ping);

  target->count_received_ping();
  // Both sides interacted: update TS wherever an entry exists (§2.1).
  pinger->cache().touch(target->id(), simulator_.now());
  target->cache().touch(pinger_id, simulator_.now());
  maybe_introduce(*target, *pinger);

  make_pong_into(*target, protocol().ping_pong, pong_scratch_);
  process_pong_entries(*pinger, target->id(), pong_scratch_);
}

// §6.1's healing path: a peer whose cache has been eaten below the
// threshold pulls fresh live addresses from the pong server. The server
// tracks liveness only — it serves uniformly random live peers.
void GuessBackend::maybe_reseed_from_pong_server(Peer& peer) {
  if (!protocol().pong_server_reseed) return;
  if (peer.cache().size() >= kReseedMinEntries) return;
  if (simulator_.now() - peer.last_reseed() < kReseedCooldown) return;
  peer.set_last_reseed(simulator_.now());
  trace(TraceCategory::kCache, [&](std::ostream& os) {
    os << "reseed peer=" << peer.id() << " entries=" << peer.cache().size();
  });
  std::size_t count = system().resolved_cache_seed(protocol().cache_size);
  for (std::size_t i = 0; i < count; ++i) {
    auto id = peers_.random_alive(peer.id());
    if (!id || peer.blacklisted(*id)) continue;
    if (peer.cache().full()) break;
    if (peer.cache().contains(*id)) continue;
    peer.cache().insert_free(introduction_entry(*find(*id)));
  }
}

void GuessBackend::make_pong_into(const Peer& responder, Policy policy,
                                  std::vector<CacheEntry>& out) {
  // The flag test comes first: honest responders, all of the traffic of an
  // attack-free run, never touch the zoo's hash map.
  if (responder.malicious()) {
    if (const AdversaryBehavior* liar = zoo_.behavior_of(responder.id())) {
      liar->make_pong_into(responder.id(), protocol().pong_size,
                           simulator_.now(), rng_, out);
      return;
    }
  }
  responder.cache().select_top_into(policy, protocol().pong_size, rng_, out);
  // Fields travel unmodified (§2.2), but "first hand" is local knowledge.
  for (CacheEntry& entry : out) entry.first_hand = false;
}

// The pong-flood countermeasure (DetectionParams::max_pong_entries): honest
// pongs carry at most PongSize entries, so an oversized one is itself the
// attack signature — discard it wholesale (nothing a proven liar lists is
// worth ingesting) and charge the sender one bad referral.
// @returns how many leading entries of `entries` the receiver may ingest.
std::size_t GuessBackend::accepted_pong_entries(
    Peer& receiver, PeerId source, std::size_t entry_count) {
  const DetectionParams& detection = protocol().detection;
  if (!detection.enabled || detection.max_pong_entries == 0 ||
      entry_count <= detection.max_pong_entries) {
    return entry_count;
  }
  ++attack_stats_.oversized_pongs;
  attack_stats_.pong_entries_dropped += entry_count;
  // An oversized pong is unambiguous on one observation — honest pongs
  // structurally cannot exceed PongSize — so the sender is blacklisted
  // outright rather than charged one referral and given min_referrals more
  // flood rounds, and the receiver drops to first-hand-only ingestion at
  // once (blacklist_now): the attack is proven, so the MR -> MR* posture
  // need not wait for switch_threshold statistical convictions.
  if (receiver.blacklist_now(source, detection)) {
    receiver.cache().evict(source);
    trace(TraceCategory::kAttack, [&](std::ostream& os) {
      os << "blacklist peer=" << receiver.id()
         << " oversized-pong=" << source;
    });
  }
  return 0;
}

// The reply-withholding countermeasure (DetectionParams::charge_no_reply):
// a Ping/QueryProbe of ours that nobody answered charges the silent target
// itself, windowing with the pings_to_dead accounting (both are measured at
// the exchange that failed). Withholders keep reinserting themselves via
// introductions, so the charges accumulate to a blacklisting; honest dead
// peers collect a posthumous one at worst (their ids are never reused).
void GuessBackend::charge_no_reply(Peer& prober, PeerId target_id) {
  const DetectionParams& detection = protocol().detection;
  if (!detection.enabled || !detection.charge_no_reply) return;
  ++attack_stats_.no_reply_charges;
  if (prober.note_referral(target_id, /*bad=*/true, detection)) {
    trace(TraceCategory::kAttack, [&](std::ostream& os) {
      os << "blacklist peer=" << prober.id() << " no-reply=" << target_id;
    });
  }
}

void GuessBackend::process_pong_entries(
    Peer& receiver, PeerId source, const std::vector<CacheEntry>& entries) {
  if (receiver.blacklisted(source)) return;
  std::size_t accepted =
      accepted_pong_entries(receiver, source, entries.size());
  for (std::size_t i = 0; i < accepted; ++i) {
    const CacheEntry& entry = entries[i];
    if (entry.id == receiver.id()) continue;
    if (receiver.blacklisted(entry.id)) continue;
    receiver.cache().offer(entry, protocol().cache_replacement, rng_);
  }
}

void GuessBackend::maybe_introduce(Peer& responder, const Peer& initiator) {
  if (!rng_.bernoulli(protocol().intro_prob)) return;
  if (responder.blacklisted(initiator.id())) return;
  responder.cache().offer(introduction_entry(initiator),
                          protocol().cache_replacement, rng_);
}

// --- queries ---------------------------------------------------------------

void GuessBackend::start_query_workload(Peer& peer) {
  schedule_next_burst(peer);
}

// Poisson burst arrivals: each firing enqueues one burst of 1..5 queries and
// re-arms itself after a fresh exponential gap (§5.1). The handle stored on
// the peer lets death cancel the chain.
void GuessBackend::schedule_next_burst(Peer& peer) {
  static_assert(sim::EventQueue::Callback::stores_inline<BurstFired>());
  peer.burst_timer = simulator_.after(query_stream_.next_burst_gap(rng_),
                                      BurstFired{this, peer.id()});
}

void GuessBackend::burst_timer_fired(PeerId id) {
  Peer* p = find(id);
  if (p == nullptr) return;
  std::size_t burst = query_stream_.next_burst_size(rng_);
  for (std::size_t i = 0; i < burst; ++i) {
    p->enqueue_query(content_.draw_query(rng_), simulator_.now());
  }
  if (!p->query_active()) start_next_query(*p);
  schedule_next_burst(*p);
}

void GuessBackend::start_query(Rng& rng, sim::Time issued) {
  Peer& origin = *find(peers_.uniform_alive(rng));
  // The issue time is the open-loop arrival instant: a query that waited in
  // an overload-controller queue has that wait billed in its latency.
  origin.enqueue_query(content_.draw_query(rng), issued);
  if (!origin.query_active()) start_next_query(origin);
}

void GuessBackend::submit_query(PeerId origin, content::FileId file) {
  Peer* peer = find(origin);
  GUESS_CHECK_MSG(peer != nullptr, "submit_query for dead peer");
  peer->enqueue_query(file, simulator_.now());
  if (!peer->query_active()) start_next_query(*peer);
}

void GuessBackend::visit_open_queries(
    const std::function<void(sim::Time)>& visit) const {
  for (const std::unique_ptr<QueryExecution>& query : active_query_by_slot_) {
    // Pool slots of dead/idle peers are null; stale entries are impossible
    // (release clears the slot).
    if (query != nullptr) visit(query->issue_time());
  }
  for (PeerId id : alive_ids()) {
    find(id)->visit_pending_queries(
        [&](const Peer::PendingQuery& q) { visit(q.issued); });
  }
}

QueryExecution* GuessBackend::active_query_for(PeerId origin_id) {
  std::uint32_t slot = peers_.table().slot_of(origin_id);
  if (slot == PeerTable::kNoSlot) return nullptr;
  return active_query_by_slot_[slot].get();
}

void GuessBackend::release_active_query(std::uint32_t slot) {
  std::unique_ptr<QueryExecution>& query = active_query_by_slot_[slot];
  if (query == nullptr) return;
  // Most queries stay within their reservation, but an unsatisfied one can
  // ingest thousands of candidates. The pool keeps one execution per
  // concurrently running query, so without a bound each would hold the
  // largest query it ever served.
  query->trim(kPooledReservations * (protocol().cache_size +
                                     kReservedPongSlots * protocol().pong_size));
  query_pool_.put(std::move(query));
  --active_query_count_;
}

void GuessBackend::start_next_query(Peer& origin) {
  GUESS_CHECK(!origin.query_active());
  if (!origin.has_pending_query()) return;
  Peer::PendingQuery pending = origin.pop_pending_query();
  content::FileId file = pending.file;
  PeerId id = origin.id();
  // Selfish peers ignore the serial-probing rule and blast wide (§3.3).
  std::size_t parallel =
      origin.selfish() ? kSelfishParallelProbes : protocol().parallel_probes;
  auto desired = static_cast<std::uint32_t>(system().num_desired_results);
  bool fho = protocol().reset_num_results || origin.first_hand_only();
  // Recycle a pooled execution (reset is equivalent to construction but
  // keeps the heap / dedup storage: steady-state queries don't allocate).
  std::unique_ptr<QueryExecution> query = query_pool_.take();
  if (query != nullptr) {
    query->reset(id, file, desired, protocol().query_probe, simulator_.now(),
                 parallel, fho);
  } else {
    query = std::make_unique<QueryExecution>(id, file, desired,
                                             protocol().query_probe,
                                             simulator_.now(), parallel, fho);
  }
  // The token lets late transport completions (lossy mode) recognise that
  // the query they belong to already finished — they are dropped instead of
  // being misattributed to the origin's next query.
  query->set_token(++next_query_token_);
  // Latency is billed from the external issue instant: queueing behind the
  // origin's earlier queries is part of what the client waited.
  query->set_issue_time(pending.issued);
  // Expected candidate volume: the initial link-cache sweep plus a few
  // slots' worth of Pong fan-in; arrivals beyond this grow the stores, and
  // the capacity survives in the pool up to kPooledReservations full-cache
  // reservations (release_active_query). Every id minted so far is below
  // the population's id bound, which sizes the dedup bitmap.
  query->reserve_candidates(
      origin.cache().size() + kReservedPongSlots * protocol().pong_size,
      peers_.id_bound());
  // Initial candidates: the origin's link cache (§2.3).
  for (const CacheEntry& entry : origin.cache().entries()) {
    query->add_candidate(entry, rng_);
  }
  origin.set_query_active(true);
  trace(TraceCategory::kQuery, [&](std::ostream& os) {
    os << "query start peer=" << id << " file="
       << (file == content::kNonexistentFile ? -1
                                             : static_cast<long long>(file))
       << " candidates=" << query->queued();
  });
  active_query_by_slot_[peers_.table().slot_of(id)] = std::move(query);
  ++active_query_count_;
  // First probe fires immediately; later probes pace at the probe slot.
  static_assert(sim::EventQueue::Callback::stores_inline<QueryStepFired>());
  simulator_.after(0.0, QueryStepFired{this, id});
}

void GuessBackend::query_step(PeerId origin_id) {
  QueryExecution* active = active_query_for(origin_id);
  if (active == nullptr) return;  // origin died or query finished
  Peer* origin = find(origin_id);
  GUESS_CHECK(origin != nullptr);  // death releases the active query
  QueryExecution& query = *active;

  query.begin_slot();
  for (std::size_t k = 0; k < query.slot_parallel(); ++k) {
    // A creditless peer cannot probe this slot (§3.3 payments): the query
    // stalls until inbound probes earn more credit.
    if (protocol().payments && !origin->can_afford(kProbeCost)) {
      query.note_creditless();
      break;
    }
    // Pull the next candidate, skipping blacklisted targets and targets
    // under backoff.
    std::optional<QueryExecution::Candidate> candidate;
    while ((candidate = query.next_candidate())) {
      if (origin->blacklisted(candidate->id)) continue;
      if (!protocol().do_backoff ||
          !origin->backed_off(candidate->id, simulator_.now()))
        break;
    }
    if (!candidate) break;
    query.note_probe_issued();
    // Reserve the probe cost while the affordability check above still
    // holds: under LossyTransport several probes of a slot are in flight
    // together, and spending only at resolution would let a peer whose
    // credit covers a single probe commit it to every one of them. A
    // served probe commits the reservation in probe_resolved; dead,
    // refused, and stale resolutions release it.
    if (protocol().payments) origin->reserve_credit(kProbeCost);
    // Under SynchronousTransport the completion (probe_resolved) runs
    // inline before exchange() returns, reproducing the pre-transport
    // in-slot processing order; the slot cannot close mid-loop because
    // end_issuing() has not run yet. `query` and `origin` stay valid: the
    // query only finishes from the slot epilogue, and peers only die from
    // churn events.
    static_assert(Transport::Completion::stores_inline<QueryProbeResolved>());
    transport_->exchange(
        MessageKind::kQueryProbe, origin_id, candidate->id,
        QueryProbeResolved{this, origin_id, query.token(), *candidate});
  }
  if (query.end_issuing()) finish_slot(origin_id);
}

void GuessBackend::probe_resolved(PeerId origin_id, std::uint64_t token,
                                  const QueryExecution::Candidate& candidate,
                                  DeliveryStatus status) {
  QueryExecution* active = active_query_for(origin_id);
  if (active == nullptr || active->token() != token) {
    // Lossy mode only: the query this probe belonged to already finished
    // (or its origin died) while the exchange was in flight.
    trace(TraceCategory::kQuery, [&](std::ostream& os) {
      os << "probe resolution dropped peer=" << origin_id
         << " stale-token=" << token;
    });
    // A stale token normally means the origin died, taking its credit
    // ledger with it; release defensively if it is somehow still alive so
    // a reservation cannot leak.
    if (protocol().payments) {
      if (Peer* origin = find(origin_id)) origin->release_credit();
    }
    return;
  }
  Peer* origin = find(origin_id);
  GUESS_CHECK(origin != nullptr);  // death releases the active query
  QueryExecution& query = *active;
  PeerId target_id = candidate.id;
  PeerId referrer = candidate.source;

  // The transport reports silence (kTimedOut) without judging liveness; a
  // delivered probe may still land on an address whose peer has since left.
  // Both look identical to the prober: no reply.
  Peer* target =
      status == DeliveryStatus::kTimedOut ? nullptr : find(target_id);
  if (target == nullptr) {
    // Timeout: wasted probe; believed dead, evicted (§2.2, §3.2). No
    // credit changes hands — there is nobody to pay, so the reservation
    // returns. A dead referral counts against whoever supplied the entry
    // (§6.4 detection).
    if (protocol().payments) origin->release_credit();
    query.record_outcome(ProbeOutcome::kDead);
    origin->cache().evict(target_id);
    if (origin->note_referral(referrer, /*bad=*/true, protocol().detection)) {
      origin->cache().evict(referrer);
      trace(TraceCategory::kAttack, [&](std::ostream& os) {
        os << "blacklist peer=" << origin_id << " dead-referrer="
           << referrer;
      });
    }
    charge_no_reply(*origin, target_id);
    if (query.note_probe_resolved()) finish_slot(origin_id);
    return;
  }

  target->count_received_probe();
  if (!target->malicious() &&
      !target->accept_probe(simulator_.now(),
                            system().max_probes_per_second)) {
    // Overloaded: the probe is dropped. Without backoff the prober treats
    // the silence as death and evicts — the implicit throttle of §6.3.
    // Dropped unserved means nobody is paid: the reservation returns.
    if (protocol().payments) origin->release_credit();
    query.record_outcome(ProbeOutcome::kRefused);
    if (protocol().do_backoff) {
      origin->set_backoff(target_id, simulator_.now() + kBackoffDuration);
    } else {
      origin->cache().evict(target_id);
    }
    if (query.note_probe_resolved()) finish_slot(origin_id);
    return;
  }

  query.record_outcome(ProbeOutcome::kGood);
  if (protocol().payments) {
    // The probe was served: the issue-time reservation becomes a spend,
    // the server earns (§3.3).
    origin->commit_credit(kProbeCost);
    target->earn_credit(kServeReward, kCreditCap);
  }
  // All probes of a slot are in flight together: a target cannot know the
  // query was satisfied by a concurrent probe, so it answers as if the
  // remaining need were at least one.
  std::uint32_t needed = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(system().num_desired_results) -
             std::min<std::uint32_t>(
                 query.results(),
                 static_cast<std::uint32_t>(system().num_desired_results)));
  std::uint32_t results = target->answer_query(query.file(), needed);
  query.add_results(results);

  // §6.4 detection: an entry with an outsized NumRes claim whose peer
  // returns nothing marks the peer itself as a liar. Only the liar is
  // charged — honest peers forward poisoned claims they cannot verify, so
  // blaming referrers here would cannibalize the honest overlay. Honest
  // entries claim 0/1 results, so false positives are rare.
  bool lied =
      results == 0 &&
      candidate.num_res >= protocol().detection.lie_claim_threshold;
  if (origin->note_referral(target_id, lied, protocol().detection)) {
    origin->cache().evict(target_id);
    trace(TraceCategory::kAttack, [&](std::ostream& os) {
      os << "blacklist peer=" << origin_id << " liar=" << target_id
         << (origin->first_hand_only() ? " (first-hand mode)" : "");
    });
  }

  // Interaction bookkeeping (§2.1): TS on both sides, NumRes reset by the
  // prober according to this response.
  origin->cache().touch(target_id, simulator_.now());
  origin->cache().set_num_res(target_id, results);
  target->cache().touch(origin_id, simulator_.now());
  maybe_introduce(*target, *origin);

  // A responder that proved useful is a qualifying query-cache entry
  // (§2.3): offer it to the link cache with its first-hand record.
  if (results > 0 && !origin->cache().contains(target_id)) {
    origin->cache().offer(
        CacheEntry{target_id, simulator_.now(), target->num_files(),
                   results, /*first_hand=*/true},
        protocol().cache_replacement, rng_);
  }

  // Every probed peer answers with a Pong (§2.3): entries feed the query
  // cache and, subject to CacheReplacement, the link cache.
  make_pong_into(*target, protocol().query_pong, pong_scratch_);
  offer_query_pong(*origin, query, target_id, pong_scratch_);

  if (query.note_probe_resolved()) finish_slot(origin_id);
}

// Slot epilogue: runs when every probe of the slot has resolved (inline at
// the end of query_step under SynchronousTransport; at the last transport
// completion under LossyTransport).
void GuessBackend::finish_slot(PeerId origin_id) {
  QueryExecution* active = active_query_for(origin_id);
  GUESS_CHECK(active != nullptr);
  Peer* origin = find(origin_id);
  GUESS_CHECK(origin != nullptr);
  QueryExecution& query = *active;
  std::size_t probes_this_slot = query.slot_probes_issued();
  bool creditless = query.slot_creditless();

  // Satisfaction and the probe cap are evaluated at the END of the slot:
  // every probe of the slot was already in flight (this is what makes
  // selfish blasting overshoot — a query answerable in 20 probes still
  // costs the full blast width, §3.3).
  if (query.satisfied()) {
    finish_query(*origin, query, /*satisfied=*/true);
    return;
  }
  if (query.counters().total() >= kMaxProbesPerQuery) {
    finish_query(*origin, query, /*satisfied=*/false);
    return;
  }

  if (probes_this_slot == 0 && !creditless) {
    // Candidates exhausted: the search probed everyone it could learn of.
    finish_query(*origin, query, /*satisfied=*/false);
    return;
  }
  if (creditless && probes_this_slot == 0) {
    query.note_stalled_slot();
    if (query.stalled_slots() >= kMaxStalledSlots) {
      if (measuring_) ++results_.queries_stalled_out;
      finish_query(*origin, query, /*satisfied=*/false);
      return;
    }
  } else {
    query.reset_stall();
  }
  query.note_slot(query.results() > query.slot_results_baseline(),
                  protocol().adaptive_parallel);
  simulator_.after(kProbeInterval, QueryStepFired{this, origin_id});
}

void GuessBackend::offer_query_pong(Peer& origin, QueryExecution& query,
                                    PeerId source,
                                    const std::vector<CacheEntry>& entries) {
  // Detection: Pongs from blacklisted peers are dropped wholesale, and
  // entries naming blacklisted peers never re-enter circulation.
  if (origin.blacklisted(source)) return;
  std::size_t accepted = accepted_pong_entries(origin, source, entries.size());
  for (std::size_t i = 0; i < accepted; ++i) {
    const CacheEntry& entry = entries[i];
    if (origin.blacklisted(entry.id)) continue;
    // Without the query cache (ablation), Pong entries may refresh the link
    // cache but do not extend this query's candidate set.
    if (protocol().use_query_cache) query.add_candidate(entry, source, rng_);
    origin.cache().offer(entry, protocol().cache_replacement, rng_);
  }
}

void GuessBackend::finish_query(Peer& origin, QueryExecution& query,
                                bool satisfied) {
  ledger_.record(satisfied, query.counters().total(),
                 simulator_.now() - query.start_time());
  if (measuring_) {
    results_.probes += query.counters();
    results_.query_cache_population.add(
        static_cast<double>(query.seen()));
    ClassMetrics& cls = origin.selfish() ? results_.selfish : results_.honest;
    ++cls.queries_completed;
    if (satisfied) {
      ++cls.queries_satisfied;
      cls.response_time.add(simulator_.now() - query.start_time());
    }
    cls.probes += query.counters();
  }
  PeerId id = origin.id();
  trace(TraceCategory::kQuery, [&](std::ostream& os) {
    os << "query finish peer=" << id
       << (satisfied ? " satisfied" : " UNSATISFIED") << " probes="
       << query.counters().total() << " (good=" << query.counters().good
       << " dead=" << query.counters().dead << " refused="
       << query.counters().refused << ") seen=" << query.seen();
  });
  // Capture the observer's latency before the release aliases `query`.
  double latency = simulator_.now() - query.issue_time();
  origin.set_query_active(false);
  // `query` aliases the pooled object from here on — do not touch it.
  release_active_query(peers_.table().slot_of(id));
  if (origin.has_pending_query()) start_next_query(origin);
  // Last: the observer may submit new queries reentrantly (the open-loop
  // controller starts a queued arrival on completion); by now this peer's
  // workload state is consistent, so a submit targeting it is safe.
  if (query_observer_ != nullptr) {
    query_observer_->on_query_complete(latency, satisfied);
  }
}

// --- fault-scenario hooks (DESIGN.md §9) -----------------------------------

void GuessBackend::fault_mass_kill(double fraction) {
  std::vector<PeerId> chosen = peers_.draw_victims(fraction);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "mass-kill fraction=" << fraction << " victims=" << chosen.size()
       << " alive=" << live_peers();
  });
  // No replacement births: a mass departure shrinks the population until a
  // join action.
  for (PeerId id : chosen) remove_peer(id);
  ledger_.record_deaths(chosen.size());
}

void GuessBackend::fault_mass_join(std::size_t count) {
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "mass-join count=" << count << " alive=" << live_peers();
  });
  for (std::size_t i = 0; i < count; ++i) {
    spawn_peer(/*malicious=*/false, /*selfish=*/false, Birth::kNewborn);
  }
}

void GuessBackend::fault_set_partition(int ways) {
  peers_.set_partition(ways);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "partition ways=" << ways << " alive=" << live_peers();
  });
}

void GuessBackend::fault_clear_partition() {
  peers_.clear_partition();
  trace(TraceCategory::kFault,
        [&](std::ostream& os) { os << "partition healed"; });
}

void GuessBackend::fault_set_degradation(double extra_loss,
                                         double latency_factor) {
  peers_.set_degradation(extra_loss, latency_factor);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "degrade extra_loss=" << extra_loss
       << " latency_factor=" << latency_factor;
  });
}

void GuessBackend::fault_clear_degradation() {
  peers_.clear_degradation();
  trace(TraceCategory::kFault,
        [&](std::ostream& os) { os << "degrade window closed"; });
}

void GuessBackend::fault_set_poisoning(bool active) {
  zoo_.set_poisoning(active);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "poisoning " << (active ? "on" : "off");
  });
}

void GuessBackend::fault_start_attack(faults::AttackKind kind,
                                      double fraction) {
  GUESS_CHECK_MSG(zoo_.roster(kind).empty(),
                  "attack onset for an already-active "
                      << faults::attack_kind_name(kind) << " cohort");
  // Pong-flood ammunition, allocated once at the first onset.
  if (kind == faults::AttackKind::kPongFlood && zoo_.flood_pool().empty()) {
    zoo_.set_flood_pool(peers_.fabricate_ids(std::max<std::size_t>(
        1, kFloodPoolFactor * system().network_size)));
  }
  std::size_t cohort = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             fraction * static_cast<double>(live_peers())));
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "attack " << faults::attack_kind_name(kind)
       << " onset cohort=" << cohort << " alive=" << live_peers();
  });
  for (std::size_t i = 0; i < cohort; ++i) spawn_adversary(kind);
}

void GuessBackend::fault_stop_attack(faults::AttackKind kind) {
  // Copy the roster: every removal swap-mutates it underneath the loop.
  std::vector<PeerId> cohort = zoo_.roster(kind);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "attack " << faults::attack_kind_name(kind)
       << " retired cohort=" << cohort.size();
  });
  for (PeerId id : cohort) {
    remove_peer(id);
    ++attack_stats_.adversaries_retired;
  }
}

bool GuessBackend::severed(PeerId from, PeerId to) const {
  // Reply withholding: a deployed withholder swallows every exchange sent
  // *to* it — the sender sees a timeout (and pays retries under the lossy
  // transport). The withholder's own outbound exchanges go through, which
  // is what keeps it circulating via introductions.
  if (zoo_.withholds(to)) {
    ++attack_stats_.withheld_exchanges;
    return true;
  }
  return peers_.severed(from, to);
}

// --- measurement -----------------------------------------------------------

void GuessBackend::begin_measurement() {
  measuring_ = true;
  ledger_.begin_measurement();
  // Loads are lifetime counts; restrict the Figure 13 sample to peers that
  // exist during measurement by dropping earlier corpses.
  dead_peer_loads_.clear();
  // Transport counters are lifetime totals too: snapshot here and report
  // the measurement-window delta in collect().
  transport_baseline_ = transport_->counters();
  // An immediate cache-health sample, then the periodic samplers phased to
  // land inside the window (the order the GUESS golden values pin).
  sample_cache_health();
  simulator_.every(kHealthSampleInterval, kHealthSampleInterval,
                   [this]() { sample_cache_health(); });
  const SimulationOptions& options = config_.options();
  if (options.sample_connectivity) {
    simulator_.every(options.connectivity_sample_interval,
                     options.connectivity_sample_interval,
                     [this]() { sample_connectivity(); });
  }
}

void GuessBackend::sample_cache_health() {
  double fraction_sum = 0.0;
  double live_sum = 0.0;
  double good_sum = 0.0;
  double entries_sum = 0.0;
  std::size_t counted = 0;
  for (PeerId id : alive_ids()) {
    const Peer& peer = *find(id);
    if (peer.malicious()) continue;
    std::size_t entries = peer.cache().size();
    std::size_t live = peer.cache().count_if(
        [this](const CacheEntry& e) { return alive(e.id); });
    std::size_t good = peer.cache().count_if([this](const CacheEntry& e) {
      const Peer* p = find(e.id);
      return p != nullptr && !p->malicious();
    });
    if (entries > 0)
      fraction_sum += static_cast<double>(live) /
                      static_cast<double>(entries);
    live_sum += static_cast<double>(live);
    good_sum += static_cast<double>(good);
    entries_sum += static_cast<double>(entries);
    ++counted;
  }
  if (counted == 0) return;
  auto n = static_cast<double>(counted);
  auto& h = results_.cache_health;
  // Running average across samples.
  auto fold = [&](double& acc, double value) {
    acc = (acc * static_cast<double>(h.samples) + value) /
          static_cast<double>(h.samples + 1);
  };
  fold(h.fraction_live, fraction_sum / n);
  fold(h.absolute_live, live_sum / n);
  fold(h.good_entries, good_sum / n);
  fold(h.entries, entries_sum / n);
  ++h.samples;
}

std::size_t GuessBackend::largest_component() const {
  // The peer table already maintains each live peer's position in the alive
  // list — that IS the dense vertex numbering, so no map needs building.
  const PeerTable& table = peers_.table();
  analysis::UnionFind sets(table.size());
  visit_live_edges([&](PeerId from, PeerId to) {
    sets.unite(table.alive_pos(from), table.alive_pos(to));
  });
  return sets.largest();
}

std::size_t GuessBackend::sample_connectivity() {
  std::size_t size = largest_component();
  results_.largest_component.add(static_cast<double>(size));
  return size;
}

SearchResults GuessBackend::collect() {
  const SimulationOptions& options = config_.options();
  std::size_t final_component =
      options.sample_connectivity ? sample_connectivity() : 0;
  SimulationResults results = results_;
  results.transport = transport_->counters() - transport_baseline_;
  results.attack = attack_stats_;
  // Figure 13 loads: every honest peer that existed during measurement.
  for (std::uint64_t load : dead_peer_loads_) {
    results.peer_loads.add(static_cast<double>(load));
  }
  for (PeerId id : alive_ids()) {
    const Peer& peer = *find(id);
    if (!peer.malicious())
      results.peer_loads.add(static_cast<double>(peer.probes_received()));
  }
  if (options.sample_connectivity) {
    // End-of-run snapshot: the last sample's weak component, and the strong
    // component the one-way pointer structure (§2.1) makes interesting.
    analysis::OverlayGraph graph;
    for (PeerId id : alive_ids()) graph.add_node(id);
    visit_live_edges(
        [&](PeerId from, PeerId to) { graph.add_edge(from, to); });
    results.final_largest_component = final_component;
    results.final_largest_strong_component = graph.largest_strong_component();
  }

  SearchResults out;
  out.backend = name();
  out.network_size = system().network_size;
  ledger_.collect(out, live_peers(), transport_->counters());
  // The ledger's totals, for average() and the per-class splits' readers.
  results.queries_completed = out.queries_completed;
  results.queries_satisfied = out.queries_satisfied;
  results.response_time = out.response_time;
  // Request per probe; dead targets never reply.
  std::uint64_t replies = results.probes.good + results.probes.refused;
  out.query_messages = out.probes + replies;
  std::uint64_t pongs = results.pings_sent - results.pings_to_dead;
  out.maintenance_messages = results.pings_sent + pongs;
  std::size_t pong_size = protocol().pong_size;
  out.query_bytes =
      out.probes * (kWire.header + kWire.probe_payload) +
      results.probes.good *
          (kWire.header + kWire.result_entry + pong_size * kWire.ad_entry) +
      results.probes.refused * kWire.header;
  out.maintenance_bytes =
      results.pings_sent * (kWire.header + kWire.probe_payload) +
      pongs * (kWire.header + pong_size * kWire.ad_entry);
  out.extra = std::move(results);
  return out;
}

std::unique_ptr<SearchBackend> make_guess_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<GuessBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
