#include "guess/network.h"

#include <algorithm>

#include "common/check.h"

namespace guess {

namespace {
// Union-find for the weakly-connected-component computation.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }
  std::size_t largest() const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      if (parent_[i] == i) best = std::max(best, size_[i]);
    }
    return best;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};
}  // namespace

// Event thunks for the hot self-rescheduling chains. Each is a fixed
// two-word callable, and the static_asserts pin them to the event queue's
// inline buffer: scheduling a ping, burst, or probe slot is allocation-free.
struct GuessNetwork::PingFired {
  GuessNetwork* net;
  PeerId id;
  void operator()() const { net->ping_timer_fired(id); }
};
struct GuessNetwork::BurstFired {
  GuessNetwork* net;
  PeerId id;
  void operator()() const { net->burst_timer_fired(id); }
};
struct GuessNetwork::QueryStepFired {
  GuessNetwork* net;
  PeerId id;
  void operator()() const { net->query_step(id); }
};

// Transport completion thunks. The static_asserts pin them to the
// Transport::Completion inline buffer: issuing a ping or a probe never
// allocates for the callback, under either transport.
struct GuessNetwork::PingResolved {
  GuessNetwork* net;
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
struct GuessNetwork::SybilExpired {
  GuessNetwork* net;
  PeerId id;
  void operator()() const { net->sybil_expired(id); }
};

struct GuessNetwork::QueryProbeResolved {
  GuessNetwork* net;
  PeerId origin;
  std::uint64_t token;
  QueryExecution::Candidate candidate;
  void operator()(DeliveryStatus status) const {
    net->probe_resolved(origin, token, candidate, status);
  }
};
GuessNetwork::GuessNetwork(const SimulationConfig& config,
                           sim::Simulator& simulator, Rng rng)
    : system_(config.system()),
      protocol_(config.protocol()),
      transport_params_(config.transport()),
      enable_queries_(config.enable_queries()),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(system_.content),
      query_stream_(system_.query_rate),
      zoo_(system_.bad_pong_behavior) {
  config.validate();
  churn_ = std::make_unique<churn::ChurnManager>(
      simulator_, churn::LifetimeDistribution(system_.lifespan_multiplier),
      rng_.split(), [this](PeerId id) { on_peer_death(id); });
  // The RNG split for the transport happens only on the lossy path: the
  // default SynchronousTransport draws nothing, so default-config runs
  // consume the exact pre-transport random stream (bitwise determinism
  // against the legacy API, asserted by the determinism tests).
  if (transport_params_.kind == TransportParams::Kind::kLossy) {
    transport_ = std::make_unique<LossyTransport>(transport_params_,
                                                  simulator_, rng_.split());
  } else {
    transport_ = std::make_unique<SynchronousTransport>();
  }
  // The partition/degradation overlay only exists for scenario runs;
  // scenario-free runs keep the transport unmodulated (and identical to the
  // pre-fault code path).
  if (!config.scenario().empty()) transport_->set_modulation(this);
}

GuessNetwork::~GuessNetwork() = default;

bool GuessNetwork::is_malicious(PeerId id) const {
  const Peer* peer = find(id);
  return peer != nullptr && peer->malicious();
}

void GuessNetwork::initialize() {
  GUESS_CHECK_MSG(table_.size() == 0 && next_id_ == 0,
                  "initialize() called twice");
  table_.reserve(system_.network_size);
  // Dead poisoners' ammunition, allocated before the population.
  if (system_.bad_fraction() > 0.0 &&
      system_.bad_pong_behavior == BadPongBehavior::kDead) {
    zoo_.set_dead_pool(fabricate_ids(kDeadPoolFactor * system_.network_size));
  }

  // Initial population: exactly the configured bad and selfish fractions,
  // placed randomly (ids are assigned in order, so shuffle the flags).
  // Selfishness applies to honest peers only — attackers don't query.
  auto bad_count = static_cast<std::size_t>(
      system_.bad_fraction() * static_cast<double>(system_.network_size));
  auto selfish_count = static_cast<std::size_t>(
      system_.percent_selfish_peers / 100.0 *
      static_cast<double>(system_.network_size));
  GUESS_CHECK_MSG(bad_count + selfish_count <= system_.network_size,
                  "bad + selfish fractions exceed the population");
  std::vector<char> role(system_.network_size, 0);  // 0 honest, 1 bad, 2 selfish
  std::fill_n(role.begin(), bad_count, char{1});
  std::fill_n(role.begin() + static_cast<std::ptrdiff_t>(bad_count),
              selfish_count, char{2});
  rng_.shuffle(role);
  for (std::size_t i = 0; i < system_.network_size; ++i) {
    spawn_peer(role[i] == 1, role[i] == 2, /*initial=*/true);
  }
  seed_initial_caches();
}

std::vector<PeerId> GuessNetwork::fabricate_ids(std::size_t count) {
  std::vector<PeerId> ids(count);
  for (PeerId& id : ids) id = next_id_++;
  return ids;
}

Peer& GuessNetwork::create_peer(content::Library library, bool malicious,
                                bool selfish) {
  PeerId id = next_id_++;
  Peer& ref = table_.create(id, simulator_.now(), std::move(library),
                            protocol_.cache_size, malicious, selfish);
  ref.set_credit(kInitialCredit);
  // Maintain incremental orderings for exactly the policies this run's
  // selections and replacements use (the cache rejects any other).
  ref.cache().configure_indices(
      {protocol_.ping_probe, protocol_.ping_pong, protocol_.query_pong},
      protocol_.cache_replacement);
  // MR*: ranking ignores foreign NumRes claims from the start.
  ref.cache().set_first_hand_only(protocol_.reset_num_results);
  // Eclipse resistance (§11): protect a reserve of first-hand entries. Only
  // query probes create first-hand entries, so attackers' floors stay idle.
  if (protocol_.detection.enabled) {
    ref.cache().set_first_hand_floor(protocol_.detection.first_hand_floor);
  }
  ensure_slot_arrays();
  // A peer born during a partition lands on a random side of it.
  if (partition_ways_ > 0) {
    std::uint32_t slot = table_.slot_of(id);
    partition_group_by_slot_[slot] = static_cast<int>(
        rng_.index(static_cast<std::size_t>(partition_ways_)));
    partition_epoch_by_slot_[slot] = partition_epoch_;
  }
  return ref;
}

PeerId GuessNetwork::spawn_peer(bool malicious, bool selfish, bool initial) {
  content::Library library =
      malicious ? content::Library{} : content_.sample_peer_library(rng_);
  Peer& ref = create_peer(std::move(library), malicious, selfish);
  PeerId id = ref.id();
  if (malicious) zoo_.add_poisoner(id);
  trace(TraceCategory::kChurn, [&](std::ostream& os) {
    os << "birth peer=" << id << " files=" << ref.num_files()
       << (malicious ? " malicious" : "") << (selfish ? " selfish" : "");
  });

  // Initial peers start mid-session so deaths are not synchronized.
  if (initial) {
    churn_->register_peer_scaled(id, std::max(1e-6, rng_.uniform()));
  } else {
    churn_->register_peer(id);
    seed_from_friend(ref);
  }
  start_ping_timer(ref, 1.0);
  if (enable_queries_ && !malicious) start_query_workload(ref);
  return id;
}

PeerId GuessNetwork::spawn_adversary(faults::AttackKind kind) {
  Peer& ref = create_peer(content::Library{}, /*malicious=*/true,
                          /*selfish=*/false);
  PeerId id = ref.id();
  zoo_.add(kind, id);
  ++attack_stats_.adversaries_spawned;
  trace(TraceCategory::kChurn, [&](std::ostream& os) {
    os << "birth adversary=" << id
       << " kind=" << faults::attack_kind_name(kind);
  });
  // Deliberately NOT churn-registered: the cohort's lifetime is the attack
  // window (fault_stop_attack retires it), and a sybil recycles identities
  // through its own expiry timer instead of the death/replacement path.
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

void GuessNetwork::sybil_expired(PeerId id) {
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

void GuessNetwork::seed_initial_caches() {
  std::size_t seed_size = system_.resolved_cache_seed(protocol_.cache_size);
  // Seed from the initial population only (all alive at time 0).
  std::vector<PeerId> population = table_.alive_ids();
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

CacheEntry GuessNetwork::introduction_entry(const Peer& peer) const {
  // A liar introduces itself with its behavior's claims; everyone else,
  // silenced poisoners included, with its real library size.
  if (peer.malicious()) {
    if (const AdversaryBehavior* liar = zoo_.behavior_of(peer.id())) {
      return liar->introduction(peer.id(), simulator_.now());
    }
  }
  return CacheEntry{peer.id(), simulator_.now(), peer.num_files(), 0};
}

void GuessNetwork::seed_from_friend(Peer& newborn) {
  // Random-friend seeding (§5.1, after [9]): copy the link cache of one
  // live peer the newborn already knows.
  auto friend_id = random_alive_peer(newborn.id());
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

std::optional<PeerId> GuessNetwork::random_alive_peer(PeerId exclude) {
  const std::vector<PeerId>& alive = table_.alive_ids();
  if (alive.empty()) return std::nullopt;
  if (alive.size() == 1 && alive[0] == exclude) return std::nullopt;
  for (;;) {
    PeerId id = alive[rng_.index(alive.size())];
    if (id != exclude) return id;
  }
}

void GuessNetwork::on_peer_death(PeerId id) {
  Peer* peer = find(id);
  GUESS_CHECK_MSG(peer != nullptr, "death of unknown peer");
  bool was_malicious = peer->malicious();
  bool was_selfish = peer->selfish();
  trace(TraceCategory::kChurn, [&](std::ostream& os) {
    os << "death peer=" << id << " probes_received="
       << peer->probes_received();
  });
  remove_peer(id);
  // A new peer is born for every death, keeping NetworkSize constant; it
  // inherits the role flags so the configured fractions stay exact
  // (§5.1, §6.4, §3.3).
  spawn_peer(was_malicious, was_selfish, /*initial=*/false);
}

void GuessNetwork::remove_peer(PeerId id) {
  Peer* peer = table_.find(id);
  GUESS_CHECK_MSG(peer != nullptr, "removal of unknown peer");
  peer->ping_timer.cancel();
  peer->burst_timer.cancel();
  // Open-loop accounting: queries dying with their origin are abandoned,
  // not silently dropped — the active execution plus every waiting entry.
  // The observer must not start new work reentrantly here (the peer is
  // mid-removal); the open-loop driver defers its reaction to a zero-delay
  // event.
  if (query_observer_ != nullptr) {
    std::uint32_t slot = table_.slot_of(id);
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
  // peer resolve as dead once the table entry is gone. Partition membership
  // needs no cleanup — lookups for a dead id fail at the slot table, and
  // the slot's next tenant is stamped at birth.
  release_active_query(table_.slot_of(id));
  flush_load(*peer);
  if (peer->malicious()) zoo_.remove(id);
  table_.destroy(id);
}

void GuessNetwork::ensure_slot_arrays() {
  std::size_t n = table_.slot_count();
  if (active_query_by_slot_.size() < n) active_query_by_slot_.resize(n);
  if (partition_group_by_slot_.size() < n) {
    partition_group_by_slot_.resize(n, -1);
    partition_epoch_by_slot_.resize(n, 0);
  }
}

void GuessNetwork::flush_load(const Peer& peer) {
  if (peer.malicious()) return;  // load fairness is about honest peers
  dead_peer_loads_.push_back(peer.probes_received());
}

// --- pings -----------------------------------------------------------------

void GuessNetwork::start_ping_timer(Peer& peer, double factor) {
  sim::Duration interval = protocol_.ping_interval * factor;
  peer.set_ping_interval(interval);
  // Random phase desynchronizes the population's pings.
  schedule_next_ping(peer, rng_.uniform(0.0, interval));
}

// Self-rescheduling ping chain: re-reads the peer's (possibly adapted,
// §6.1) interval after every ping.
void GuessNetwork::schedule_next_ping(Peer& peer, sim::Duration delay) {
  static_assert(sim::EventQueue::Callback::stores_inline<PingFired>());
  peer.ping_timer = simulator_.after(delay, PingFired{this, peer.id()});
}

void GuessNetwork::ping_timer_fired(PeerId id) {
  do_ping(id);
  Peer* p = find(id);
  if (p == nullptr) return;
  schedule_next_ping(*p, p->ping_interval());
}

void GuessNetwork::do_ping(PeerId pinger_id) {
  Peer* pinger = find(pinger_id);
  if (pinger == nullptr) return;  // died; timer cancellation races are benign
  maybe_reseed_from_pong_server(*pinger);
  auto entry = pinger->cache().select_best(protocol_.ping_probe, rng_);
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

void GuessNetwork::ping_resolved(PeerId pinger_id, PeerId target_id,
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
    pinger->note_ping_result(/*dead=*/true, protocol_.adaptive_ping);
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
  pinger->note_ping_result(/*dead=*/false, protocol_.adaptive_ping);

  target->count_received_ping();
  // Both sides interacted: update TS wherever an entry exists (§2.1).
  pinger->cache().touch(target->id(), simulator_.now());
  target->cache().touch(pinger_id, simulator_.now());
  maybe_introduce(*target, *pinger);

  make_pong_into(*target, protocol_.ping_pong, pong_scratch_);
  process_pong_entries(*pinger, target->id(), pong_scratch_);
}

// §6.1's healing path: a peer whose cache has been eaten below the
// threshold pulls fresh live addresses from the pong server. The server
// tracks liveness only — it serves uniformly random live peers.
void GuessNetwork::maybe_reseed_from_pong_server(Peer& peer) {
  if (!protocol_.pong_server_reseed) return;
  if (peer.cache().size() >= kReseedMinEntries) return;
  if (simulator_.now() - peer.last_reseed() < kReseedCooldown) return;
  peer.set_last_reseed(simulator_.now());
  trace(TraceCategory::kCache, [&](std::ostream& os) {
    os << "reseed peer=" << peer.id() << " entries=" << peer.cache().size();
  });
  std::size_t count = system_.resolved_cache_seed(protocol_.cache_size);
  for (std::size_t i = 0; i < count; ++i) {
    auto id = random_alive_peer(peer.id());
    if (!id || peer.blacklisted(*id)) continue;
    if (peer.cache().full()) break;
    if (peer.cache().contains(*id)) continue;
    peer.cache().insert_free(introduction_entry(*find(*id)));
  }
}

void GuessNetwork::make_pong_into(const Peer& responder, Policy policy,
                                  std::vector<CacheEntry>& out) {
  // The flag test comes first: honest responders, all of the traffic of an
  // attack-free run, never touch the zoo's hash map.
  if (responder.malicious()) {
    if (const AdversaryBehavior* liar = zoo_.behavior_of(responder.id())) {
      liar->make_pong_into(responder.id(), protocol_.pong_size,
                           simulator_.now(), rng_, out);
      return;
    }
  }
  responder.cache().select_top_into(policy, protocol_.pong_size, rng_, out);
  // Fields travel unmodified (§2.2), but "first hand" is local knowledge.
  for (CacheEntry& entry : out) entry.first_hand = false;
}

// The pong-flood countermeasure (DetectionParams::max_pong_entries): honest
// pongs carry at most PongSize entries, so an oversized one is itself the
// attack signature — discard it wholesale (nothing a proven liar lists is
// worth ingesting) and charge the sender one bad referral.
// @returns how many leading entries of `entries` the receiver may ingest.
std::size_t GuessNetwork::accepted_pong_entries(
    Peer& receiver, PeerId source, std::size_t entry_count) {
  const DetectionParams& detection = protocol_.detection;
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
void GuessNetwork::charge_no_reply(Peer& prober, PeerId target_id) {
  const DetectionParams& detection = protocol_.detection;
  if (!detection.enabled || !detection.charge_no_reply) return;
  ++attack_stats_.no_reply_charges;
  if (prober.note_referral(target_id, /*bad=*/true, detection)) {
    trace(TraceCategory::kAttack, [&](std::ostream& os) {
      os << "blacklist peer=" << prober.id() << " no-reply=" << target_id;
    });
  }
}

void GuessNetwork::process_pong_entries(
    Peer& receiver, PeerId source, const std::vector<CacheEntry>& entries) {
  if (receiver.blacklisted(source)) return;
  std::size_t accepted =
      accepted_pong_entries(receiver, source, entries.size());
  for (std::size_t i = 0; i < accepted; ++i) {
    const CacheEntry& entry = entries[i];
    if (entry.id == receiver.id()) continue;
    if (receiver.blacklisted(entry.id)) continue;
    receiver.cache().offer(entry, protocol_.cache_replacement, rng_);
  }
}

void GuessNetwork::maybe_introduce(Peer& responder, const Peer& initiator) {
  if (!rng_.bernoulli(protocol_.intro_prob)) return;
  if (responder.blacklisted(initiator.id())) return;
  responder.cache().offer(introduction_entry(initiator),
                          protocol_.cache_replacement, rng_);
}

// --- queries ---------------------------------------------------------------

void GuessNetwork::start_query_workload(Peer& peer) {
  schedule_next_burst(peer);
}

// Poisson burst arrivals: each firing enqueues one burst of 1..5 queries and
// re-arms itself after a fresh exponential gap (§5.1). The handle stored on
// the peer lets death cancel the chain.
void GuessNetwork::schedule_next_burst(Peer& peer) {
  static_assert(sim::EventQueue::Callback::stores_inline<BurstFired>());
  peer.burst_timer = simulator_.after(query_stream_.next_burst_gap(rng_),
                                      BurstFired{this, peer.id()});
}

void GuessNetwork::burst_timer_fired(PeerId id) {
  Peer* p = find(id);
  if (p == nullptr) return;
  std::size_t burst = query_stream_.next_burst_size(rng_);
  for (std::size_t i = 0; i < burst; ++i) {
    p->enqueue_query(content_.draw_query(rng_), simulator_.now());
  }
  if (!p->query_active()) start_next_query(*p);
  schedule_next_burst(*p);
}

void GuessNetwork::submit_query(PeerId origin, content::FileId file) {
  submit_query(origin, file, simulator_.now());
}

void GuessNetwork::submit_query(PeerId origin, content::FileId file,
                                sim::Time issued) {
  Peer* peer = find(origin);
  GUESS_CHECK_MSG(peer != nullptr, "submit_query for dead peer");
  peer->enqueue_query(file, issued);
  if (!peer->query_active()) start_next_query(*peer);
}

void GuessNetwork::visit_open_queries(
    const std::function<void(sim::Time)>& visit) const {
  for (const std::unique_ptr<QueryExecution>& query : active_query_by_slot_) {
    // Pool slots of dead/idle peers are null; stale entries are impossible
    // (release clears the slot).
    if (query != nullptr) visit(query->issue_time());
  }
  for (PeerId id : table_.alive_ids()) {
    table_.find(id)->visit_pending_queries(
        [&](const Peer::PendingQuery& q) { visit(q.issued); });
  }
}

QueryExecution* GuessNetwork::active_query_for(PeerId origin_id) {
  std::uint32_t slot = table_.slot_of(origin_id);
  if (slot == PeerTable::kNoSlot) return nullptr;
  return active_query_by_slot_[slot].get();
}

void GuessNetwork::release_active_query(std::uint32_t slot) {
  if (active_query_by_slot_[slot] == nullptr) return;
  query_pool_.put(std::move(active_query_by_slot_[slot]));
  --active_query_count_;
}

void GuessNetwork::start_next_query(Peer& origin) {
  GUESS_CHECK(!origin.query_active());
  if (!origin.has_pending_query()) return;
  Peer::PendingQuery pending = origin.pop_pending_query();
  content::FileId file = pending.file;
  PeerId id = origin.id();
  // Selfish peers ignore the serial-probing rule and blast wide (§3.3).
  std::size_t parallel =
      origin.selfish() ? kSelfishParallelProbes : protocol_.parallel_probes;
  auto desired = static_cast<std::uint32_t>(system_.num_desired_results);
  bool fho = protocol_.reset_num_results || origin.first_hand_only();
  // Recycle a pooled execution (reset is equivalent to construction but
  // keeps the heap / dedup storage: steady-state queries don't allocate).
  std::unique_ptr<QueryExecution> query = query_pool_.take();
  if (query != nullptr) {
    query->reset(id, file, desired, protocol_.query_probe, simulator_.now(),
                 parallel, fho);
  } else {
    query = std::make_unique<QueryExecution>(id, file, desired,
                                             protocol_.query_probe,
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
  // slots' worth of Pong fan-in; arrivals beyond this grow the heap once
  // and the capacity then survives in the pool.
  query->reserve_candidates(origin.cache().size() + protocol_.pong_size * 4);
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
  active_query_by_slot_[table_.slot_of(id)] = std::move(query);
  ++active_query_count_;
  // First probe fires immediately; later probes pace at the probe slot.
  static_assert(sim::EventQueue::Callback::stores_inline<QueryStepFired>());
  simulator_.after(0.0, QueryStepFired{this, id});
}

void GuessNetwork::query_step(PeerId origin_id) {
  QueryExecution* active = active_query_for(origin_id);
  if (active == nullptr) return;  // origin died or query finished
  Peer* origin = find(origin_id);
  GUESS_CHECK(origin != nullptr);  // death releases the active query
  QueryExecution& query = *active;

  query.begin_slot();
  for (std::size_t k = 0; k < query.slot_parallel(); ++k) {
    // A creditless peer cannot probe this slot (§3.3 payments): the query
    // stalls until inbound probes earn more credit.
    if (protocol_.payments && !origin->can_afford(kProbeCost)) {
      query.note_creditless();
      break;
    }
    // Pull the next candidate, skipping blacklisted targets and targets
    // under backoff.
    std::optional<QueryExecution::Candidate> candidate;
    while ((candidate = query.next_candidate())) {
      if (origin->blacklisted(candidate->entry.id)) continue;
      if (!protocol_.do_backoff ||
          !origin->backed_off(candidate->entry.id, simulator_.now()))
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
    if (protocol_.payments) origin->reserve_credit(kProbeCost);
    // Under SynchronousTransport the completion (probe_resolved) runs
    // inline before exchange() returns, reproducing the pre-transport
    // in-slot processing order; the slot cannot close mid-loop because
    // end_issuing() has not run yet. `query` and `origin` stay valid: the
    // query only finishes from the slot epilogue, and peers only die from
    // churn events.
    static_assert(Transport::Completion::stores_inline<QueryProbeResolved>());
    transport_->exchange(
        MessageKind::kQueryProbe, origin_id, candidate->entry.id,
        QueryProbeResolved{this, origin_id, query.token(), *candidate});
  }
  if (query.end_issuing()) finish_slot(origin_id);
}

void GuessNetwork::probe_resolved(PeerId origin_id, std::uint64_t token,
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
    if (protocol_.payments) {
      if (Peer* origin = find(origin_id)) origin->release_credit();
    }
    return;
  }
  Peer* origin = find(origin_id);
  GUESS_CHECK(origin != nullptr);  // death releases the active query
  QueryExecution& query = *active;
  PeerId target_id = candidate.entry.id;
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
    if (protocol_.payments) origin->release_credit();
    query.record_outcome(ProbeOutcome::kDead);
    origin->cache().evict(target_id);
    if (origin->note_referral(referrer, /*bad=*/true, protocol_.detection)) {
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
                            system_.max_probes_per_second)) {
    // Overloaded: the probe is dropped. Without backoff the prober treats
    // the silence as death and evicts — the implicit throttle of §6.3.
    // Dropped unserved means nobody is paid: the reservation returns.
    if (protocol_.payments) origin->release_credit();
    query.record_outcome(ProbeOutcome::kRefused);
    if (protocol_.do_backoff) {
      origin->set_backoff(target_id, simulator_.now() + kBackoffDuration);
    } else {
      origin->cache().evict(target_id);
    }
    if (query.note_probe_resolved()) finish_slot(origin_id);
    return;
  }

  query.record_outcome(ProbeOutcome::kGood);
  if (protocol_.payments) {
    // The probe was served: the issue-time reservation becomes a spend,
    // the server earns (§3.3).
    origin->commit_credit(kProbeCost);
    target->earn_credit(kServeReward, kCreditCap);
  }
  // All probes of a slot are in flight together: a target cannot know the
  // query was satisfied by a concurrent probe, so it answers as if the
  // remaining need were at least one.
  std::uint32_t needed = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(system_.num_desired_results) -
             std::min<std::uint32_t>(
                 query.results(),
                 static_cast<std::uint32_t>(system_.num_desired_results)));
  std::uint32_t results = target->answer_query(query.file(), needed);
  query.add_results(results);

  // §6.4 detection: an entry with an outsized NumRes claim whose peer
  // returns nothing marks the peer itself as a liar. Only the liar is
  // charged — honest peers forward poisoned claims they cannot verify, so
  // blaming referrers here would cannibalize the honest overlay. Honest
  // entries claim 0/1 results, so false positives are rare.
  bool lied =
      results == 0 &&
      candidate.entry.num_res >= protocol_.detection.lie_claim_threshold;
  if (origin->note_referral(target_id, lied, protocol_.detection)) {
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
        protocol_.cache_replacement, rng_);
  }

  // Every probed peer answers with a Pong (§2.3): entries feed the query
  // cache and, subject to CacheReplacement, the link cache.
  make_pong_into(*target, protocol_.query_pong, pong_scratch_);
  offer_query_pong(*origin, query, target_id, pong_scratch_);

  if (query.note_probe_resolved()) finish_slot(origin_id);
}

// Slot epilogue: runs when every probe of the slot has resolved (inline at
// the end of query_step under SynchronousTransport; at the last transport
// completion under LossyTransport).
void GuessNetwork::finish_slot(PeerId origin_id) {
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
                  protocol_.adaptive_parallel);
  simulator_.after(kProbeInterval, QueryStepFired{this, origin_id});
}

void GuessNetwork::offer_query_pong(Peer& origin, QueryExecution& query,
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
    if (protocol_.use_query_cache) query.add_candidate(entry, source, rng_);
    origin.cache().offer(entry, protocol_.cache_replacement, rng_);
  }
}

void GuessNetwork::finish_query(Peer& origin, QueryExecution& query,
                                bool satisfied) {
  // The interval accumulators run from t=0, independent of measuring_: a
  // recovery computation needs pre-fault intervals even when the fault
  // lands at the measurement boundary.
  if (interval_width_ > 0.0) {
    ++interval_completed_;
    if (satisfied) ++interval_satisfied_;
    interval_probes_ += query.counters().total();
  }
  if (measuring_) {
    ++results_.queries_completed;
    if (satisfied) {
      ++results_.queries_satisfied;
      results_.response_time.add(simulator_.now() - query.start_time());
    }
    results_.probes += query.counters();
    results_.query_cache_population.add(
        static_cast<double>(query.seen()));
    results_.query_probes.add(static_cast<double>(query.counters().total()));
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
  // Capture the observer's arguments before the release aliases `query`.
  double latency = simulator_.now() - query.issue_time();
  origin.set_query_active(false);
  // `query` aliases the pooled object from here on — do not touch it.
  release_active_query(table_.slot_of(id));
  if (origin.has_pending_query()) start_next_query(origin);
  // Last: the observer may submit new queries reentrantly (the open-loop
  // controller starts a queued arrival on completion); by now this peer's
  // workload state is consistent, so a submit targeting it is safe.
  if (query_observer_ != nullptr) {
    query_observer_->on_query_complete(latency, satisfied);
  }
}

// --- fault-scenario hooks (DESIGN.md §9) -----------------------------------

void GuessNetwork::fault_mass_kill(double fraction) {
  const std::vector<PeerId>& alive = table_.alive_ids();
  std::size_t victims = static_cast<std::size_t>(
      fraction * static_cast<double>(alive.size()));
  victims = std::min(victims, alive.size());
  // Draw victims from the alive list (deterministic order), then copy out:
  // each removal swap-mutates the alive list underneath the indices.
  auto picks = rng_.sample_indices(alive.size(), victims);
  std::vector<PeerId> chosen;
  chosen.reserve(picks.size());
  for (std::size_t idx : picks) chosen.push_back(alive[idx]);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "mass-kill fraction=" << fraction << " victims=" << chosen.size()
       << " alive=" << table_.size();
  });
  for (PeerId id : chosen) {
    // Cancel the victim's scheduled natural death — it must not fire later
    // against a vanished id — and remove WITHOUT a replacement birth: a
    // mass departure shrinks the population until a join action.
    churn_->deschedule(id);
    remove_peer(id);
  }
}

void GuessNetwork::fault_mass_join(std::size_t count) {
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "mass-join count=" << count << " alive=" << table_.size();
  });
  for (std::size_t i = 0; i < count; ++i) {
    spawn_peer(/*malicious=*/false, /*selfish=*/false, /*initial=*/false);
  }
}

void GuessNetwork::fault_set_partition(int ways) {
  GUESS_CHECK_MSG(ways >= 2, "partition ways must be >= 2, got " << ways);
  partition_ways_ = ways;
  // A fresh epoch invalidates every earlier stamp in O(1); assignments are
  // drawn in alive order, exactly as before the dense table.
  ++partition_epoch_;
  ensure_slot_arrays();
  for (PeerId id : table_.alive_ids()) {
    std::uint32_t slot = table_.slot_of(id);
    partition_group_by_slot_[slot] =
        static_cast<int>(rng_.index(static_cast<std::size_t>(ways)));
    partition_epoch_by_slot_[slot] = partition_epoch_;
  }
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "partition ways=" << ways << " alive=" << table_.size();
  });
}

void GuessNetwork::fault_clear_partition() {
  partition_ways_ = 0;
  ++partition_epoch_;  // stale stamps die without touching the arrays
  trace(TraceCategory::kFault,
        [&](std::ostream& os) { os << "partition healed"; });
}

void GuessNetwork::fault_set_degradation(double extra_loss,
                                         double latency_factor) {
  degrade_extra_loss_ = extra_loss;
  degrade_latency_factor_ = latency_factor;
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "degrade extra_loss=" << extra_loss
       << " latency_factor=" << latency_factor;
  });
}

void GuessNetwork::fault_clear_degradation() {
  degrade_extra_loss_ = 0.0;
  degrade_latency_factor_ = 1.0;
  trace(TraceCategory::kFault,
        [&](std::ostream& os) { os << "degrade window closed"; });
}

void GuessNetwork::fault_set_poisoning(bool active) {
  zoo_.set_poisoning(active);
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "poisoning " << (active ? "on" : "off");
  });
}

void GuessNetwork::fault_start_attack(faults::AttackKind kind,
                                      double fraction) {
  GUESS_CHECK_MSG(zoo_.roster(kind).empty(),
                  "attack onset for an already-active "
                      << faults::attack_kind_name(kind) << " cohort");
  // Pong-flood ammunition, allocated once at the first onset.
  if (kind == faults::AttackKind::kPongFlood && zoo_.flood_pool().empty()) {
    zoo_.set_flood_pool(fabricate_ids(std::max<std::size_t>(
        1, kFloodPoolFactor * system_.network_size)));
  }
  std::size_t cohort = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             fraction * static_cast<double>(table_.size())));
  trace(TraceCategory::kFault, [&](std::ostream& os) {
    os << "attack " << faults::attack_kind_name(kind)
       << " onset cohort=" << cohort << " alive=" << table_.size();
  });
  for (std::size_t i = 0; i < cohort; ++i) spawn_adversary(kind);
}

void GuessNetwork::fault_stop_attack(faults::AttackKind kind) {
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

bool GuessNetwork::severed(PeerId from, PeerId to) const {
  // Reply withholding: a deployed withholder swallows every exchange sent
  // *to* it — the sender sees a timeout (and pays retries under the lossy
  // transport). The withholder's own outbound exchanges go through, which
  // is what keeps it circulating via introductions.
  if (zoo_.withholds(to)) {
    ++attack_stats_.withheld_exchanges;
    return true;
  }
  if (partition_ways_ <= 0) return false;
  // Unassigned addresses (dead-pool fabrications, corpses) are not
  // severed — exchanges to them time out on their own.
  int a = partition_group(from);
  if (a < 0) return false;
  int b = partition_group(to);
  if (b < 0) return false;
  return a != b;
}

int GuessNetwork::partition_group(PeerId id) const {
  std::uint32_t slot = table_.slot_of(id);
  if (slot == PeerTable::kNoSlot ||
      slot >= partition_epoch_by_slot_.size() ||
      partition_epoch_by_slot_[slot] != partition_epoch_) {
    return -1;
  }
  return partition_group_by_slot_[slot];
}

// --- interval metrics (DESIGN.md §9) ---------------------------------------

void GuessNetwork::begin_interval_metrics(sim::Duration width) {
  GUESS_CHECK_MSG(width > 0.0, "interval width must be > 0");
  interval_width_ = width;
  interval_start_ = simulator_.now();
  interval_completed_ = interval_satisfied_ = interval_probes_ = 0;
  interval_transport_baseline_ = transport_->counters();
  interval_series_.clear();
}

void GuessNetwork::sample_interval() {
  if (interval_width_ <= 0.0) return;
  IntervalSample sample;
  sample.start = interval_start_;
  sample.end = simulator_.now();
  sample.queries_completed = interval_completed_;
  sample.queries_satisfied = interval_satisfied_;
  sample.probes = interval_probes_;
  sample.live_peers = table_.size();
  sample.transport = transport_->counters() - interval_transport_baseline_;
  interval_series_.push_back(sample);
  interval_start_ = sample.end;
  interval_completed_ = interval_satisfied_ = interval_probes_ = 0;
  interval_transport_baseline_ = transport_->counters();
}

// --- measurement -----------------------------------------------------------

void GuessNetwork::begin_measurement() {
  measuring_ = true;
  // Loads are lifetime counts; restrict the Figure 13 sample to peers that
  // exist during measurement by dropping earlier corpses.
  dead_peer_loads_.clear();
  // Transport counters are lifetime totals too: snapshot here and report
  // the measurement-window delta in collect_results().
  transport_baseline_ = transport_->counters();
}

void GuessNetwork::sample_cache_health() {
  double fraction_sum = 0.0;
  double live_sum = 0.0;
  double good_sum = 0.0;
  double entries_sum = 0.0;
  std::size_t counted = 0;
  for (PeerId id : table_.alive_ids()) {
    const Peer& peer = *table_.find(id);
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

std::size_t GuessNetwork::largest_component() const {
  if (table_.size() == 0) return 0;
  // The peer table already maintains each live peer's position in the alive
  // list — that IS the dense vertex numbering, so no map needs building.
  UnionFind uf(table_.size());
  visit_live_edges([&](PeerId from, PeerId to) {
    uf.unite(table_.alive_pos(from), table_.alive_pos(to));
  });
  return uf.largest();
}

void GuessNetwork::sample_connectivity() {
  results_.largest_component.add(static_cast<double>(largest_component()));
}

SimulationResults GuessNetwork::collect_results() {
  SimulationResults out = results_;
  out.deaths = churn_->deaths();
  out.network_size = system_.network_size;
  out.transport = transport_->counters() - transport_baseline_;
  out.attack = attack_stats_;
  // Figure 13 loads: every honest peer that existed during measurement.
  for (std::uint64_t load : dead_peer_loads_) {
    out.peer_loads.add(static_cast<double>(load));
  }
  for (PeerId id : table_.alive_ids()) {
    const Peer& peer = *table_.find(id);
    if (!peer.malicious())
      out.peer_loads.add(static_cast<double>(peer.probes_received()));
  }
  out.interval_series = interval_series_;
  // Trailing partial interval (horizon not aligned to the interval width):
  // appended to the snapshot without disturbing the live accumulators.
  if (interval_width_ > 0.0 && simulator_.now() > interval_start_) {
    IntervalSample tail;
    tail.start = interval_start_;
    tail.end = simulator_.now();
    tail.queries_completed = interval_completed_;
    tail.queries_satisfied = interval_satisfied_;
    tail.probes = interval_probes_;
    tail.live_peers = table_.size();
    tail.transport = transport_->counters() - interval_transport_baseline_;
    out.interval_series.push_back(tail);
  }
  return out;
}

}  // namespace guess
