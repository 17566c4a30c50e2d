#include "search/gossip.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "search/adapters.h"

namespace guess::search {

GossipBackend::GossipBackend(const SimulationConfig& config,
                             sim::Simulator& simulator, Rng rng)
    : config_(config),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(config.system().content),
      query_stream_(config.system().query_rate),
      peers_(simulator, config.system().lifespan_multiplier, rng_,
             [this](std::uint64_t id) { on_peer_death(id); }),
      ledger_(simulator) {
  const GossipBackendParams& tuning = config_.backends().gossip;
  GUESS_CHECK(config_.system().network_size >= 2);
  GUESS_CHECK(tuning.fanout < config_.system().network_size);
}

GossipBackend::~GossipBackend() = default;

void GossipBackend::bootstrap() {
  std::size_t n = config_.system().network_size;
  peers_.table().reserve(n + n / 4);
  // Fallback probing permutations; +1 leaves room to skip the origin.
  probe_order_.reserve(
      std::max(n, config_.backends().gossip.max_probes + 1));
  for (std::size_t i = 0; i < n; ++i) spawn_peer(Birth::kInitial);
}

GossipBackend::PeerSlot& GossipBackend::live(std::uint64_t id) {
  PeerSlot* peer = peers_.table().find(id);
  GUESS_CHECK_MSG(peer != nullptr, "peer " << id << " is not alive");
  return *peer;
}

const GossipBackend::PeerSlot& GossipBackend::live(std::uint64_t id) const {
  const PeerSlot* peer = peers_.table().find(id);
  GUESS_CHECK_MSG(peer != nullptr, "peer " << id << " is not alive");
  return *peer;
}

std::uint64_t GossipBackend::spawn_peer(Birth birth) {
  PeerSlot& peer = peers_.birth(birth, content_.sample_peer_library(rng_));
  peer.knowledge.reserve(config_.backends().gossip.knowledge_capacity);
  std::uint64_t id = peer.id;
  schedule_next_gossip(
      id, rng_.uniform(0.0, config_.backends().gossip.gossip_interval));
  schedule_next_burst(id);
  return id;
}

void GossipBackend::on_peer_death(std::uint64_t id) {
  peers_.table().destroy(id);
  ledger_.record_deaths();
  // Constant population: the paper's model, shared by every backend.
  spawn_peer(Birth::kNewborn);
}

void GossipBackend::schedule_next_gossip(std::uint64_t id,
                                         sim::Duration delay) {
  simulator_.after(delay, [this, id]() {
    if (!peers_.table().alive(id)) return;
    gossip_round(id);
    schedule_next_gossip(id, config_.backends().gossip.gossip_interval);
  });
}

void GossipBackend::schedule_next_burst(std::uint64_t id) {
  // Open-loop runs silence the per-peer burst clock; queries arrive only
  // through start_query.
  if (config_.open_loop()) return;
  simulator_.after(query_stream_.next_burst_gap(rng_), [this, id]() {
    const SlotTable<PeerSlot>& table = peers_.table();
    if (!table.alive(id)) return;
    std::size_t burst = query_stream_.next_burst_size(rng_);
    for (std::size_t i = 0; i < burst; ++i) {
      if (!table.alive(id)) break;  // a mid-burst fault could have removed us
      run_query(id, content_.draw_query(rng_));
    }
    if (table.alive(id)) schedule_next_burst(id);
  });
}

double GossipBackend::leg_loss() const {
  double base = config_.transport().kind == TransportParams::Kind::kLossy
                    ? config_.transport().loss
                    : 0.0;
  return std::min(1.0, base + peers_.extra_loss());
}

void GossipBackend::integrate_ad(PeerSlot& peer, const Ad& ad) {
  if (ad.provider == peer.id) return;
  if (peer.library.contains(ad.file)) return;  // can already serve it
  for (Ad& existing : peer.knowledge) {
    if (existing.file == ad.file && existing.provider == ad.provider) {
      existing.expires = std::max(existing.expires, ad.expires);
      existing.residual = std::max(existing.residual, ad.residual);
      return;
    }
  }
  if (peer.knowledge.size() < config_.backends().gossip.knowledge_capacity) {
    peer.knowledge.push_back(ad);
    return;
  }
  // Full: replace the entry closest to expiry (it carries the least value).
  std::size_t victim = 0;
  for (std::size_t i = 1; i < peer.knowledge.size(); ++i) {
    if (peer.knowledge[i].expires < peer.knowledge[victim].expires) {
      victim = i;
    }
  }
  peer.knowledge[victim] = ad;
}

std::size_t GossipBackend::send_ads(PeerSlot& from, PeerSlot& to,
                                    bool delivered) {
  const GossipBackendParams& tuning = config_.backends().gossip;
  sim::Time now = simulator_.now();
  std::size_t count = 0;

  // Fresh self-ad for one random own file: the rumor's point of origin.
  if (!from.library.empty()) {
    Ad ad;
    ad.file = from.library.files()[rng_.index(from.library.size())];
    ad.provider = from.id;
    ad.expires = now + tuning.ad_ttl;
    ad.residual = static_cast<std::uint32_t>(tuning.residual_pushes);
    if (delivered) integrate_ad(to, ad);
    ++count;
  }

  // Relay rumors with push budget left, scanning from a rotating cursor so
  // successive exchanges spread different cache regions.
  std::size_t scanned = 0;
  std::size_t size = from.knowledge.size();
  while (count < tuning.ads_per_exchange && scanned < size) {
    std::size_t i = (from.rumor_cursor + scanned) % size;
    ++scanned;
    Ad& entry = from.knowledge[i];
    if (entry.residual == 0 || now >= entry.expires) continue;
    --entry.residual;  // push-with-counter: the relay budget drains
    if (delivered) {
      Ad copy = entry;
      integrate_ad(to, copy);
    }
    ++count;
  }
  from.rumor_cursor = size == 0 ? 0 : (from.rumor_cursor + scanned) % size;

  if (measuring_) {
    ++stats_.gossip_legs;
    stats_.ads_sent += count;
  }
  return count;
}

void GossipBackend::gossip_round(std::uint64_t id) {
  SlotTable<PeerSlot>& table = peers_.table();
  if (table.size() < 2) return;
  PeerSlot& self = live(id);
  const GossipBackendParams& tuning = config_.backends().gossip;
  double loss = leg_loss();
  std::size_t my_index = table.alive_pos(id);
  for (std::size_t f = 0; f < tuning.fanout; ++f) {
    // One draw over the others: index < mine maps directly, >= mine shifts
    // past self.
    std::size_t pick = rng_.index(table.size() - 1);
    if (pick >= my_index) ++pick;
    PeerSlot& partner = *table.find(table.alive_ids()[pick]);
    if (measuring_) ++stats_.gossip_exchanges;
    if (peers_.severed(id, partner.id)) {
      // The push leg is spent on a dead link; no pull comes back.
      send_ads(self, partner, /*delivered=*/false);
      continue;
    }
    bool push_ok = loss <= 0.0 || !rng_.bernoulli(loss);
    send_ads(self, partner, push_ok);
    if (!push_ok) continue;  // partner never learned of the exchange
    bool pull_ok = loss <= 0.0 || !rng_.bernoulli(loss);
    send_ads(partner, self, pull_ok);
  }
}

void GossipBackend::gossip_now(std::uint64_t id) { gossip_round(id); }

void GossipBackend::submit_query(std::uint64_t origin, content::FileId file) {
  run_query(origin, file);
}

GossipBackend::QueryOutcome GossipBackend::run_query(std::uint64_t origin,
                                                     content::FileId file) {
  const GossipBackendParams& tuning = config_.backends().gossip;
  PeerSlot& o = live(origin);
  sim::Time now = simulator_.now();
  auto desired =
      static_cast<std::uint32_t>(config_.system().num_desired_results);
  double loss = leg_loss();

  std::uint32_t found = 0;
  std::uint64_t probes = 0;
  std::uint64_t replies = 0;
  bool local_hit = false;

  // Tier 1: the origin's own library.
  if (o.library.contains(file)) {
    found = desired;
    local_hit = true;
  }

  // Tier 2: the knowledge cache. Expired and dead-provider ads are
  // discarded on access — the staleness accounting the bench reports.
  bool entered_fallback = false;
  if (found < desired) {
    std::size_t i = 0;
    while (i < o.knowledge.size() && found < desired &&
           probes < tuning.max_probes) {
      Ad& ad = o.knowledge[i];
      if (ad.file != file) {
        ++i;
        continue;
      }
      if (now >= ad.expires) {
        if (measuring_) ++stats_.stale_ads_expired;
        ad = o.knowledge.back();
        o.knowledge.pop_back();
        continue;
      }
      const PeerSlot* provider = peers_.table().find(ad.provider);
      if (provider == nullptr) {
        if (measuring_) ++stats_.stale_ads_dead;
        ad = o.knowledge.back();
        o.knowledge.pop_back();
        continue;
      }
      // Fetch from the advertised provider: one direct probe.
      ++probes;
      bool ok = !peers_.severed(origin, ad.provider) &&
                (loss <= 0.0 || !rng_.bernoulli(loss));
      if (ok) {
        ++replies;
        ++found;
      }
      ++i;
    }
  }
  bool knowledge_hit = found >= desired && !local_hit;

  // Tier 3: fall back to probing random live peers, GUESS-style.
  const SlotTable<PeerSlot>& table = peers_.table();
  if (found < desired && probes < tuning.max_probes && table.size() > 1) {
    entered_fallback = true;
    std::size_t budget =
        std::min<std::size_t>(tuning.max_probes - probes + 1, table.size());
    rng_.sample_indices_into(table.size(), budget, probe_order_,
                             sample_scratch_);
    for (std::size_t pick : probe_order_) {
      if (found >= desired || probes >= tuning.max_probes) break;
      std::uint64_t target_id = table.alive_ids()[pick];
      if (target_id == origin) continue;
      ++probes;
      const PeerSlot& target = *table.find(target_id);
      bool ok = !peers_.severed(origin, target_id) &&
                (loss <= 0.0 || !rng_.bernoulli(loss));
      if (!ok) continue;
      ++replies;
      if (target.library.contains(file)) ++found;
    }
  }

  bool satisfied = found >= desired;
  QueryOutcome outcome;
  outcome.satisfied = satisfied;
  outcome.response_time = static_cast<double>(probes) *
                          tuning.probe_interval * peers_.latency_factor();
  ledger_.record(satisfied, probes, outcome.response_time);
  if (measuring_) {
    if (local_hit) ++stats_.local_hits;
    if (knowledge_hit) ++stats_.knowledge_hits;
    if (entered_fallback) ++stats_.fallback_queries;
    stats_.probe_replies += replies;
  }
  return outcome;
}

void GossipBackend::begin_measurement() {
  measuring_ = true;
  stats_ = GossipStats{};
  ledger_.begin_measurement();
}

void GossipBackend::start_query(Rng& rng, sim::Time issued) {
  std::uint64_t origin = peers_.uniform_alive(rng);
  QueryOutcome outcome = run_query(origin, content_.draw_query(rng));
  if (observer_ != nullptr) {
    // Queries resolve synchronously; latency is the controller queueing
    // delay plus the modeled probe pacing time.
    observer_->on_query_complete(
        (simulator_.now() - issued) + outcome.response_time,
        outcome.satisfied);
  }
}

SearchResults GossipBackend::collect() {
  for (std::uint64_t id : alive_ids()) {
    stats_.knowledge_size.add(static_cast<double>(live(id).knowledge.size()));
  }

  SearchResults out;
  out.backend = name();
  out.network_size = config_.system().network_size;
  ledger_.collect(out, live_peers());
  out.query_messages = out.probes + stats_.probe_replies;
  out.maintenance_messages = stats_.gossip_legs;
  out.query_bytes =
      out.probes * (kWire.header + kWire.probe_payload) +
      stats_.probe_replies * (kWire.header + kWire.result_entry);
  out.maintenance_bytes = stats_.gossip_legs * kWire.header +
                          stats_.ads_sent * kWire.ad_entry;
  out.extra = stats_;
  return out;
}

std::size_t GossipBackend::knowledge_entries(std::uint64_t id) const {
  return live(id).knowledge.size();
}

bool GossipBackend::knows(std::uint64_t id, content::FileId file) const {
  for (const Ad& ad : live(id).knowledge) {
    if (ad.file == file) return true;
  }
  return false;
}

void GossipBackend::fault_mass_kill(double fraction) {
  for (std::uint64_t id : peers_.draw_victims(fraction)) {
    peers_.table().destroy(id);  // no replacement birth
    ledger_.record_deaths();
  }
}

void GossipBackend::fault_mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(Birth::kNewborn);
}

std::unique_ptr<SearchBackend> make_gossip_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<GossipBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
