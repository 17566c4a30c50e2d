#include "search/flood.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"
#include "search/adapters.h"

namespace guess::search {

FloodBackend::FloodBackend(const SimulationConfig& config,
                           sim::Simulator& simulator, Rng rng)
    : config_(config),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(config.system().content),
      query_stream_(config.system().query_rate),
      loss_(config.transport().kind == TransportParams::Kind::kLossy
                ? config.transport().loss
                : 0.0),
      peers_(simulator, config.system().lifespan_multiplier, rng_,
             [this](PeerId id) { remove_peer(id, /*respawn=*/true); }),
      links_(config.system().network_size),
      holders_(config.system().content.catalog_size),
      library_bits_((config.system().content.catalog_size + 63) / 64, 0),
      ledger_(simulator) {
  // Smaller populations than kTargetDegree + 1 simply leave peers below
  // their target degree: connect_to_random bounds its attempts.
  GUESS_CHECK(config_.system().network_size >= 2);
  GUESS_CHECK(loss_ >= 0.0 && loss_ <= 1.0);
}

FloodBackend::~FloodBackend() = default;

void FloodBackend::bootstrap() {
  GUESS_CHECK_MSG(peers_.id_bound() == 0, "bootstrap() called twice");
  std::size_t n = config_.system().network_size;
  peers_.table().reserve(n);
  for (std::size_t i = 0; i < n; ++i) spawn_peer(Birth::kInitial);
  // Wire the initial overlay after all peers exist.
  for (PeerId id : peers_.table().alive_ids()) {
    std::uint32_t slot = peers_.table().slot_of(id);
    if (links_.degree(slot) < gnutella::kTargetDegree) {
      connect_to_random(slot, gnutella::kTargetDegree - links_.degree(slot));
    }
  }
}

FloodBackend::PeerId FloodBackend::spawn_peer(Birth birth) {
  const std::size_t files = content_.sample_file_count(rng_);
  content_.draw_library(files, rng_, library_bits_);
  PeerId id = peers_.birth(birth, static_cast<std::uint32_t>(files)).id;
  GUESS_CHECK_MSG(id <= std::numeric_limits<std::uint32_t>::max(),
                  "holder lists keep 32-bit peer ids");
  for (std::size_t w = 0; w < library_bits_.size(); ++w) {
    for (std::uint64_t bits = std::exchange(library_bits_[w], 0); bits != 0;
         bits &= bits - 1) {
      holders_[w * 64 + std::countr_zero(bits)].push_back(
          static_cast<std::uint32_t>(id));
    }
  }
  live_entries_ += files;
  links_.ensure_nodes(peers_.table().slot_count());
  holds_in_.resize(peers_.table().slot_count(), 0);
  // A joining peer opens its connections right away (§3.2: joining is
  // simple — only the new neighbors update state).
  if (birth == Birth::kNewborn) {
    connect_to_random(peers_.table().slot_of(id), gnutella::kTargetDegree);
  }
  schedule_next_burst(id);
  return id;
}

void FloodBackend::remove_peer(PeerId id, bool respawn) {
  SlotTable<PeerState>& table = peers_.table();
  std::uint32_t slot = table.slot_of(id);
  PeerState& peer = table.in_slot(slot);
  peer.burst_timer.cancel();
  if (measuring_) dead_loads_.push_back(peer.messages_processed);
  // Neighbors see the connection drop and repair immediately (§3.2), in
  // the order the connections stood before the removal.
  std::vector<std::size_t> neighbors = links_.neighbors(slot);
  for (std::size_t other : neighbors) links_.remove_edge(slot, other);
  // The peer's holder entries stay until a query walks their list or the
  // sweep runs; the sweep bounds them even when queries are rare.
  live_entries_ -= peer.library_size;
  dead_entries_ += peer.library_size;
  table.destroy(id);
  if (4 * dead_entries_ > live_entries_) sweep_dead_holders();
  ledger_.record_deaths();

  for (std::size_t other : neighbors) {
    if (links_.degree(other) < gnutella::kTargetDegree) {
      connect_to_random(static_cast<std::uint32_t>(other), 1);
      if (measuring_) ++stats_.repairs;
    }
  }
  // Constant population under churn, like the GUESS simulations.
  if (respawn) spawn_peer(Birth::kNewborn);
}

void FloodBackend::fault_mass_kill(double fraction) {
  for (PeerId id : peers_.draw_victims(fraction)) {
    remove_peer(id, /*respawn=*/false);
  }
}

void FloodBackend::fault_mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(Birth::kNewborn);
}

bool FloodBackend::add_link(std::uint32_t a, std::uint32_t b) {
  if (links_.degree(a) >= gnutella::kMaxDegree ||
      links_.degree(b) >= gnutella::kMaxDegree) {
    return false;
  }
  return links_.add_edge(a, b);
}

void FloodBackend::connect_to_random(std::uint32_t slot, std::size_t wanted) {
  SlotTable<PeerState>& table = peers_.table();
  PeerId self = table.in_slot(slot).id;
  std::size_t attempts = 0;
  std::size_t added = 0;
  // Bounded retries: the overlay may be degree-saturated.
  while (added < wanted && attempts < wanted * 20 && table.size() > 1) {
    ++attempts;
    PeerId other = *peers_.random_alive(self);
    if (add_link(slot, table.slot_of(other))) ++added;
  }
}

void FloodBackend::schedule_next_burst(PeerId id) {
  // Open-loop runs silence the per-peer burst clock; queries arrive only
  // through start_query.
  if (config_.open_loop()) return;
  peers_.table().find(id)->burst_timer =
      simulator_.after(query_stream_.next_burst_gap(rng_), [this, id]() {
        if (!peers_.table().alive(id)) return;
        std::size_t burst = query_stream_.next_burst_size(rng_);
        for (std::size_t i = 0; i < burst; ++i) {
          run_query(id, content_.draw_query(rng_));
        }
        schedule_next_burst(id);
      });
}

void FloodBackend::sweep_dead_holders() {
  for (std::vector<std::uint32_t>& list : holders_) {
    std::erase_if(list, [this](std::uint32_t id) {
      return !peers_.table().alive(id);
    });
  }
  dead_entries_ = 0;
}

std::uint64_t FloodBackend::stamp_holders(content::FileId file) {
  const std::uint64_t epoch = ++query_epoch_;
  if (file == content::kNonexistentFile) return epoch;
  // Order within a list is immaterial: a stamp is a set membership.
  std::vector<std::uint32_t>& list = holders_[file];
  for (std::size_t i = 0; i < list.size();) {
    const std::uint32_t slot = peers_.table().slot_of(list[i]);
    if (slot == SlotTable<PeerState>::kNoSlot) {
      list[i] = list.back();
      list.pop_back();
      --dead_entries_;
    } else {
      holds_in_[slot] = epoch;
      ++i;
    }
  }
  return epoch;
}

FloodBackend::QueryOutcome FloodBackend::run_query(PeerId origin,
                                                   content::FileId file) {
  // Synchronous flood: messages are counted per transmission, duplicates
  // included (the §3 amplification); response time is the hop depth of the
  // first result times the per-hop delay. A transmission's loss draw and
  // the receiver's load come before the duplicate check.
  const std::size_t ttl = config_.backends().flood.ttl;
  const std::uint64_t epoch = stamp_holders(file);
  std::uint64_t reached = 0;
  std::uint32_t results = 0;
  std::size_t first_result_depth = 0;
  SlotTable<PeerState>& table = peers_.table();
  std::uint32_t source = table.slot_of(origin);
  table.in_slot(source).messages_processed += 1;
  std::uint64_t messages = gnutella::flood(
      links_, source, ttl, flood_scratch_,
      [this, &table](std::size_t node) {
        // Lossy transmission: counted as sent, never received. Guarded so a
        // loss-free run draws no randomness here.
        if (loss_ > 0.0 && rng_.bernoulli(loss_)) return false;
        table.in_slot(static_cast<std::uint32_t>(node)).messages_processed += 1;
        return true;
      },
      [&](std::size_t node, std::size_t depth) {
        ++reached;
        if (holds_in_[node] == epoch) {
          if (results == 0) first_result_depth = depth;
          ++results;
        }
      });

  QueryOutcome outcome;
  outcome.satisfied = results >= config_.system().num_desired_results;
  // first_result_depth is 0 when the origin's own library matched; an
  // unsatisfied query waited out the full TTL depth.
  outcome.response_time =
      outcome.satisfied
          ? static_cast<double>(first_result_depth) * gnutella::kHopDelay
          : static_cast<double>(ttl) * gnutella::kHopDelay;

  ledger_.record(outcome.satisfied, reached, outcome.response_time);
  if (!measuring_) return outcome;
  stats_.messages += messages;
  stats_.peers_reached += reached;
  return outcome;
}

void FloodBackend::start_query(Rng& rng, sim::Time issued) {
  PeerId origin = peers_.uniform_alive(rng);
  QueryOutcome outcome = run_query(origin, content_.draw_query(rng));
  if (observer_ != nullptr) {
    // The flood runs synchronously; the query's latency is its controller
    // queueing delay plus the modeled hop time.
    observer_->on_query_complete(
        (simulator_.now() - issued) + outcome.response_time,
        outcome.satisfied);
  }
}

gnutella::DynamicResults FloodBackend::results() const {
  // Canonical order, as GuessBackend's: peers that died during measurement
  // in death order, then live peers in alive-list order.
  gnutella::DynamicResults out = stats_;
  for (std::uint64_t load : dead_loads_) {
    out.peer_loads.add(static_cast<double>(load));
  }
  const SlotTable<PeerState>& table = peers_.table();
  for (PeerId id : table.alive_ids()) {
    out.peer_loads.add(static_cast<double>(table.find(id)->messages_processed));
  }
  return out;
}

SearchResults FloodBackend::collect() {
  gnutella::DynamicResults stats = results();
  SearchResults out;
  out.backend = name();
  out.network_size = config_.system().network_size;
  ledger_.collect(out, live_peers());
  // Flooding's "messages" are the forward transmissions, duplicates
  // included (§3 amplification) — the unified query_messages.
  out.query_messages = stats.messages;
  out.maintenance_messages = 2 * stats.repairs;  // connect handshakes
  out.query_bytes = stats.messages * (kWire.header + kWire.probe_payload);
  out.maintenance_bytes = out.maintenance_messages * kWire.header;
  out.extra = std::move(stats);
  return out;
}

double FloodBackend::mean_degree() const {
  if (live_peers() == 0) return 0.0;
  double total = 0.0;
  for (PeerId id : peers_.table().alive_ids()) {
    total += static_cast<double>(links_.degree(peers_.table().slot_of(id)));
  }
  return total / static_cast<double>(live_peers());
}

std::size_t FloodBackend::max_degree_seen() const {
  std::size_t best = 0;
  for (PeerId id : peers_.table().alive_ids()) {
    best = std::max(best, links_.degree(peers_.table().slot_of(id)));
  }
  return best;
}

std::size_t FloodBackend::largest_component() const {
  std::vector<char> alive(links_.nodes(), 0);
  const SlotTable<PeerState>& table = peers_.table();
  for (PeerId id : table.alive_ids()) alive[table.slot_of(id)] = 1;
  return links_.largest_component(alive);
}

std::unique_ptr<SearchBackend> make_flood_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<FloodBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
