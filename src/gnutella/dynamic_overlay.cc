#include "gnutella/dynamic_overlay.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/check.h"

namespace guess::gnutella {

double DynamicResults::unsatisfied_rate() const {
  if (queries_completed == 0) return 0.0;
  return 1.0 - static_cast<double>(queries_satisfied) /
                   static_cast<double>(queries_completed);
}

double DynamicResults::messages_per_query() const {
  return queries_completed == 0
             ? 0.0
             : static_cast<double>(messages) /
                   static_cast<double>(queries_completed);
}

double DynamicResults::reach_per_query() const {
  return queries_completed == 0
             ? 0.0
             : static_cast<double>(peers_reached) /
                   static_cast<double>(queries_completed);
}

struct DynamicOverlay::PeerState {
  PeerId id = 0;
  content::Library library;
  std::vector<PeerId> neighbors;
  std::uint64_t messages_processed = 0;
  sim::EventHandle burst_timer;

  bool connected_to(PeerId other) const {
    return std::find(neighbors.begin(), neighbors.end(), other) !=
           neighbors.end();
  }
};

DynamicOverlay::DynamicOverlay(DynamicParams params,
                               sim::Simulator& simulator, Rng rng)
    : params_(params),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(params.content),
      query_stream_(params.query_rate) {
  // Smaller populations than kTargetDegree + 1 simply leave peers below
  // their target degree: connect_to_random bounds its attempts.
  GUESS_CHECK(params_.network_size >= 2);
  GUESS_CHECK(params_.loss >= 0.0 && params_.loss <= 1.0);
  churn_ = std::make_unique<churn::ChurnManager>(
      simulator_, churn::LifetimeDistribution(params_.lifespan_multiplier),
      rng_.split(), [this](PeerId id) { on_peer_death(id); });
}

DynamicOverlay::~DynamicOverlay() = default;

void DynamicOverlay::initialize() {
  GUESS_CHECK_MSG(peers_.empty(), "initialize() called twice");
  for (std::size_t i = 0; i < params_.network_size; ++i) {
    spawn_peer(/*initial=*/true);
  }
  // Wire the initial overlay after all peers exist.
  for (PeerId id : alive_ids_) {
    PeerState& peer = *peers_.at(id);
    if (peer.neighbors.size() < kTargetDegree) {
      connect_to_random(peer,
                        kTargetDegree - peer.neighbors.size());
    }
  }
}

DynamicOverlay::PeerId DynamicOverlay::spawn_peer(bool initial) {
  PeerId id = next_id_++;
  auto peer = std::make_unique<PeerState>();
  peer->id = id;
  peer->library = content_.sample_peer_library(rng_);
  PeerState& ref = *peer;
  peers_.emplace(id, std::move(peer));
  alive_index_.emplace(id, alive_ids_.size());
  alive_ids_.push_back(id);
  if (initial) {
    churn_->register_peer_scaled(id, std::max(1e-6, rng_.uniform()));
  } else {
    churn_->register_peer(id);
    // A joining peer opens its connections right away (§3.2: joining is
    // simple — only the new neighbors update state).
    connect_to_random(ref, kTargetDegree);
  }
  schedule_next_burst(ref);
  return id;
}

void DynamicOverlay::on_peer_death(PeerId id) {
  remove_peer(id, /*respawn=*/true);
}

void DynamicOverlay::remove_peer(PeerId id, bool respawn) {
  PeerState* peer = peers_.at(id).get();
  peer->burst_timer.cancel();
  dead_peer_loads_.emplace(id, peer->messages_processed);
  // Neighbors see the connection drop and repair immediately (§3.2).
  std::vector<PeerId> neighbors = peer->neighbors;
  for (PeerId other : neighbors) remove_link(id, other);

  std::size_t pos = alive_index_.at(id);
  alive_index_.erase(id);
  if (pos != alive_ids_.size() - 1) {
    alive_ids_[pos] = alive_ids_.back();
    alive_index_[alive_ids_[pos]] = pos;
  }
  alive_ids_.pop_back();
  peers_.erase(id);
  if (measuring_) ++results_.deaths;

  for (PeerId other : neighbors) {
    auto it = peers_.find(other);
    if (it == peers_.end()) continue;
    if (it->second->neighbors.size() < kTargetDegree) {
      connect_to_random(*it->second, 1);
      if (measuring_) ++results_.repairs;
    }
  }
  if (respawn) spawn_peer(/*initial=*/false);
}

void DynamicOverlay::mass_kill(double fraction) {
  GUESS_CHECK(fraction >= 0.0 && fraction <= 1.0);
  auto count =
      static_cast<std::size_t>(fraction *
                               static_cast<double>(alive_ids_.size()));
  // Keep at least two peers so repair's random-neighbor draws terminate.
  if (alive_ids_.size() < count + 2) {
    count = alive_ids_.size() > 2 ? alive_ids_.size() - 2 : 0;
  }
  std::vector<std::size_t> picks =
      rng_.sample_indices(alive_ids_.size(), count);
  std::vector<PeerId> victims;
  victims.reserve(picks.size());
  for (std::size_t i : picks) victims.push_back(alive_ids_[i]);
  for (PeerId id : victims) {
    churn_->deschedule(id);
    remove_peer(id, /*respawn=*/false);
  }
}

void DynamicOverlay::mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(/*initial=*/false);
}

std::uint64_t DynamicOverlay::random_alive(PeerId exclude) {
  for (;;) {
    PeerId id = alive_ids_[rng_.index(alive_ids_.size())];
    if (id != exclude) return id;
  }
}

bool DynamicOverlay::add_link(PeerId a, PeerId b) {
  if (a == b) return false;
  PeerState& pa = *peers_.at(a);
  PeerState& pb = *peers_.at(b);
  if (pa.connected_to(b)) return false;
  if (pa.neighbors.size() >= kMaxDegree ||
      pb.neighbors.size() >= kMaxDegree) {
    return false;
  }
  pa.neighbors.push_back(b);
  pb.neighbors.push_back(a);
  return true;
}

void DynamicOverlay::remove_link(PeerId a, PeerId b) {
  auto drop = [](PeerState& peer, PeerId other) {
    auto it = std::find(peer.neighbors.begin(), peer.neighbors.end(), other);
    if (it != peer.neighbors.end()) {
      *it = peer.neighbors.back();
      peer.neighbors.pop_back();
    }
  };
  auto ita = peers_.find(a);
  auto itb = peers_.find(b);
  if (ita != peers_.end()) drop(*ita->second, b);
  if (itb != peers_.end()) drop(*itb->second, a);
}

void DynamicOverlay::connect_to_random(PeerState& peer, std::size_t wanted) {
  std::size_t attempts = 0;
  std::size_t added = 0;
  // Bounded retries: the overlay may be degree-saturated.
  while (added < wanted && attempts < wanted * 20 &&
         alive_ids_.size() > 1) {
    ++attempts;
    if (add_link(peer.id, random_alive(peer.id))) ++added;
  }
}

void DynamicOverlay::schedule_next_burst(PeerState& peer) {
  if (!params_.enable_queries) return;
  PeerId id = peer.id;
  peer.burst_timer =
      simulator_.after(query_stream_.next_burst_gap(rng_), [this, id]() {
        auto it = peers_.find(id);
        if (it == peers_.end()) return;
        std::size_t burst = query_stream_.next_burst_size(rng_);
        for (std::size_t i = 0; i < burst; ++i) {
          run_query(id, content_.draw_query(rng_));
        }
        schedule_next_burst(*it->second);
      });
}

FloodQueryOutcome DynamicOverlay::run_query(PeerId origin,
                                            content::FileId file) {
  // Synchronous BFS flood: messages are counted per transmission,
  // duplicates included (the §3 amplification); response time is the hop
  // depth of the first result times the per-hop delay.
  std::uint64_t messages = 0;
  std::uint64_t reached = 1;
  std::uint32_t results = 0;
  std::size_t first_result_depth = 0;

  std::unordered_set<PeerId> seen{origin};
  std::deque<std::pair<PeerId, std::size_t>> frontier{{origin, 0}};
  PeerState& source = *peers_.at(origin);
  source.messages_processed += 1;
  if (file != content::kNonexistentFile && source.library.contains(file)) {
    ++results;
  }
  while (!frontier.empty()) {
    auto [node, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= params_.ttl) continue;
    for (PeerId next : peers_.at(node)->neighbors) {
      ++messages;
      // Lossy transmission: counted as sent, never received. Guarded so a
      // loss-free run draws no randomness here (bitwise legacy behavior).
      if (params_.loss > 0.0 && rng_.bernoulli(params_.loss)) continue;
      auto it = peers_.find(next);
      GUESS_CHECK_MSG(it != peers_.end(), "edge to dead peer");
      it->second->messages_processed += 1;
      if (!seen.insert(next).second) continue;
      ++reached;
      if (file != content::kNonexistentFile &&
          it->second->library.contains(file)) {
        if (results == 0) first_result_depth = depth + 1;
        ++results;
      }
      frontier.emplace_back(next, depth + 1);
    }
  }

  FloodQueryOutcome outcome;
  outcome.satisfied = results >= params_.num_desired_results;
  // first_result_depth is 0 when the origin's own library matched; an
  // unsatisfied query waited out the full TTL depth.
  outcome.response_time =
      outcome.satisfied
          ? static_cast<double>(first_result_depth) * kHopDelay
          : static_cast<double>(params_.ttl) * kHopDelay;

  if (!measuring_) return outcome;
  ++results_.queries_completed;
  results_.messages += messages;
  results_.peers_reached += reached;
  results_.query_reach.add(static_cast<double>(reached));
  if (outcome.satisfied) {
    ++results_.queries_satisfied;
    results_.response_time.add(outcome.response_time);
  }
  return outcome;
}

FloodQueryOutcome DynamicOverlay::submit_query(std::uint64_t origin,
                                               content::FileId file) {
  GUESS_CHECK_MSG(peers_.contains(origin), "submit_query from a dead peer");
  return run_query(origin, file);
}

void DynamicOverlay::begin_measurement() {
  measuring_ = true;
  dead_peer_loads_.clear();
}

DynamicResults DynamicOverlay::results() const {
  DynamicResults out = results_;
  for (const auto& [id, load] : dead_peer_loads_) {
    (void)id;
    out.peer_loads.add(static_cast<double>(load));
  }
  for (const auto& [id, peer] : peers_) {
    (void)id;
    out.peer_loads.add(static_cast<double>(peer->messages_processed));
  }
  return out;
}

std::size_t DynamicOverlay::degree(std::uint64_t peer) const {
  auto it = peers_.find(peer);
  GUESS_CHECK(it != peers_.end());
  return it->second->neighbors.size();
}

double DynamicOverlay::mean_degree() const {
  if (peers_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [id, peer] : peers_) {
    (void)id;
    total += static_cast<double>(peer->neighbors.size());
  }
  return total / static_cast<double>(peers_.size());
}

std::size_t DynamicOverlay::max_degree_seen() const {
  std::size_t best = 0;
  for (const auto& [id, peer] : peers_) {
    (void)id;
    best = std::max(best, peer->neighbors.size());
  }
  return best;
}

std::size_t DynamicOverlay::largest_component() const {
  if (alive_ids_.empty()) return 0;
  std::unordered_set<PeerId> visited;
  std::size_t best = 0;
  for (PeerId start : alive_ids_) {
    if (visited.contains(start)) continue;
    std::size_t count = 0;
    std::vector<PeerId> stack{start};
    visited.insert(start);
    while (!stack.empty()) {
      PeerId node = stack.back();
      stack.pop_back();
      ++count;
      for (PeerId next : peers_.at(node)->neighbors) {
        if (visited.insert(next).second) stack.push_back(next);
      }
    }
    best = std::max(best, count);
  }
  return best;
}

}  // namespace guess::gnutella
