#include "gnutella/dynamic_overlay.h"

#include <algorithm>

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

DynamicOverlay::DynamicOverlay(DynamicParams params,
                               sim::Simulator& simulator, Rng rng)
    : params_(params),
      simulator_(simulator),
      rng_(std::move(rng)),
      content_(params.content),
      query_stream_(params.query_rate),
      links_(params.network_size) {
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
  GUESS_CHECK_MSG(next_id_ == 0, "initialize() called twice");
  table_.reserve(params_.network_size);
  for (std::size_t i = 0; i < params_.network_size; ++i) {
    spawn_peer(/*initial=*/true);
  }
  // Wire the initial overlay after all peers exist.
  for (PeerId id : table_.alive_ids()) {
    std::uint32_t slot = table_.slot_of(id);
    if (links_.degree(slot) < kTargetDegree) {
      connect_to_random(slot, kTargetDegree - links_.degree(slot));
    }
  }
}

DynamicOverlay::PeerId DynamicOverlay::spawn_peer(bool initial) {
  PeerId id = next_id_++;
  table_.create(id, content_.sample_peer_library(rng_));
  links_.ensure_nodes(table_.slot_count());
  if (initial) {
    churn_->register_peer_scaled(id, std::max(1e-6, rng_.uniform()));
  } else {
    churn_->register_peer(id);
    // A joining peer opens its connections right away (§3.2: joining is
    // simple — only the new neighbors update state).
    connect_to_random(table_.slot_of(id), kTargetDegree);
  }
  schedule_next_burst(id);
  return id;
}

void DynamicOverlay::on_peer_death(PeerId id) {
  remove_peer(id, /*respawn=*/true);
}

void DynamicOverlay::remove_peer(PeerId id, bool respawn) {
  std::uint32_t slot = table_.slot_of(id);
  PeerState& peer = table_.in_slot(slot);
  peer.burst_timer.cancel();
  if (measuring_) dead_loads_.push_back(peer.messages_processed);
  // Neighbors see the connection drop and repair immediately (§3.2), in
  // the order the connections stood before the removal.
  std::vector<std::size_t> neighbors = links_.neighbors(slot);
  for (std::size_t other : neighbors) links_.remove_edge(slot, other);
  table_.destroy(id);
  if (measuring_) ++results_.deaths;

  for (std::size_t other : neighbors) {
    if (links_.degree(other) < kTargetDegree) {
      connect_to_random(static_cast<std::uint32_t>(other), 1);
      if (measuring_) ++results_.repairs;
    }
  }
  if (respawn) spawn_peer(/*initial=*/false);
}

void DynamicOverlay::mass_kill(double fraction) {
  for (PeerId id : table_.sample_alive(fraction, rng_)) {
    churn_->deschedule(id);
    remove_peer(id, /*respawn=*/false);
  }
}

void DynamicOverlay::mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(/*initial=*/false);
}

DynamicOverlay::PeerId DynamicOverlay::random_alive(PeerId exclude) {
  const std::vector<PeerId>& alive = table_.alive_ids();
  for (;;) {
    PeerId id = alive[rng_.index(alive.size())];
    if (id != exclude) return id;
  }
}

bool DynamicOverlay::add_link(std::uint32_t a, std::uint32_t b) {
  if (links_.degree(a) >= kMaxDegree || links_.degree(b) >= kMaxDegree) {
    return false;
  }
  return links_.add_edge(a, b);
}

void DynamicOverlay::connect_to_random(std::uint32_t slot,
                                       std::size_t wanted) {
  PeerId self = table_.in_slot(slot).id;
  std::size_t attempts = 0;
  std::size_t added = 0;
  // Bounded retries: the overlay may be degree-saturated.
  while (added < wanted && attempts < wanted * 20 && table_.size() > 1) {
    ++attempts;
    if (add_link(slot, table_.slot_of(random_alive(self)))) ++added;
  }
}

void DynamicOverlay::schedule_next_burst(PeerId id) {
  if (!params_.enable_queries) return;
  table_.find(id)->burst_timer =
      simulator_.after(query_stream_.next_burst_gap(rng_), [this, id]() {
        if (!table_.alive(id)) return;
        std::size_t burst = query_stream_.next_burst_size(rng_);
        for (std::size_t i = 0; i < burst; ++i) {
          run_query(id, content_.draw_query(rng_));
        }
        schedule_next_burst(id);
      });
}

FloodQueryOutcome DynamicOverlay::run_query(PeerId origin,
                                            content::FileId file) {
  // Synchronous flood: messages are counted per transmission, duplicates
  // included (the §3 amplification); response time is the hop depth of the
  // first result times the per-hop delay. A transmission's loss draw and
  // the receiver's load come before the duplicate check.
  std::uint64_t reached = 0;
  std::uint32_t results = 0;
  std::size_t first_result_depth = 0;
  std::uint32_t source = table_.slot_of(origin);
  table_.in_slot(source).messages_processed += 1;
  std::uint64_t messages = flood(
      links_, source, params_.ttl, flood_scratch_,
      [this](std::size_t node) {
        // Lossy transmission: counted as sent, never received. Guarded so a
        // loss-free run draws no randomness here.
        if (params_.loss > 0.0 && rng_.bernoulli(params_.loss)) return false;
        table_.in_slot(static_cast<std::uint32_t>(node)).messages_processed +=
            1;
        return true;
      },
      [&](std::size_t node, std::size_t depth) {
        ++reached;
        if (file != content::kNonexistentFile &&
            table_.in_slot(static_cast<std::uint32_t>(node))
                .library.contains(file)) {
          if (results == 0) first_result_depth = depth;
          ++results;
        }
      });

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
  GUESS_CHECK_MSG(table_.alive(origin), "submit_query from a dead peer");
  return run_query(origin, file);
}

void DynamicOverlay::begin_measurement() { measuring_ = true; }

DynamicResults DynamicOverlay::results() const {
  // Canonical order, as GuessNetwork's: peers that died during measurement
  // in death order, then live peers in alive-list order.
  DynamicResults out = results_;
  for (std::uint64_t load : dead_loads_) {
    out.peer_loads.add(static_cast<double>(load));
  }
  for (PeerId id : table_.alive_ids()) {
    out.peer_loads.add(
        static_cast<double>(table_.find(id)->messages_processed));
  }
  return out;
}

std::size_t DynamicOverlay::degree(std::uint64_t peer) const {
  GUESS_CHECK(table_.alive(peer));
  return links_.degree(table_.slot_of(peer));
}

double DynamicOverlay::mean_degree() const {
  if (table_.size() == 0) return 0.0;
  double total = 0.0;
  for (PeerId id : table_.alive_ids()) {
    total += static_cast<double>(links_.degree(table_.slot_of(id)));
  }
  return total / static_cast<double>(table_.size());
}

std::size_t DynamicOverlay::max_degree_seen() const {
  std::size_t best = 0;
  for (PeerId id : table_.alive_ids()) {
    best = std::max(best, links_.degree(table_.slot_of(id)));
  }
  return best;
}

std::size_t DynamicOverlay::largest_component() const {
  std::vector<char> alive(links_.nodes(), 0);
  for (PeerId id : table_.alive_ids()) alive[table_.slot_of(id)] = 1;
  return links_.largest_component(alive);
}

}  // namespace guess::gnutella
