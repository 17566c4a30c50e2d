#include "onehop/one_hop_dht.h"

#include <limits>
#include <vector>

#include "common/check.h"

namespace guess::onehop {

double OneHopResults::one_hop_fraction() const {
  return lookups == 0 ? 0.0
                      : static_cast<double>(one_hop) /
                            static_cast<double>(lookups);
}

double OneHopResults::mean_probes() const {
  return probes_per_lookup.mean();
}

double OneHopResults::maintenance_msgs_per_peer_per_sec(
    double measure_seconds) const {
  if (measure_seconds <= 0.0) return 0.0;
  // Every membership event is delivered to every peer once; per peer that
  // is simply the event rate.
  return static_cast<double>(membership_events) / measure_seconds;
}

OneHopDht::OneHopDht(OneHopParams params, sim::Simulator& simulator, Rng rng)
    : params_(params), simulator_(simulator), rng_(std::move(rng)) {
  GUESS_CHECK(params_.network_size >= 2);
  GUESS_CHECK(params_.dissemination_delay >= 0.0);
  GUESS_CHECK(params_.loss >= 0.0 && params_.loss <= 1.0);
  churn_ = std::make_unique<churn::ChurnManager>(
      simulator_, churn::LifetimeDistribution(params_.lifespan_multiplier),
      rng_.split(),
      [this](churn::PeerId position) { on_peer_death(position); });
}

OneHopDht::~OneHopDht() = default;

void OneHopDht::initialize() {
  GUESS_CHECK_MSG(ring_.empty(), "initialize() called twice");
  for (std::size_t i = 0; i < params_.network_size; ++i) {
    spawn_peer(/*initial=*/true);
  }
  // Initial views are synchronized.
  view_ = ring_;
  if (params_.enable_lookups) schedule_next_lookup();
}

void OneHopDht::spawn_peer(bool initial) {
  // 64-bit random ring positions: collisions are absent in practice, and
  // positions are never reused, so a stale view entry is unambiguous.
  Position position = 0;
  do {
    position = static_cast<Position>(rng_.uniform_int(
        0, std::numeric_limits<std::int64_t>::max()));
  } while (ring_.contains(position));
  std::uint64_t node = next_node_id_++;
  ring_.emplace(position, node);
  if (initial) {
    churn_->register_peer_scaled(position, std::max(1e-6, rng_.uniform()));
  } else {
    churn_->register_peer(position);
    if (measuring_) ++results_.membership_events;
    // The join reaches everyone after the dissemination delay.
    simulator_.after(params_.dissemination_delay,
                     [this, position, node]() {
                       view_.emplace(position, node);
                     });
  }
}

void OneHopDht::on_peer_death(Position position) {
  // Constant population, like the GUESS simulations.
  remove_peer(position, /*respawn=*/true);
}

void OneHopDht::remove_peer(Position position, bool respawn) {
  ring_.erase(position);
  if (measuring_) {
    ++results_.deaths;
    ++results_.membership_events;
  }
  simulator_.after(params_.dissemination_delay,
                   [this, position]() { view_.erase(position); });
  if (respawn) spawn_peer(/*initial=*/false);
}

void OneHopDht::mass_kill(double fraction) {
  GUESS_CHECK(fraction >= 0.0 && fraction <= 1.0);
  auto count = static_cast<std::size_t>(
      fraction * static_cast<double>(ring_.size()));
  // Keep at least two peers so the ring stays meaningful.
  if (ring_.size() < count + 2) {
    count = ring_.size() > 2 ? ring_.size() - 2 : 0;
  }
  std::vector<Position> positions;
  positions.reserve(ring_.size());
  for (const auto& [position, node] : ring_) {
    (void)node;
    positions.push_back(position);
  }
  std::vector<std::size_t> picks =
      rng_.sample_indices(positions.size(), count);
  for (std::size_t i : picks) {
    Position victim = positions[i];
    churn_->deschedule(victim);
    remove_peer(victim, /*respawn=*/false);
  }
}

void OneHopDht::mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(/*initial=*/false);
}

OneHopDht::Position OneHopDht::owner_of(
    const std::map<Position, std::uint64_t>& ring, Position key) {
  GUESS_CHECK(!ring.empty());
  auto it = ring.lower_bound(key);
  if (it == ring.end()) it = ring.begin();  // wrap around the ring
  return it->first;
}

void OneHopDht::schedule_next_lookup() {
  // Poisson lookups across the population.
  double rate = params_.lookup_rate *
                static_cast<double>(params_.network_size);
  simulator_.after(rng_.exponential(rate), [this]() {
    lookup_random_key();
    schedule_next_lookup();
  });
}

bool OneHopDht::lookup_random_key() {
  if (view_.empty() || ring_.empty()) return false;
  auto key = static_cast<Position>(
      rng_.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
  Position true_owner = owner_of(ring_, key);

  std::uint64_t timeouts = 0;
  Position believed = owner_of(view_, key);
  // Walk the believed successor list past departed peers — and, under loss,
  // past probes that never came back. Bounded by the view size (in practice
  // a handful of steps at realistic churn); a walk that never gets an answer
  // (a view all stale, or total loss) fails the lookup. The loss guard
  // short-circuits, so a loss-free run draws no randomness here (bitwise
  // legacy behavior).
  bool answered = false;
  for (std::size_t steps = 0;; ++steps) {
    answered = ring_.contains(believed) &&
               !(params_.loss > 0.0 && rng_.bernoulli(params_.loss));
    if (answered || steps == view_.size()) break;
    ++timeouts;
    auto it = view_.upper_bound(believed);
    if (it == view_.end()) it = view_.begin();
    believed = it->first;
  }
  if (!answered) return false;

  bool direct = believed == true_owner;
  std::uint64_t probes = timeouts + 1 + (direct ? 0 : 1);
  if (!measuring_) return true;
  ++results_.lookups;
  if (direct && timeouts == 0) ++results_.one_hop;
  if (!direct) ++results_.corrective_hops;
  results_.timeouts += timeouts;
  results_.probes_per_lookup.add(static_cast<double>(probes));
  results_.lookup_probes.add(static_cast<double>(probes));
  return true;
}

void OneHopDht::begin_measurement() { measuring_ = true; }

}  // namespace guess::onehop
