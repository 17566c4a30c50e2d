#include "search/onehop.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "search/adapters.h"

namespace guess::search {

double OneHopResults::one_hop_fraction() const {
  return lookups == 0 ? 0.0
                      : static_cast<double>(one_hop) /
                            static_cast<double>(lookups);
}

double OneHopResults::maintenance_msgs_per_peer_per_sec(
    double measure_seconds) const {
  if (measure_seconds <= 0.0) return 0.0;
  // Every membership event is delivered to every peer once; per peer that
  // is simply the event rate.
  return static_cast<double>(membership_events) / measure_seconds;
}

OneHopBackend::OneHopBackend(const SimulationConfig& config,
                             sim::Simulator& simulator, Rng rng)
    : config_(config),
      simulator_(simulator),
      rng_(std::move(rng)),
      loss_(config.transport().kind == TransportParams::Kind::kLossy
                ? config.transport().loss
                : 0.0) {
  GUESS_CHECK(config_.system().network_size >= 2);
  GUESS_CHECK(config_.backends().onehop.dissemination_delay >= 0.0);
  GUESS_CHECK(loss_ >= 0.0 && loss_ <= 1.0);
  churn_ = std::make_unique<churn::ChurnManager>(
      simulator_,
      churn::LifetimeDistribution(config_.system().lifespan_multiplier),
      rng_.split(), [this](churn::PeerId position) {
        // Constant population, like the GUESS simulations.
        remove_peer(position, /*respawn=*/true);
      });
}

OneHopBackend::~OneHopBackend() = default;

void OneHopBackend::bootstrap() {
  GUESS_CHECK_MSG(ring_.empty(), "bootstrap() called twice");
  for (std::size_t i = 0; i < config_.system().network_size; ++i) {
    spawn_peer(/*initial=*/true);
  }
  // Initial views are synchronized.
  view_ = ring_;
  // Open-loop runs have no lookup clock; lookups arrive via start_query.
  if (!config_.open_loop()) schedule_next_lookup();
}

void OneHopBackend::spawn_peer(bool initial) {
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
    if (measuring_) ++stats_.membership_events;
    // The join reaches everyone after the dissemination delay.
    simulator_.after(config_.backends().onehop.dissemination_delay,
                     [this, position, node]() {
                       view_.emplace(position, node);
                     });
  }
}

void OneHopBackend::remove_peer(Position position, bool respawn) {
  ring_.erase(position);
  if (measuring_) {
    ++stats_.deaths;
    ++stats_.membership_events;
  }
  simulator_.after(config_.backends().onehop.dissemination_delay,
                   [this, position]() { view_.erase(position); });
  if (respawn) spawn_peer(/*initial=*/false);
}

void OneHopBackend::fault_mass_kill(double fraction) {
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

void OneHopBackend::fault_mass_join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn_peer(/*initial=*/false);
}

OneHopBackend::Position OneHopBackend::owner_of(
    const std::map<Position, std::uint64_t>& ring, Position key) {
  GUESS_CHECK(!ring.empty());
  auto it = ring.lower_bound(key);
  if (it == ring.end()) it = ring.begin();  // wrap around the ring
  return it->first;
}

void OneHopBackend::schedule_next_lookup() {
  // Poisson lookups across the population.
  double rate = config_.system().query_rate *
                static_cast<double>(config_.system().network_size);
  simulator_.after(rng_.exponential(rate), [this]() {
    lookup_random_key(rng_);
    schedule_next_lookup();
  });
}

bool OneHopBackend::lookup_random_key(Rng& key_rng) {
  std::uint64_t timeouts = 0;
  bool answered = false;
  bool direct = false;
  if (!view_.empty() && !ring_.empty()) {
    auto key = static_cast<Position>(
        key_rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
    Position true_owner = owner_of(ring_, key);
    Position believed = owner_of(view_, key);
    // Walk the believed successor list past departed peers — and, under
    // loss, past probes that never came back (in practice a handful of
    // steps at realistic churn). A walk that has probed every view entry
    // and come round to its first owner again gives up unanswered (a view
    // all stale, or total loss). The loss guard short-circuits, so a
    // loss-free run draws no randomness here.
    for (;;) {
      answered = ring_.contains(believed) &&
                 !(loss_ > 0.0 && rng_.bernoulli(loss_));
      if (answered) break;
      ++timeouts;
      if (timeouts > view_.size()) break;
      auto it = view_.upper_bound(believed);
      if (it == view_.end()) it = view_.begin();
      believed = it->first;
    }
    direct = answered && believed == true_owner;
  }
  if (!measuring_) return answered;

  // An answered lookup pays its timeouts, the final probe and any
  // corrective forward; an unanswered one, its timeouts alone.
  std::uint64_t probes = timeouts + (answered ? (direct ? 1 : 2) : 0);
  ++stats_.lookups;
  if (!answered) ++stats_.unanswered;
  if (direct && timeouts == 0) ++stats_.one_hop;
  if (answered && !direct) ++stats_.corrective_hops;
  stats_.timeouts += timeouts;
  stats_.probes_per_lookup.add(static_cast<double>(probes));
  stats_.lookup_probes.add(static_cast<double>(probes));
  return answered;
}

void OneHopBackend::start_query(Rng& rng, sim::Time issued) {
  bool answered = lookup_random_key(rng);
  if (observer_ != nullptr) {
    // Lookups resolve synchronously (probe latency is a probe count here,
    // not simulated time): the query's latency is its controller queueing
    // delay.
    observer_->on_query_complete(simulator_.now() - issued, answered);
  }
}

SearchResults OneHopBackend::collect() {
  const std::size_t n = config_.system().network_size;
  SearchResults out;
  out.backend = name();
  out.network_size = n;
  // Naming normalization: a lookup is a query, satisfied when answered
  // (exact-match lookups always resolve to the key's owner).
  out.queries_completed = stats_.lookups;
  out.queries_satisfied = stats_.lookups - stats_.unanswered;
  out.probes =
      stats_.timeouts + out.queries_satisfied + stats_.corrective_hops;
  // Timed-out probes (departed or lossy targets) never reply.
  out.query_messages = 2 * out.probes - stats_.timeouts;
  // [1]'s defining overhead: every membership event reaches every peer.
  out.maintenance_messages =
      stats_.membership_events * static_cast<std::uint64_t>(n);
  out.query_bytes =
      out.probes * (kWire.header + kWire.probe_payload) +
      (out.probes - stats_.timeouts) * (kWire.header + kWire.result_entry);
  out.maintenance_bytes =
      out.maintenance_messages * (kWire.header + kWire.membership_entry);
  out.deaths = stats_.deaths;
  out.probe_samples = stats_.lookup_probes;
  out.extra = stats_;
  return out;
}

std::unique_ptr<SearchBackend> make_onehop_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<OneHopBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
