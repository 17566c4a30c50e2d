// One-hop DHT lookups as a SearchBackend — the structured-overlay
// counterpart of non-forwarding search (the paper's reference [1],
// Gupta/Liskov/Rodrigues).
//
// The paper positions GUESS against one-hop DHTs in §1: both avoid
// forwarding, but the DHT buys its single-hop lookups with full membership
// state at every peer, maintained by disseminating every join/leave to
// everyone — and supports only search-by-identifier. This backend makes the
// contrast measurable on the same churn substrate.
//
// Model: peers sit on a key ring; the peer clockwise-closest to a key owns
// it. Every peer keeps a full routing table whose content lags reality by
// the dissemination delay D (config.backends().onehop.dissemination_delay,
// the mean time for a membership event to reach all peers). A lookup
// probes the *believed* owner directly:
//   * believed owner already departed, or the probe lost → timeout, retry
//     with the next believed successor (each retry is a wasted probe, like
//     GUESS's dead probes);
//   * believed owner is alive but a newer join actually owns the key → one
//     corrective forward hop (the "two-hop" case of [1]).
// A lookup whose walk round the whole view gets no answer is completed
// unsatisfied. Maintenance traffic is the defining cost: every membership
// event must reach all N peers, so each peer processes ~2·N/mean_lifetime
// messages per second regardless of whether it ever looks anything up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "churn/churn_manager.h"
#include "common/rng.h"
#include "common/stats.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::search {

/// One-hop's per-backend extras (`results.extra_as<OneHopResults>()`).
/// Counters cover the measurement window only.
struct OneHopResults {
  std::uint64_t lookups = 0;        ///< completed, answered or not
  std::uint64_t unanswered = 0;     ///< walked the whole view, no answer
  std::uint64_t one_hop = 0;        ///< direct hit on the true owner
  std::uint64_t corrective_hops = 0;///< believed owner alive but superseded
  std::uint64_t timeouts = 0;       ///< probes to departed or lossy owners
  RunningStat probes_per_lookup;    ///< timeouts + final probe (+ forward)
  SampleSet lookup_probes;          ///< same quantity, one sample per lookup
  std::uint64_t deaths = 0;
  std::uint64_t membership_events = 0;  ///< joins + leaves during measurement

  double one_hop_fraction() const;
  double mean_probes() const { return probes_per_lookup.mean(); }
  /// Membership-maintenance messages per peer per second: every event is
  /// disseminated to every peer ([1]'s defining overhead).
  double maintenance_msgs_per_peer_per_sec(double measure_seconds) const;
};

/// The concrete backend, public for the focused tests
/// (tests/search/onehop_backend_test.cc reads the view and the counters).
class OneHopBackend final : public SearchBackend {
 public:
  OneHopBackend(const SimulationConfig& config, sim::Simulator& simulator,
                Rng rng);
  ~OneHopBackend() override;

  OneHopBackend(const OneHopBackend&) = delete;
  OneHopBackend& operator=(const OneHopBackend&) = delete;

  const char* name() const override { return "onehop"; }
  /// Create the initial population (views start synchronized). Call once.
  void bootstrap() override;
  void begin_measurement() override { measuring_ = true; }
  /// One lookup for a uniformly random key drawn from `rng`, so open-loop
  /// arrivals leave the backend's own stream (births, kills, loss) alone.
  void start_query(Rng& rng, sim::Time issued) override;
  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }
  SearchResults collect() override;
  std::size_t live_peers() const override { return ring_.size(); }

  // faults::FaultHost — kill a uniform fraction of live peers (keeping
  // two) with no respawn, or join `count` fresh peers at once. Deaths and
  // joins disseminate through the lagged view like churn-driven ones.
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;

  // --- introspection (tests) ---
  const OneHopResults& results() const { return stats_; }
  std::size_t view_size() const { return view_.size(); }

 private:
  using Position = std::uint64_t;

  void spawn_peer(bool initial);
  void remove_peer(Position position, bool respawn);
  void schedule_next_lookup();
  /// One lookup for a key drawn from `key_rng`; true iff some probe got an
  /// answer. Loss draws stay on rng_.
  bool lookup_random_key(Rng& key_rng);
  /// Owner of `key` in a ring map (clockwise successor, wrapping).
  static Position owner_of(const std::map<Position, std::uint64_t>& ring,
                           Position key);

  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;
  /// I.i.d. per-probe loss (the lossy transport's rate; 0 on the
  /// synchronous one): a lost probe is a timeout, like one to a departed
  /// owner.
  double loss_;
  std::unique_ptr<churn::ChurnManager> churn_;

  std::uint64_t next_node_id_ = 0;
  /// Reality: position -> node incarnation id.
  std::map<Position, std::uint64_t> ring_;
  /// Everyone's (uniformly lagged) view of the ring.
  std::map<Position, std::uint64_t> view_;

  bool measuring_ = false;
  OneHopResults stats_;
  QueryObserver* observer_ = nullptr;
};

}  // namespace guess::search
