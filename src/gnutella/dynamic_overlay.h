// A live Gnutella-style network: open bidirectional connections, churn with
// immediate neighbor repair, and TTL-flooded queries (§3 of the paper).
//
// This is the forwarding-based counterpart to guess::GuessNetwork, sharing
// the same substrates (simulator, churn model, content model, bursty query
// stream) so the §3 comparison can be made quantitatively on identical
// workloads: messages per query, satisfaction, response time, load skew.
//
// Modeling notes (the §3 differences the paper calls out):
//  * connections are stateful: a dying peer's neighbors notice immediately
//    and repair by connecting to a random live peer — state maintenance is
//    cheap and local, unlike GUESS's ping-based cache upkeep;
//  * queries are amplified: every transmission costs a message, duplicates
//    included, and the originator cannot adapt the extent to popularity.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "churn/churn_manager.h"
#include "common/rng.h"
#include "common/stats.h"
#include "content/content_model.h"
#include "content/query_stream.h"
#include "sim/simulator.h"

namespace guess::gnutella {

/// Connections each peer tries to keep open (Gnutella clients of the era
/// defaulted to 4-8).
inline constexpr std::size_t kTargetDegree = 4;
/// Hard connection cap — the §3.3 remedy against hub formation.
inline constexpr std::size_t kMaxDegree = 12;
/// One-hop forwarding latency in seconds (response time = hops × this).
inline constexpr double kHopDelay = 0.05;

struct DynamicParams {
  std::size_t network_size = 1000;
  /// Flood TTL: overlay hops a query travels.
  std::size_t ttl = 4;
  double lifespan_multiplier = 1.0;
  double query_rate = 9.26e-3;
  std::size_t num_desired_results = 1;
  content::ContentParams content;
  /// I.i.d. per-transmission loss probability (DESIGN.md §8 made available
  /// to flooding): a lost transmission is counted as sent but the receiver
  /// never processes or forwards it. 0 draws no randomness, so legacy runs
  /// are bitwise unaffected.
  double loss = 0.0;
  /// Closed-loop query clock: when false no peer schedules query bursts
  /// (open-loop mode — queries arrive only via submit_query).
  bool enable_queries = true;
};

/// What one flood query produced (submit_query's return; the open-loop
/// adapter turns this into an observer callback).
struct FloodQueryOutcome {
  bool satisfied = false;
  /// Modeled service time: first-result hop depth × kHopDelay when
  /// satisfied, full TTL depth × kHopDelay when not (the flood ran to
  /// extinction either way; an unsatisfied querier waited out the deepest
  /// hop).
  double response_time = 0.0;
};

struct DynamicResults {
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_satisfied = 0;
  std::uint64_t messages = 0;          ///< transmissions incl. duplicates
  std::uint64_t peers_reached = 0;     ///< sum over queries
  RunningStat response_time;           ///< first-result latency, satisfied
  SampleSet peer_loads;                ///< messages processed per peer
  std::uint64_t deaths = 0;
  std::uint64_t repairs = 0;           ///< connections re-established
  SampleSet query_reach;               ///< peers reached, one sample per query

  double unsatisfied_rate() const;
  double messages_per_query() const;
  double reach_per_query() const;
};

class DynamicOverlay {
 public:
  DynamicOverlay(DynamicParams params, sim::Simulator& simulator, Rng rng);
  ~DynamicOverlay();

  DynamicOverlay(const DynamicOverlay&) = delete;
  DynamicOverlay& operator=(const DynamicOverlay&) = delete;

  /// Build the initial population and wire the overlay. Call once.
  void initialize();

  /// Start counting queries/messages from now (end of warmup).
  void begin_measurement();

  /// Snapshot of the measured metrics (flushes live peers' message loads).
  DynamicResults results() const;

  /// Inject one flood query from `origin` (must be alive); runs through the
  /// normal BFS machinery. Used by the SearchBackend adapter and tests.
  FloodQueryOutcome submit_query(std::uint64_t origin, content::FileId file);

  /// Fault hooks (DESIGN.md §9): kill a uniform fraction of live peers with
  /// no respawn (the burst column's flash crowd departure), or join `count`
  /// fresh peers at once. Both draw from the overlay's own RNG.
  void mass_kill(double fraction);
  void mass_join(std::size_t count);

  const std::vector<std::uint64_t>& alive_peers() const { return alive_ids_; }
  const content::ContentModel& content() const { return content_; }

  // --- introspection ---
  std::size_t alive_count() const { return peers_.size(); }
  std::size_t degree(std::uint64_t peer) const;
  std::size_t largest_component() const;
  double mean_degree() const;
  std::size_t max_degree_seen() const;

 private:
  struct PeerState;
  using PeerId = std::uint64_t;

  PeerId spawn_peer(bool initial);
  void on_peer_death(PeerId id);
  void remove_peer(PeerId id, bool respawn);
  void connect_to_random(PeerState& peer, std::size_t wanted);
  bool add_link(PeerId a, PeerId b);
  void remove_link(PeerId a, PeerId b);
  void schedule_next_burst(PeerState& peer);
  FloodQueryOutcome run_query(PeerId origin, content::FileId file);
  std::uint64_t random_alive(PeerId exclude);

  DynamicParams params_;
  sim::Simulator& simulator_;
  Rng rng_;
  content::ContentModel content_;
  content::QueryStream query_stream_;
  std::unique_ptr<churn::ChurnManager> churn_;

  PeerId next_id_ = 0;
  std::unordered_map<PeerId, std::unique_ptr<PeerState>> peers_;
  std::vector<PeerId> alive_ids_;
  std::unordered_map<PeerId, std::size_t> alive_index_;

  bool measuring_ = false;
  DynamicResults results_;
  std::unordered_map<PeerId, std::uint64_t> dead_peer_loads_;
};

}  // namespace guess::gnutella
