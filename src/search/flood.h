// Gnutella flooding — a live forwarding overlay as a SearchBackend: open
// bidirectional connections, churn with immediate neighbor repair, and
// TTL-flooded queries (§3 of the paper).
//
// This is the forwarding-based counterpart to GUESS, run on the same
// substrates (simulator, churn model, content model, bursty query stream)
// so the §3 comparison is quantitative on identical workloads: messages per
// query, satisfaction, response time, load skew.
//
// Modeling notes (the §3 differences the paper calls out):
//  * connections are stateful: a dying peer's neighbors notice immediately
//    and repair by connecting to a random live peer — state maintenance is
//    cheap and local, unlike GUESS's ping-based cache upkeep;
//  * queries are amplified: every transmission costs a message, duplicates
//    included, and the originator cannot adapt the extent to popularity.
//
// Peers live in the shared SlotTable (DESIGN.md §10), connections in a
// gnutella::Topology indexed by slot, and a query is one call to
// gnutella::flood, the BFS kernel the static §3 graphs use too. The TTL is
// config.backends().flood.ttl; the degrees and the hop delay are the
// constants in gnutella/dynamic_overlay.h, beside the results struct this
// backend parks in the extension slot
// (`extra_as<gnutella::DynamicResults>()`).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "churn/churn_manager.h"
#include "common/rng.h"
#include "common/slot_table.h"
#include "content/content_model.h"
#include "content/query_stream.h"
#include "gnutella/dynamic_overlay.h"
#include "gnutella/flood.h"
#include "gnutella/topology.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::search {

/// The concrete backend, public for the focused tests
/// (tests/search/flood_backend_test.cc reads degrees and components).
class FloodBackend final : public SearchBackend {
 public:
  FloodBackend(const SimulationConfig& config, sim::Simulator& simulator,
               Rng rng);
  ~FloodBackend() override;

  FloodBackend(const FloodBackend&) = delete;
  FloodBackend& operator=(const FloodBackend&) = delete;

  const char* name() const override { return "flood"; }
  /// Build the initial population and wire the overlay. Call once.
  void bootstrap() override;
  void begin_measurement() override { measuring_ = true; }
  void start_query(Rng& rng, sim::Time issued) override;
  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }
  SearchResults collect() override;
  std::size_t live_peers() const override { return table_.size(); }

  // faults::FaultHost — kill (a uniform fraction of live peers, no
  // respawn) and join; both draw from the backend's own RNG.
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;

  // --- introspection (tests) ---
  /// The measured counters so far, with every peer's message load.
  gnutella::DynamicResults results() const;
  std::size_t largest_component() const;
  double mean_degree() const;
  std::size_t max_degree_seen() const;

 private:
  using PeerId = std::uint64_t;
  struct PeerState {
    PeerId id = 0;
    content::Library library;
    std::uint64_t messages_processed = 0;
    sim::EventHandle burst_timer;
  };
  struct QueryOutcome {
    bool satisfied = false;
    /// Modeled service time: first-result hop depth × kHopDelay when
    /// satisfied, full TTL depth × kHopDelay when not (the flood ran to
    /// extinction either way; an unsatisfied querier waited out the deepest
    /// hop).
    double response_time = 0.0;
  };

  PeerId spawn_peer(bool initial);
  void remove_peer(PeerId id, bool respawn);
  /// `slot` opens up to `wanted` connections to random live peers.
  void connect_to_random(std::uint32_t slot, std::size_t wanted);
  bool add_link(std::uint32_t a, std::uint32_t b);
  void schedule_next_burst(PeerId id);
  QueryOutcome run_query(PeerId origin, content::FileId file);
  PeerId random_alive(PeerId exclude);

  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;
  content::ContentModel content_;
  content::QueryStream query_stream_;
  /// I.i.d. per-transmission loss (the lossy transport's rate; 0 on the
  /// synchronous one): a lost transmission is counted as sent but the
  /// receiver never processes or forwards it.
  double loss_;
  std::unique_ptr<churn::ChurnManager> churn_;

  PeerId next_id_ = 0;
  SlotTable<PeerState> table_;
  /// Open connections, indexed by table slot.
  gnutella::Topology links_;
  gnutella::FloodScratch flood_scratch_;

  bool measuring_ = false;
  gnutella::DynamicResults stats_;
  /// Loads of peers that died during measurement, in death order.
  std::vector<std::uint64_t> dead_loads_;
  QueryObserver* observer_ = nullptr;
};

}  // namespace guess::search
