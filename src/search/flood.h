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
// Peers live in a search::Population (DESIGN.md §10), connections in a
// gnutella::Topology indexed by slot, and a query is one call to
// gnutella::flood, the BFS kernel the static §3 graphs use too. Content is
// kept per file, not per peer: each catalog file lists the ids of the peers
// holding it, and a query stamps its file's live holders before the flood,
// so a reached peer's match is one array read (DESIGN.md §12.5). The TTL is
// config.backends().flood.ttl; the degrees and the hop delay are the
// constants in gnutella/dynamic_overlay.h, beside the results struct this
// backend parks in the extension slot
// (`extra_as<gnutella::DynamicResults>()`).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "content/content_model.h"
#include "content/query_stream.h"
#include "gnutella/dynamic_overlay.h"
#include "gnutella/flood.h"
#include "gnutella/topology.h"
#include "search/backend.h"
#include "search/population.h"
#include "search/query_ledger.h"
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
  void begin_measurement() override {
    measuring_ = true;
    ledger_.begin_measurement();
  }
  void start_query(Rng& rng, sim::Time issued) override;
  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }
  SearchResults collect() override;
  std::size_t live_peers() const override { return peers_.table().size(); }
  void begin_intervals(sim::Duration width) override {
    ledger_.begin_intervals(width);
  }
  void sample_interval() override { ledger_.sample_interval(live_peers()); }

  // faults::FaultHost — kill (the population's victims, no respawn) and
  // join.
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;

  // --- introspection (tests) ---
  /// The measured counters so far, with every peer's message load.
  gnutella::DynamicResults results() const;
  std::size_t largest_component() const;
  double mean_degree() const;
  std::size_t max_degree_seen() const;
  /// Holder-list entries of live peers (the sum of their library sizes),
  /// and entries of dead peers not yet dropped from the lists.
  std::uint64_t live_holder_entries() const { return live_entries_; }
  std::uint64_t dead_holder_entries() const { return dead_entries_; }

 private:
  using PeerId = std::uint64_t;
  struct PeerState {
    PeerId id = 0;
    /// Files this peer holds: its entries in holders_.
    std::uint32_t library_size = 0;
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

  PeerId spawn_peer(Birth birth);
  void remove_peer(PeerId id, bool respawn);
  /// `slot` opens up to `wanted` connections to random live peers.
  void connect_to_random(std::uint32_t slot, std::size_t wanted);
  bool add_link(std::uint32_t a, std::uint32_t b);
  void schedule_next_burst(PeerId id);
  /// Mark the slots of `file`'s live holders with a fresh query epoch,
  /// swap-removing the dead holders met on the way.
  std::uint64_t stamp_holders(content::FileId file);
  /// Drop every dead entry from every holder list.
  void sweep_dead_holders();
  QueryOutcome run_query(PeerId origin, content::FileId file);

  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;
  content::ContentModel content_;
  content::QueryStream query_stream_;
  /// I.i.d. per-transmission loss (the lossy transport's rate; 0 on the
  /// synchronous one): a lost transmission is counted as sent but the
  /// receiver never processes or forwards it.
  double loss_;
  Population<PeerState> peers_;
  /// Open connections, indexed by table slot.
  gnutella::Topology links_;
  gnutella::FloodScratch flood_scratch_;
  /// holders_[f]: ids of the peers that hold catalog file f, appended at
  /// birth. Ids, not slots: an id is never reused, so a dead holder reads
  /// kNoSlot and is dropped, where a slot would pass to its next tenant.
  std::vector<std::vector<std::uint32_t>> holders_;
  /// A newborn's library, one bit per catalog file (all zero between
  /// births): its files go straight into holders_, no Library is built.
  std::vector<std::uint64_t> library_bits_;
  std::uint64_t live_entries_ = 0;
  /// Kept at most live_entries_ / 4 by a sweep over every list.
  std::uint64_t dead_entries_ = 0;
  /// Per slot: the last query epoch whose file the slot's peer holds.
  std::vector<std::uint64_t> holds_in_;
  std::uint64_t query_epoch_ = 0;

  bool measuring_ = false;
  QueryLedger ledger_;
  gnutella::DynamicResults stats_;
  /// Loads of peers that died during measurement, in death order.
  std::vector<std::uint64_t> dead_loads_;
  QueryObserver* observer_ = nullptr;
};

}  // namespace guess::search
