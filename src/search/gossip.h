// Gossip search — push/pull rumor-mongering of content advertisements
// (DESIGN.md §12.4), a SearchBackend built from SimulationConfig.
//
// Each peer keeps a bounded local knowledge cache of content ads
// (file, provider, expiry, residual push budget). Every gossip_interval it
// exchanges up to ads_per_exchange ads with `fanout` random partners, push
// and pull legs both: fresh self-ads for its own library plus relayed
// rumors whose push budget has not drained (push-with-counter rumor
// mongering). Queries resolve from the origin's own library, then from its
// knowledge cache — expired and dead-provider entries are discarded on
// access and tallied as staleness — and only then fall back to directly
// probing random live peers, GUESS-style.
//
// The point on the paper's map: like GUESS, no forwarding and per-query
// cost control; unlike GUESS, the maintenance traffic carries *content*
// state rather than liveness state, so a warm network answers most queries
// in zero or one probe at the price of bounded staleness.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "churn/churn_manager.h"
#include "common/rng.h"
#include "common/slot_table.h"
#include "common/stats.h"
#include "content/content_model.h"
#include "content/query_stream.h"
#include "search/backend.h"
#include "sim/simulator.h"

namespace guess::search {

/// Gossip's per-backend extras (the extension-slot payload:
/// `results.extra_as<GossipStats>()`). Counters cover the measurement
/// window only.
struct GossipStats {
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_satisfied = 0;
  std::uint64_t local_hits = 0;      ///< answered from the origin's library
  std::uint64_t knowledge_hits = 0;  ///< answered from the knowledge cache
  std::uint64_t fallback_queries = 0;///< had to probe at random
  std::uint64_t probes = 0;          ///< direct probes incl. knowledge fetch
  std::uint64_t probe_replies = 0;   ///< probes a live peer answered
  std::uint64_t stale_ads_expired = 0;  ///< TTL'd out on access
  std::uint64_t stale_ads_dead = 0;     ///< provider departed before use
  std::uint64_t gossip_exchanges = 0;   ///< partner meetings (2 legs each)
  std::uint64_t gossip_legs = 0;        ///< messages sent (push + pull legs)
  std::uint64_t ads_sent = 0;           ///< ad entries across all legs
  std::uint64_t deaths = 0;
  RunningStat knowledge_size;  ///< per-peer cache occupancy at collect()
  RunningStat response_time;   ///< satisfied queries, seconds
  SampleSet query_probes;      ///< per-query probes, one sample per query
};

/// The concrete backend, public for the focused tests
/// (tests/search/gossip_test.cc drives TTL expiry and fan-out directly).
class GossipBackend final : public SearchBackend {
 public:
  GossipBackend(const SimulationConfig& config, sim::Simulator& simulator,
                Rng rng);
  ~GossipBackend() override;

  GossipBackend(const GossipBackend&) = delete;
  GossipBackend& operator=(const GossipBackend&) = delete;

  const char* name() const override { return "gossip"; }
  void bootstrap() override;
  void begin_measurement() override;
  void start_query(Rng& rng, sim::Time issued) override;
  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }
  SearchResults collect() override;
  std::size_t live_peers() const override { return table_.size(); }

  void begin_intervals(sim::Duration width) override;
  void sample_interval() override;

  // faults::FaultHost — kill/join/partition/degrade supported;
  // poison/attack reject (gossip has no adversary model yet).
  void fault_mass_kill(double fraction) override;
  void fault_mass_join(std::size_t count) override;
  void fault_set_partition(int ways) override;
  void fault_clear_partition() override;
  void fault_set_degradation(double extra_loss,
                             double latency_factor) override;
  void fault_clear_degradation() override;

  // --- introspection (tests) ---
  const std::vector<std::uint64_t>& alive_ids() const {
    return table_.alive_ids();
  }
  const content::ContentModel& content() const { return content_; }
  /// Knowledge-cache occupancy of a live peer (CHECKs liveness).
  std::size_t knowledge_entries(std::uint64_t id) const;
  /// True iff `id` holds a cached (not necessarily fresh) ad for `file`.
  bool knows(std::uint64_t id, content::FileId file) const;
  /// Run one gossip round for `id` immediately (tests drive rounds by hand).
  void gossip_now(std::uint64_t id);
  /// Resolve one query from `origin` for `file` through the normal path.
  void submit_query(std::uint64_t origin, content::FileId file);

 private:
  struct Ad {
    content::FileId file = 0;
    std::uint64_t provider = 0;
    sim::Time expires = 0.0;
    std::uint32_t residual = 0;  ///< remaining relays (push-with-counter)
  };

  struct PeerSlot {
    std::uint64_t id = 0;
    content::Library library;
    int partition_group = -1;
    std::vector<Ad> knowledge;  ///< capacity reserved at birth, never grows
    std::size_t rumor_cursor = 0;  ///< rotating relay scan position
  };

  std::uint64_t spawn_peer(bool initial);
  void on_peer_death(std::uint64_t id);
  /// The live peer `id` (CHECKs liveness).
  PeerSlot& live(std::uint64_t id);
  const PeerSlot& live(std::uint64_t id) const;

  void schedule_next_gossip(std::uint64_t id, sim::Duration delay);
  void schedule_next_burst(std::uint64_t id);
  void gossip_round(std::uint64_t id);
  /// One directed leg: `from` pushes up to ads_per_exchange ads to `to`.
  /// Returns the number of ad entries sent (the leg is always billed; the
  /// receiver integrates only when the leg survives loss).
  std::size_t send_ads(PeerSlot& from, PeerSlot& to, bool delivered);
  void integrate_ad(PeerSlot& peer, const Ad& ad);
  struct QueryOutcome {
    bool satisfied = false;
    double response_time = 0.0;  ///< modeled probe pacing time
  };
  QueryOutcome run_query(std::uint64_t origin, content::FileId file);
  bool severed(const PeerSlot& a, const PeerSlot& b) const;
  double leg_loss() const;
  /// The interval row open since interval_start_, closed at now.
  IntervalSample open_interval() const;

  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;
  content::ContentModel content_;
  content::QueryStream query_stream_;
  std::unique_ptr<churn::ChurnManager> churn_;

  std::uint64_t next_id_ = 0;
  SlotTable<PeerSlot> table_;

  bool measuring_ = false;
  GossipStats stats_;
  std::uint64_t deaths_baseline_ = 0;
  QueryObserver* observer_ = nullptr;

  // Fault state.
  int partition_ways_ = 0;  ///< 0 = no partition
  double degrade_extra_loss_ = 0.0;
  double degrade_latency_factor_ = 1.0;

  // Interval metrics (always on once begun; span warmup like GUESS's).
  sim::Duration interval_width_ = 0.0;
  sim::Time interval_start_ = 0.0;
  std::uint64_t interval_completed_ = 0;
  std::uint64_t interval_satisfied_ = 0;
  std::uint64_t interval_probes_ = 0;
  IntervalSeries interval_series_;

  // Steady-state scratch (reserved in bootstrap; hot paths never allocate).
  std::vector<std::size_t> probe_order_;
  std::vector<std::size_t> sample_scratch_;
};

}  // namespace guess::search
