// The four legacy silos as SearchBackend adapters (DESIGN.md §12.2).
//
// Each adapter's contract is bitwise equivalence: construction order, RNG
// consumption, event scheduling and collection replicate the legacy
// free-standing driver exactly, so the legacy results struct in the
// extension slot is identical to what the silo's own entry point produces
// (tests/search/backend_equivalence_test.cc asserts this field by field).
// GUESS has no other driver; the same test pins its runs to golden values.
// The unified SearchResults mapping on top is pure arithmetic over those
// structs — it can never perturb a run.
#include "search/adapters.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/overlay_graph.h"
#include "baseline/iterative_deepening.h"
#include "baseline/static_population.h"
#include "common/check.h"
#include "content/content_model.h"
#include "gnutella/dynamic_overlay.h"
#include "guess/network.h"
#include "onehop/one_hop_dht.h"

namespace guess::search {

namespace {

// --- GUESS -----------------------------------------------------------------

class GuessBackend final : public SearchBackend {
 public:
  GuessBackend(const SimulationConfig& config, sim::Simulator& simulator,
               Rng rng)
      : config_(engine_config(config)),
        simulator_(simulator),
        network_(std::make_unique<GuessNetwork>(config_, simulator,
                                                std::move(rng))) {}

  const char* name() const override { return "guess"; }

  void bootstrap() override { network_->initialize(); }

  void begin_intervals(sim::Duration width) override {
    network_->begin_interval_metrics(width);
  }
  void sample_interval() override { network_->sample_interval(); }

  void begin_measurement() override {
    // Measurement first, then an immediate cache-health sample, then the
    // periodic samplers phased to land inside the window (the order the
    // GUESS golden values pin).
    network_->begin_measurement();
    const SimulationOptions& options = config_.options();
    network_->sample_cache_health();
    simulator_.every(kHealthSampleInterval, kHealthSampleInterval,
                     [this]() { network_->sample_cache_health(); });
    if (options.sample_connectivity) {
      simulator_.every(options.connectivity_sample_interval,
                       options.connectivity_sample_interval,
                       [this]() { network_->sample_connectivity(); });
    }
  }

  void start_query(Rng& rng, sim::Time issued) override {
    const std::vector<PeerId>& alive = network_->alive_ids();
    GUESS_CHECK(!alive.empty());
    PeerId origin = alive[rng.index(alive.size())];
    network_->submit_query(origin, network_->content().draw_query(rng),
                           issued);
  }

  void configure_open_loop(QueryObserver* observer) override {
    // The engine's own query clock is already off (engine_config); every
    // query now enters via start_query and reports back to the observer.
    network_->set_query_observer(observer);
  }

  TransportCounters transport_counters() const override {
    return network_->transport().counters();
  }

  void visit_open_queries(
      const std::function<void(sim::Time)>& visit) const override {
    network_->visit_open_queries(visit);
  }

  SearchResults collect() override {
    const SimulationOptions& options = config_.options();
    if (options.sample_connectivity) network_->sample_connectivity();
    SimulationResults legacy = network_->collect_results();
    legacy.measure_duration = options.measure;
    if (options.sample_connectivity) {
      // End-of-run snapshot, including the strong component the one-way
      // pointer structure (§2.1) makes interesting.
      analysis::OverlayGraph graph;
      for (PeerId id : network_->alive_ids()) graph.add_node(id);
      network_->visit_live_edges(
          [&](PeerId from, PeerId to) { graph.add_edge(from, to); });
      legacy.final_largest_component = graph.largest_weak_component();
      legacy.final_largest_strong_component =
          graph.largest_strong_component();
    }

    SearchResults out;
    out.backend = name();
    out.network_size = legacy.network_size;
    out.queries_completed = legacy.queries_completed;
    out.queries_satisfied = legacy.queries_satisfied;
    out.probes = legacy.probes.total();
    // Request per probe; dead targets never reply.
    std::uint64_t replies = legacy.probes.good + legacy.probes.refused;
    out.query_messages = out.probes + replies;
    std::uint64_t pongs = legacy.pings_sent - legacy.pings_to_dead;
    out.maintenance_messages = legacy.pings_sent + pongs;
    std::size_t pong_size = config_.protocol().pong_size;
    out.query_bytes =
        out.probes * (kWire.header + kWire.probe_payload) +
        legacy.probes.good *
            (kWire.header + kWire.result_entry + pong_size * kWire.ad_entry) +
        legacy.probes.refused * kWire.header;
    out.maintenance_bytes =
        legacy.pings_sent * (kWire.header + kWire.probe_payload) +
        pongs * (kWire.header + pong_size * kWire.ad_entry);
    out.deaths = legacy.deaths;
    out.response_time = legacy.response_time;
    out.probe_samples = legacy.query_probes;
    out.interval_series = legacy.interval_series;
    out.extra = std::move(legacy);
    return out;
  }

  std::size_t live_peers() const override { return network_->alive_count(); }

  // FaultHost: GUESS supports every action — forward to the network.
  void fault_mass_kill(double fraction) override {
    network_->fault_mass_kill(fraction);
  }
  void fault_mass_join(std::size_t count) override {
    network_->fault_mass_join(count);
  }
  void fault_set_partition(int ways) override {
    network_->fault_set_partition(ways);
  }
  void fault_clear_partition() override { network_->fault_clear_partition(); }
  void fault_set_degradation(double extra_loss,
                             double latency_factor) override {
    network_->fault_set_degradation(extra_loss, latency_factor);
  }
  void fault_clear_degradation() override {
    network_->fault_clear_degradation();
  }
  void fault_set_poisoning(bool active) override {
    network_->fault_set_poisoning(active);
  }
  void fault_start_attack(faults::AttackKind kind, double fraction) override {
    network_->fault_start_attack(kind, fraction);
  }
  void fault_stop_attack(faults::AttackKind kind) override {
    network_->fault_stop_attack(kind);
  }

 private:
  /// Open-loop runs silence the engine's closed-loop burst clock; queries
  /// arrive only through start_query. Closed-loop configs pass through
  /// untouched (bitwise legacy equivalence).
  static SimulationConfig engine_config(SimulationConfig config) {
    if (config.open_loop()) config.enable_queries(false);
    return config;
  }

  SimulationConfig config_;
  sim::Simulator& simulator_;
  std::unique_ptr<GuessNetwork> network_;
};

// --- Gnutella flooding -----------------------------------------------------

class FloodBackend final : public SearchBackend {
 public:
  FloodBackend(const SimulationConfig& config, sim::Simulator& simulator,
               Rng rng)
      : simulator_(simulator) {
    const SystemParams& system = config.system();
    gnutella::DynamicParams params;
    params.network_size = system.network_size;
    params.ttl = config.backends().flood.ttl;
    params.lifespan_multiplier = system.lifespan_multiplier;
    params.query_rate = system.query_rate;
    params.num_desired_results = system.num_desired_results;
    params.content = system.content;
    if (config.transport().kind == TransportParams::Kind::kLossy) {
      params.loss = config.transport().loss;
    }
    params.enable_queries = !config.open_loop();
    overlay_ = std::make_unique<gnutella::DynamicOverlay>(params, simulator,
                                                          std::move(rng));
  }

  const char* name() const override { return "flood"; }
  void bootstrap() override { overlay_->initialize(); }
  void begin_measurement() override { overlay_->begin_measurement(); }

  void start_query(Rng& rng, sim::Time issued) override {
    const std::vector<std::uint64_t>& alive = overlay_->alive_peers();
    GUESS_CHECK(!alive.empty());
    std::uint64_t origin = alive[rng.index(alive.size())];
    gnutella::FloodQueryOutcome outcome = overlay_->submit_query(
        origin, overlay_->content().draw_query(rng));
    if (observer_ != nullptr) {
      // The flood runs synchronously inside submit_query; the query's
      // latency is its controller queueing delay plus the modeled hop time.
      observer_->on_query_complete(
          (simulator_.now() - issued) + outcome.response_time,
          outcome.satisfied);
    }
  }

  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }

  void fault_mass_kill(double fraction) override {
    overlay_->mass_kill(fraction);
  }
  void fault_mass_join(std::size_t count) override {
    overlay_->mass_join(count);
  }

  SearchResults collect() override {
    gnutella::DynamicResults legacy = overlay_->results();
    SearchResults out;
    out.backend = name();
    out.network_size = overlay_->alive_count();
    out.queries_completed = legacy.queries_completed;
    out.queries_satisfied = legacy.queries_satisfied;
    out.probes = legacy.peers_reached;
    // Flooding's legacy "messages" are the forward transmissions, duplicates
    // included (§3 amplification) — the unified query_messages.
    out.query_messages = legacy.messages;
    out.maintenance_messages = 2 * legacy.repairs;  // connect handshakes
    out.query_bytes =
        legacy.messages * (kWire.header + kWire.probe_payload);
    out.maintenance_bytes = out.maintenance_messages * kWire.header;
    out.deaths = legacy.deaths;
    out.response_time = legacy.response_time;
    out.probe_samples = legacy.query_reach;
    out.extra = std::move(legacy);
    return out;
  }

  std::size_t live_peers() const override { return overlay_->alive_count(); }

 private:
  sim::Simulator& simulator_;
  std::unique_ptr<gnutella::DynamicOverlay> overlay_;
  QueryObserver* observer_ = nullptr;
};

// --- Iterative deepening (static analytic baseline) ------------------------

class IterativeBackend final : public SearchBackend {
 public:
  IterativeBackend(const SimulationConfig& config, sim::Simulator& simulator,
                   Rng rng)
      : config_(config), simulator_(simulator), rng_(std::move(rng)) {}

  const char* name() const override { return "iterative"; }

  void begin_measurement() override { measuring_ = true; }

  void bootstrap() override {
    // The legacy Figure 8 driver's exact construction order: the content
    // model, then the population drawn from the backend's RNG.
    model_ = std::make_unique<content::ContentModel>(
        config_.system().content);
    population_ = std::make_unique<baseline::StaticPopulation>(
        *model_, config_.system().network_size, rng_);
  }

  void start_query(Rng& rng, sim::Time issued) override {
    // One extra Monte-Carlo query, outside the batch (extra accumulators so
    // the legacy batch result in the extension slot stays untouched).
    // Schedule rings are clamped to the current population: a mass kill can
    // shrink it below the deepest ring (no-op clamps when it hasn't).
    std::vector<std::size_t> schedule =
        baseline::default_schedule(config_.system().network_size);
    content::FileId file = model_->draw_query(rng);
    std::size_t deepest = std::min(schedule.back(), population_->size());
    std::vector<std::size_t> order =
        rng.sample_indices(population_->size(), deepest);
    std::uint32_t found = 0;
    std::size_t probed = 0;
    bool satisfied = false;
    auto desired =
        static_cast<std::uint32_t>(config_.system().num_desired_results);
    for (std::size_t ring : schedule) {
      ring = std::min(ring, order.size());
      if (ring <= probed) continue;
      found += population_->results_in_prefix(file, order, probed, ring);
      probed = ring;
      if (found >= desired) {
        satisfied = true;
        break;
      }
    }
    // Like the other silos, only measurement-window queries are tallied
    // (warmup queries still run, for a warmed controller).
    if (measuring_) {
      ++extra_completed_;
      if (satisfied) ++extra_satisfied_;
      extra_probes_ += probed;
      extra_samples_.add(static_cast<double>(probed));
    }
    if (observer_ != nullptr) {
      // The probe walk is analytic (instantaneous): the query's latency is
      // its controller queueing delay.
      observer_->on_query_complete(simulator_.now() - issued, satisfied);
    }
  }

  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }

  void fault_mass_kill(double fraction) override {
    auto count = static_cast<std::size_t>(
        fraction * static_cast<double>(population_->size()));
    population_->remove_random(count, rng_);
  }
  void fault_mass_join(std::size_t count) override {
    population_->add_random(*model_, count, rng_);
  }

  SearchResults collect() override {
    if (config_.open_loop()) {
      // Open-loop runs measure only the observer-driven queries; running the
      // legacy fixed-size batch on top would double the workload without
      // arriving through the controller.
      SearchResults out;
      out.backend = name();
      out.network_size = population_->size();
      out.queries_completed = extra_completed_;
      out.queries_satisfied = extra_satisfied_;
      out.probes = extra_probes_;
      out.query_messages = 2 * out.probes;
      out.query_bytes = out.probes * (2 * kWire.header + kWire.probe_payload +
                                      kWire.result_entry);
      SampleSet samples;
      for (double v : extra_samples_.values()) samples.add(v);
      out.probe_samples = std::move(samples);
      return out;
    }
    std::vector<std::size_t> schedule =
        baseline::default_schedule(config_.system().network_size);
    for (std::size_t& ring : schedule) {
      ring = std::min(ring, population_->size());
    }
    SampleSet samples;
    baseline::DeepeningResult legacy = baseline::evaluate_iterative_deepening(
        *population_, *model_, schedule, kIterativeQueries,
        static_cast<std::uint32_t>(config_.system().num_desired_results),
        rng_, &samples);

    SearchResults out;
    out.backend = name();
    out.network_size = population_->size();
    auto n = static_cast<double>(kIterativeQueries);
    out.queries_completed = kIterativeQueries + extra_completed_;
    out.queries_satisfied =
        kIterativeQueries -
        static_cast<std::uint64_t>(
            std::llround(legacy.unsatisfied_rate * n)) +
        extra_satisfied_;
    out.probes =
        static_cast<std::uint64_t>(std::llround(legacy.avg_cost * n)) +
        extra_probes_;
    // Every probed peer is live (static population) and replies.
    out.query_messages = 2 * out.probes;
    out.query_bytes =
        out.probes * (2 * kWire.header + kWire.probe_payload +
                      kWire.result_entry);
    for (double v : extra_samples_.values()) samples.add(v);
    out.probe_samples = std::move(samples);
    out.extra = legacy;
    return out;
  }

  std::size_t live_peers() const override {
    return population_ == nullptr ? 0 : population_->size();
  }

 private:
  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;
  std::unique_ptr<content::ContentModel> model_;
  std::unique_ptr<baseline::StaticPopulation> population_;
  QueryObserver* observer_ = nullptr;
  bool measuring_ = false;
  std::uint64_t extra_completed_ = 0;
  std::uint64_t extra_satisfied_ = 0;
  std::uint64_t extra_probes_ = 0;
  SampleSet extra_samples_;
};

// --- One-hop DHT -----------------------------------------------------------

class OneHopBackend final : public SearchBackend {
 public:
  OneHopBackend(const SimulationConfig& config, sim::Simulator& simulator,
                Rng rng)
      : simulator_(simulator) {
    const SystemParams& system = config.system();
    onehop::OneHopParams params;
    params.network_size = system.network_size;
    params.lifespan_multiplier = system.lifespan_multiplier;
    params.lookup_rate = system.query_rate;
    params.dissemination_delay = config.backends().onehop.dissemination_delay;
    if (config.transport().kind == TransportParams::Kind::kLossy) {
      params.loss = config.transport().loss;
    }
    params.enable_lookups = !config.open_loop();
    network_size_ = system.network_size;
    dht_ = std::make_unique<onehop::OneHopDht>(params, simulator,
                                               std::move(rng));
  }

  const char* name() const override { return "onehop"; }
  void bootstrap() override { dht_->initialize(); }
  void begin_measurement() override { dht_->begin_measurement(); }

  void start_query(Rng& rng, sim::Time issued) override {
    // The DHT draws keys from its own generator (legacy API).
    (void)rng;
    bool resolved = dht_->lookup_random_key();
    if (observer_ != nullptr) {
      // Lookups resolve synchronously (probe latency is a probe count in
      // this silo, not simulated time): the query's latency is its
      // controller queueing delay.
      observer_->on_query_complete(simulator_.now() - issued, resolved);
    }
  }

  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }

  void fault_mass_kill(double fraction) override {
    dht_->mass_kill(fraction);
  }
  void fault_mass_join(std::size_t count) override {
    dht_->mass_join(count);
  }

  SearchResults collect() override {
    onehop::OneHopResults legacy = dht_->results();
    SearchResults out;
    out.backend = name();
    out.network_size = network_size_;
    // Naming normalization: a lookup is a completed query; exact-match
    // lookups always resolve to the key's owner, so every completed lookup
    // is satisfied (the silo has no "unsatisfied" notion).
    out.queries_completed = legacy.lookups;
    out.queries_satisfied = legacy.lookups;
    out.probes =
        static_cast<std::uint64_t>(std::llround(legacy.probes_per_lookup.sum()));
    // Timed-out probes (departed or lossy targets) never reply.
    out.query_messages = 2 * out.probes - legacy.timeouts;
    // [1]'s defining overhead: every membership event reaches every peer.
    out.maintenance_messages =
        legacy.membership_events * static_cast<std::uint64_t>(network_size_);
    out.query_bytes =
        out.probes * (kWire.header + kWire.probe_payload) +
        (out.probes - legacy.timeouts) * (kWire.header + kWire.result_entry);
    out.maintenance_bytes =
        out.maintenance_messages * (kWire.header + kWire.membership_entry);
    out.deaths = legacy.deaths;
    out.probe_samples = legacy.lookup_probes;
    out.extra = legacy;
    return out;
  }

  std::size_t live_peers() const override { return dht_->alive_count(); }

 private:
  sim::Simulator& simulator_;
  std::unique_ptr<onehop::OneHopDht> dht_;
  QueryObserver* observer_ = nullptr;
  std::size_t network_size_ = 0;
};

}  // namespace

std::unique_ptr<SearchBackend> make_guess_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<GuessBackend>(config, simulator, std::move(rng));
}

std::unique_ptr<SearchBackend> make_flood_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<FloodBackend>(config, simulator, std::move(rng));
}

std::unique_ptr<SearchBackend> make_iterative_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<IterativeBackend>(config, simulator,
                                            std::move(rng));
}

std::unique_ptr<SearchBackend> make_onehop_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<OneHopBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
