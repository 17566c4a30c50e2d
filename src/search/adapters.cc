// GUESS as a SearchBackend: an adapter over guess::GuessNetwork (DESIGN.md
// §12.2). The engine lives in guess_core, below the search layer, and
// tests, benches and examples drive it directly; the adapter forwards the
// interface to it and maps SimulationResults, which it parks in the
// extension slot, onto the unified fields.
#include "search/adapters.h"

#include <utility>

#include "analysis/overlay_graph.h"
#include "common/check.h"
#include "guess/network.h"

namespace guess::search {

namespace {

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
    SimulationResults results = network_->collect_results();
    results.measure_duration = options.measure;
    if (options.sample_connectivity) {
      // End-of-run snapshot, including the strong component the one-way
      // pointer structure (§2.1) makes interesting.
      analysis::OverlayGraph graph;
      for (PeerId id : network_->alive_ids()) graph.add_node(id);
      network_->visit_live_edges(
          [&](PeerId from, PeerId to) { graph.add_edge(from, to); });
      results.final_largest_component = graph.largest_weak_component();
      results.final_largest_strong_component =
          graph.largest_strong_component();
    }

    SearchResults out;
    out.backend = name();
    out.network_size = results.network_size;
    out.queries_completed = results.queries_completed;
    out.queries_satisfied = results.queries_satisfied;
    out.probes = results.probes.total();
    // Request per probe; dead targets never reply.
    std::uint64_t replies = results.probes.good + results.probes.refused;
    out.query_messages = out.probes + replies;
    std::uint64_t pongs = results.pings_sent - results.pings_to_dead;
    out.maintenance_messages = results.pings_sent + pongs;
    std::size_t pong_size = config_.protocol().pong_size;
    out.query_bytes =
        out.probes * (kWire.header + kWire.probe_payload) +
        results.probes.good *
            (kWire.header + kWire.result_entry + pong_size * kWire.ad_entry) +
        results.probes.refused * kWire.header;
    out.maintenance_bytes =
        results.pings_sent * (kWire.header + kWire.probe_payload) +
        pongs * (kWire.header + pong_size * kWire.ad_entry);
    out.deaths = results.deaths;
    out.response_time = results.response_time;
    out.probe_samples = results.query_probes;
    out.interval_series = results.interval_series;
    out.extra = std::move(results);
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
  /// untouched (the GUESS goldens pin them).
  static SimulationConfig engine_config(SimulationConfig config) {
    if (config.open_loop()) config.enable_queries(false);
    return config;
  }

  SimulationConfig config_;
  sim::Simulator& simulator_;
  std::unique_ptr<GuessNetwork> network_;
};

}  // namespace

std::unique_ptr<SearchBackend> make_guess_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<GuessBackend>(config, simulator, std::move(rng));
}

}  // namespace guess::search
