#include "layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/log_histogram.h"
#include "common/rng.h"
#include "content/content_model.h"
#include "gnutella/dynamic_overlay.h"
#include "guess/link_cache.h"
#include "guess/metrics.h"
#include "guess/peer_table.h"
#include "guess/transport.h"
#include "search/adapters.h"
#include "search/gossip.h"
#include "sim/simulator.h"

namespace guess::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- search layer: the timing decorator ------------------------------------

/// Time spent in the search layer's entry points since the decorator was
/// installed (whole run, warmup included).
struct SearchLayerTimes {
  std::uint64_t start_query_calls = 0;
  double start_query_s = 0.0;
  double sample_interval_s = 0.0;
  double fault_hook_s = 0.0;
  double collect_s = 0.0;
};

SearchLayerTimes g_times;

struct RealFactory {
  SearchBackendId id;
  search::BackendFactory factory;
};

constexpr std::array<RealFactory, 5> kRealFactories = {{
    {SearchBackendId::kGuess, &search::make_guess_backend},
    {SearchBackendId::kFlood, &search::make_flood_backend},
    {SearchBackendId::kIterative, &search::make_iterative_backend},
    {SearchBackendId::kOneHop, &search::make_onehop_backend},
    {SearchBackendId::kGossip, &search::make_gossip_backend},
}};

/// Forwards every SearchBackend call to the real backend, timing the ones
/// a run makes into the search layer. Synchronous backends re-enter the
/// open-loop driver from start_query (completion -> pump -> start_query);
/// only the outermost call is timed so nested work is not counted twice.
class TimedBackend final : public search::SearchBackend {
 public:
  explicit TimedBackend(std::unique_ptr<search::SearchBackend> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  void bootstrap() override { inner_->bootstrap(); }
  void begin_measurement() override { inner_->begin_measurement(); }

  void start_query(Rng& rng, sim::Time issued) override {
    ++g_times.start_query_calls;
    timed(g_times.start_query_s, [&] { inner_->start_query(rng, issued); });
  }
  void configure_open_loop(QueryObserver* observer) override {
    inner_->configure_open_loop(observer);
  }
  TransportCounters transport_counters() const override {
    return inner_->transport_counters();
  }
  void visit_open_queries(
      const std::function<void(sim::Time)>& visit) const override {
    inner_->visit_open_queries(visit);
  }
  search::SearchResults collect() override {
    search::SearchResults out;
    timed(g_times.collect_s, [&] { out = inner_->collect(); });
    return out;
  }
  std::size_t live_peers() const override { return inner_->live_peers(); }
  void begin_intervals(sim::Duration width) override {
    inner_->begin_intervals(width);
  }
  void sample_interval() override {
    timed(g_times.sample_interval_s, [&] { inner_->sample_interval(); });
  }

  void fault_mass_kill(double fraction) override {
    fault([&] { inner_->fault_mass_kill(fraction); });
  }
  void fault_mass_join(std::size_t count) override {
    fault([&] { inner_->fault_mass_join(count); });
  }
  void fault_set_partition(int ways) override {
    fault([&] { inner_->fault_set_partition(ways); });
  }
  void fault_clear_partition() override {
    fault([&] { inner_->fault_clear_partition(); });
  }
  void fault_set_degradation(double extra_loss,
                             double latency_factor) override {
    fault([&] { inner_->fault_set_degradation(extra_loss, latency_factor); });
  }
  void fault_clear_degradation() override {
    fault([&] { inner_->fault_clear_degradation(); });
  }
  void fault_set_poisoning(bool active) override {
    fault([&] { inner_->fault_set_poisoning(active); });
  }
  void fault_start_attack(faults::AttackKind kind, double fraction) override {
    fault([&] { inner_->fault_start_attack(kind, fraction); });
  }
  void fault_stop_attack(faults::AttackKind kind) override {
    fault([&] { inner_->fault_stop_attack(kind); });
  }

 private:
  template <typename Fn>
  void timed(double& total, Fn&& fn) {
    if (depth_ > 0) {
      fn();
      return;
    }
    ++depth_;
    Clock::time_point start = Clock::now();
    fn();
    total += seconds_since(start);
    --depth_;
  }
  template <typename Fn>
  void fault(Fn&& fn) {
    timed(g_times.fault_hook_s, std::forward<Fn>(fn));
  }

  std::unique_ptr<search::SearchBackend> inner_;
  int depth_ = 0;
};

std::unique_ptr<search::SearchBackend> make_timed_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  for (const RealFactory& real : kRealFactories) {
    if (real.id == config.backend()) {
      return std::make_unique<TimedBackend>(
          real.factory(config, simulator, std::move(rng)));
    }
  }
  GUESS_CHECK_MSG(false, "no real factory for backend "
                             << backend_name(config.backend()));
  return nullptr;
}

// --- layer kernels ----------------------------------------------------------

// Sink for kernel results, so the timed loops cannot be optimized away.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kInputs = 4096;  // precomputed inputs, cycled

/// Median over three trials of wall nanoseconds per call of body(i).
template <typename Body>
double ns_per_call(std::uint64_t calls, Body&& body) {
  std::array<double, 3> trials{};
  for (double& trial : trials) {
    Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) body(i);
    trial = 1e9 * seconds_since(start) / static_cast<double>(calls);
  }
  std::sort(trials.begin(), trials.end());
  return trials[1];
}

/// Event core: the classic hold model. `depth` events stay pending; each
/// firing schedules its successor after a delay drawn (precomputed) from
/// an exponential whose mean keeps the queue at the run's depth and rate.
double sim_kernel_ns(sim::Scheduler scheduler, double pending,
                     double mean_delay) {
  sim::Simulator simulator(scheduler);
  Rng rng(7);
  std::vector<double> delays(kInputs);
  for (double& d : delays) d = rng.exponential(1.0 / mean_delay);
  std::uint64_t fired = 0;
  struct Hold {
    sim::Simulator* simulator;
    const double* delays;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      simulator->after(delays[*fired & (kInputs - 1)], *this);
    }
  };
  static_assert(sim::EventQueue::Callback::stores_inline<Hold>());
  auto depth = static_cast<std::size_t>(std::max(1.0, std::round(pending)));
  for (std::size_t i = 0; i < depth; ++i) {
    simulator.after(delays[i & (kInputs - 1)],
                    Hold{&simulator, delays.data(), &fired});
  }
  constexpr double kEventsPerTrial = 1 << 20;
  const double advance = kEventsPerTrial * mean_delay / static_cast<double>(depth);
  simulator.run_until(simulator.now() + advance / 4.0);  // warm the slab
  std::array<double, 3> trials{};
  for (double& trial : trials) {
    std::uint64_t before = fired;
    Clock::time_point start = Clock::now();
    simulator.run_until(simulator.now() + advance);
    trial = 1e9 * seconds_since(start) /
            static_cast<double>(std::max<std::uint64_t>(1, fired - before));
  }
  std::sort(trials.begin(), trials.end());
  return trials[1];
}

std::vector<CacheEntry> random_entries(std::size_t n, double horizon,
                                       Rng& rng) {
  std::vector<CacheEntry> out(kInputs);
  for (CacheEntry& e : out) {
    e.id = 1 + rng.index(n);
    e.ts = rng.uniform(0.0, horizon);
    e.num_files = static_cast<std::uint32_t>(rng.index(1000));
    e.num_res = static_cast<std::uint32_t>(rng.index(3));
  }
  return out;
}

struct LinkCacheKernels {
  double select_ns = 0.0;
  double offer_ns = 0.0;
};

/// A cache configured exactly as GuessNetwork configures every peer's,
/// holding the run's mean entry count.
LinkCacheKernels link_cache_kernels(const SimulationConfig& config,
                                    double mean_entries) {
  const ProtocolParams& p = config.protocol();
  const std::size_t n = config.system().network_size;
  const double horizon = config.options().warmup + config.options().measure;
  Rng rng(11);
  LinkCache cache(0, p.cache_size);
  cache.configure_indices({p.ping_probe, p.ping_pong, p.query_pong},
                          p.cache_replacement);
  cache.set_first_hand_only(p.reset_num_results);
  std::vector<CacheEntry> inputs = random_entries(n, horizon, rng);
  auto fill = static_cast<std::size_t>(std::clamp(
      std::round(mean_entries), 1.0, static_cast<double>(p.cache_size)));
  for (const CacheEntry& e : inputs) {
    if (cache.size() >= fill) break;
    if (!cache.contains(e.id)) cache.insert_free(e);
  }
  LinkCacheKernels out;
  std::vector<CacheEntry> pong;
  out.select_ns = ns_per_call(200000, [&](std::uint64_t) {
    cache.select_top_into(p.query_pong, p.pong_size, rng, pong);
    g_sink = g_sink + pong.size();
  });
  out.offer_ns = ns_per_call(200000, [&](std::uint64_t i) {
    g_sink = g_sink + cache.offer(inputs[i & (kInputs - 1)],
                                  p.cache_replacement, rng);
  });
  return out;
}

/// PeerTable::find over every id the run allocated (dead ids miss), reading
/// each found peer as the network's handlers do.
double peer_table_kernel_ns(std::size_t live, std::size_t dead) {
  PeerTable table;
  table.reserve(live + dead);
  Rng rng(13);
  const std::size_t ids = live + dead;
  for (PeerId id = 0; id < ids; ++id) {
    table.create(id, 0.0, content::Library{}, 1, false, false);
  }
  for (std::size_t i = 0; i < dead; ++i) {
    const std::vector<PeerId>& alive = table.alive_ids();
    table.destroy(alive[rng.index(alive.size())]);
  }
  std::vector<PeerId> lookups(kInputs);
  for (PeerId& id : lookups) id = rng.index(ids);
  return ns_per_call(2000000, [&](std::uint64_t i) {
    const Peer* peer = table.find(lookups[i & (kInputs - 1)]);
    if (peer != nullptr) g_sink = g_sink + peer->num_files();
  });
}

/// One exchange through the run's transport, resolution included (the
/// lossy transport's latency, timeout and retry events run on a private
/// simulator).
double transport_kernel_ns(const SimulationConfig& config) {
  Rng rng(17);
  std::vector<PeerId> peers(kInputs);
  for (PeerId& id : peers) id = rng.index(config.system().network_size);
  std::uint64_t completions = 0;
  auto on_complete = [&completions](DeliveryStatus) { ++completions; };
  double ns = 0.0;
  if (config.transport().kind == TransportParams::Kind::kSynchronous) {
    SynchronousTransport transport;
    ns = ns_per_call(2000000, [&](std::uint64_t i) {
      transport.exchange(MessageKind::kQueryProbe, peers[i & (kInputs - 1)],
                         peers[(i + 1) & (kInputs - 1)], on_complete);
    });
  } else {
    sim::Simulator simulator(config.options().scheduler);
    LossyTransport transport(config.transport(), simulator, Rng(19));
    constexpr std::uint64_t kBatch = 1024;
    ns = ns_per_call(64, [&](std::uint64_t) {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        transport.exchange(MessageKind::kQueryProbe,
                           peers[i & (kInputs - 1)],
                           peers[(i + 1) & (kInputs - 1)], on_complete);
      }
      simulator.run_all();
    }) / static_cast<double>(kBatch);
  }
  g_sink = g_sink + completions;
  return ns;
}

struct ContentKernels {
  double contains_ns = 0.0;
  double draw_query_ns = 0.0;
  double sample_library_us = 0.0;
};

ContentKernels content_kernels(const SimulationConfig& config) {
  content::ContentModel model(config.system().content);
  Rng rng(23);
  ContentKernels out;
  std::vector<content::Library> libraries(512);
  out.sample_library_us =
      ns_per_call(libraries.size(), [&](std::uint64_t i) {
        libraries[i] = model.sample_peer_library(rng);
      }) / 1000.0;
  std::vector<content::FileId> files(kInputs);
  std::size_t next = 0;
  out.draw_query_ns = ns_per_call(kInputs, [&](std::uint64_t) {
    files[next++ & (kInputs - 1)] = model.draw_query(rng);
  });
  out.contains_ns = ns_per_call(2000000, [&](std::uint64_t i) {
    g_sink = g_sink + libraries[i % libraries.size()].contains(
                          files[i & (kInputs - 1)]);
  });
  return out;
}

double log_histogram_kernel_ns() {
  Rng rng(29);
  std::vector<double> latencies(kInputs);
  for (double& v : latencies) v = rng.exponential(1.0);
  LogHistogram histogram;
  double ns = ns_per_call(4000000, [&](std::uint64_t i) {
    histogram.add(latencies[i & (kInputs - 1)]);
  });
  g_sink = g_sink + histogram.count();
  return ns;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

void install_timing_decorator() {
  g_times = SearchLayerTimes{};
  for (const RealFactory& real : kRealFactories) {
    search::register_backend(real.id, &make_timed_backend);
  }
}

void remove_timing_decorator() {
  for (const RealFactory& real : kRealFactories) {
    search::register_backend(real.id, real.factory);
  }
}

JsonObject layer_metrics(const Workload& workload, const PhasedRun& traced,
                         double peak_rss_mb) {
  const SimulationConfig& config = workload.config;
  const SimulationOptions& options = config.options();
  const search::SearchResults& r = traced.results;
  const SimulationResults* g = r.extra_as<SimulationResults>();
  const auto* f = r.extra_as<gnutella::DynamicResults>();
  const SimulationResults none;
  const SimulationResults& gr = g != nullptr ? *g : none;

  const double measure_ns = 1e9 * traced.phases.measure_s;
  const auto queries = static_cast<double>(r.queries_completed);
  const double sim_seconds = options.warmup + options.measure;
  const auto events =
      static_cast<double>(traced.events_at_end - traced.events_at_warmup_end);
  const auto good = static_cast<double>(gr.probes.good);
  const auto probes = static_cast<double>(gr.probes.total());
  const auto pings = static_cast<double>(gr.pings_sent);
  const auto alive_pings = static_cast<double>(gr.pings_sent - gr.pings_to_dead);
  const auto deaths = static_cast<double>(r.deaths);
  const TransportCounters& t = gr.transport;

  JsonObject out;
  auto metric = [&out](const char* name, double value, const char* unit) {
    out.object(name, JsonObject().num("value", value).str("unit", unit));
  };

  // Event core at the run's depth; Little's law gives the mean delay.
  const double events_per_sim_s = events / options.measure;
  const double sim_ns =
      events > 0.0
          ? sim_kernel_ns(options.scheduler, traced.pending_mean,
                          std::max(1.0, traced.pending_mean) / events_per_sim_s)
          : 0.0;
  const double sim_frac = ratio(sim_ns * events, measure_ns);

  // One pong selection per good probe and per ping (select_best), plus the
  // pong a live ping target builds; PongSize offers per pong received.
  const LinkCacheKernels cache =
      link_cache_kernels(config, gr.cache_health.entries);
  const double cache_frac =
      g == nullptr
          ? 0.0
          : ratio(cache.select_ns * (good + pings + alive_pings) +
                      cache.offer_ns *
                          static_cast<double>(config.protocol().pong_size) *
                          (good + alive_pings),
                  measure_ns);

  // Peer lookups: ~5 per probe (step: slot + origin; resolution: slot,
  // origin, target) and ~4 per ping (timer, pinger, resolution pair).
  const double find_ns = peer_table_kernel_ns(
      config.system().network_size, static_cast<std::size_t>(deaths));
  const double table_frac =
      g == nullptr ? 0.0 : ratio(find_ns * (5.0 * probes + 4.0 * pings),
                                 measure_ns);

  const double exchange_ns = transport_kernel_ns(config);
  const double transport_frac =
      g == nullptr ? 0.0 : ratio(exchange_ns * (probes + pings), measure_ns);

  // Library lookups per peer answering (GUESS good probes, flood peers
  // reached), one query draw per query, one library per birth; births in
  // the window are estimated from deaths, which churn replaces one for one.
  const ContentKernels content = content_kernels(config);
  const double answered =
      g != nullptr ? good
                   : static_cast<double>(f != nullptr ? f->peers_reached : 0);
  const double births = deaths * options.measure / sim_seconds;
  const double content_frac =
      ratio(content.contains_ns * answered + content.draw_query_ns * queries +
                1000.0 * content.sample_library_us * births,
            measure_ns);

  const PhaseTimes& ph = traced.phases;
  metric("driver.construct_s", ph.construct_s, "s");
  metric("driver.bootstrap_s", ph.bootstrap_s, "s");
  metric("driver.warmup_s", ph.warmup_s, "s");
  metric("driver.measure_s", ph.measure_s, "s");
  metric("driver.collect_s", ph.collect_s, "s");
  metric("driver.slice_ms_p50", percentile(traced.slice_ms, 50.0), "ms");
  metric("driver.slice_ms_p90", percentile(traced.slice_ms, 90.0), "ms");
  metric("driver.slice_ms_max", percentile(traced.slice_ms, 100.0), "ms");
  metric("driver.unattributed_frac",
         1.0 - (sim_frac + cache_frac + table_frac + transport_frac +
                content_frac),
         "fraction");

  metric("sim.events", events, "count");
  metric("sim.events_per_query", ratio(events, queries), "events/query");
  metric("sim.events_per_s", ratio(events, ph.measure_s), "events/s");
  metric("sim.pending_mean", traced.pending_mean, "count");
  metric("sim.kernel_ns_per_event", sim_ns, "ns");
  metric("sim.est_frac", sim_frac, "fraction");

  const SearchLayerTimes& st = g_times;
  metric("search.start_query_calls",
         static_cast<double>(st.start_query_calls), "count");
  metric("search.start_query_ns",
         1e9 * ratio(st.start_query_s,
                     static_cast<double>(st.start_query_calls)),
         "ns");
  metric("search.sample_interval_ms", 1000.0 * st.sample_interval_s, "ms");
  metric("search.fault_hook_ms", 1000.0 * st.fault_hook_s, "ms");
  metric("search.collect_ms", 1000.0 * st.collect_s, "ms");

  metric("guess.query.good_probe_frac", ratio(good, probes), "fraction");
  metric("guess.query.dead_probe_frac",
         ratio(static_cast<double>(gr.probes.dead), probes), "fraction");
  metric("guess.query.refused_probe_frac",
         ratio(static_cast<double>(gr.probes.refused), probes), "fraction");
  metric("guess.query.query_cache_mean", gr.query_cache_population.mean(),
         "peers");
  metric("guess.query.response_time_s", r.response_time.mean(), "s");

  metric("link_cache.pings_per_query", ratio(pings, queries), "pings/query");
  metric("link_cache.ping_dead_frac", ratio(pings - alive_pings, pings),
         "fraction");
  metric("link_cache.live_frac", gr.cache_health.fraction_live, "fraction");
  metric("link_cache.kernel_ns_select", cache.select_ns, "ns");
  metric("link_cache.kernel_ns_offer", cache.offer_ns, "ns");
  metric("link_cache.est_frac", cache_frac, "fraction");

  metric("peer_table.deaths_per_sim_s", deaths / sim_seconds, "1/s");
  metric("peer_table.kernel_ns_find", find_ns, "ns");
  metric("peer_table.est_frac", table_frac, "fraction");

  const auto sent = static_cast<double>(t.messages_sent);
  metric("transport.sent_per_query", ratio(sent, queries), "msgs/query");
  metric("transport.loss_frac",
         ratio(static_cast<double>(t.messages_lost), sent), "fraction");
  metric("transport.timeouts_per_query",
         ratio(static_cast<double>(t.timeouts), queries), "count/query");
  metric("transport.retransmit_frac",
         ratio(static_cast<double>(t.retransmits), sent), "fraction");
  metric("transport.failed_frac",
         ratio(static_cast<double>(t.exchanges_failed),
               sent - static_cast<double>(t.retransmits)),
         "fraction");
  metric("transport.kernel_ns_exchange", exchange_ns, "ns");
  metric("transport.est_frac", transport_frac, "fraction");

  metric("content.kernel_ns_contains", content.contains_ns, "ns");
  metric("content.kernel_ns_draw_query", content.draw_query_ns, "ns");
  metric("content.kernel_us_sample_library", content.sample_library_us, "us");
  metric("content.est_frac", content_frac, "fraction");

  const double messages =
      f != nullptr ? static_cast<double>(f->messages) : 0.0;
  const double reached =
      f != nullptr ? static_cast<double>(f->peers_reached) : 0.0;
  metric("flood.messages_per_query", ratio(messages, queries), "msgs/query");
  metric("flood.reach_per_query", ratio(reached, queries), "peers/query");
  metric("flood.duplicate_frac",
         messages > 0.0 ? 1.0 - reached / messages : 0.0, "fraction");
  metric("flood.repairs_per_sim_s",
         f != nullptr ? static_cast<double>(f->repairs) / options.measure
                      : 0.0,
         "1/s");

  const OverloadStats& o = r.overload;
  metric("overload.arrivals", static_cast<double>(o.arrivals), "count");
  metric("overload.admitted_frac",
         ratio(static_cast<double>(o.admitted),
               static_cast<double>(o.arrivals)),
         "fraction");
  metric("overload.open_at_close", static_cast<double>(o.open_at_close),
         "count");
  metric("overload.kernel_ns_record", log_histogram_kernel_ns(), "ns");

  metric("mem.rss_after_bootstrap_mb", traced.rss_after_bootstrap_mb, "MB");
  metric("mem.rss_growth_mb", peak_rss_mb - traced.rss_after_bootstrap_mb,
         "MB");
  return out;
}

}  // namespace guess::e2e
