#include "phased_run.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "faults/fault_engine.h"
#include "gnutella/dynamic_overlay.h"
#include "guess/metrics.h"
#include "search/open_loop.h"
#include "sim/simulator.h"

namespace guess::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::string& s) {
    for (char c : s) add(static_cast<std::uint64_t>(c));
  }
  void add(const RunningStat& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.sum());
    add(s.min());
    add(s.max());
  }
  void add(const SampleSet& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (double v : s.values()) add(v);
  }
  void add(const TransportCounters& t) {
    add(t.messages_sent);
    add(t.messages_lost);
    add(t.timeouts);
    add(t.retransmits);
    add(t.late_replies);
    add(t.exchanges_failed);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

PhasedRun run_phased(const SimulationConfig& config, double slice_width) {
  PhasedRun out;
  Clock::time_point t = Clock::now();

  config.validate();
  const SimulationOptions& options = config.options();
  sim::Simulator simulator(options.scheduler);
  std::unique_ptr<search::SearchBackend> backend =
      search::make_backend(config, simulator, Rng(config.seed()));
  out.phases.construct_s = seconds_since(t);

  t = Clock::now();
  backend->bootstrap();
  std::unique_ptr<faults::FaultEngine> fault_engine;
  if (!config.scenario().empty()) {
    fault_engine = std::make_unique<faults::FaultEngine>(config.scenario(),
                                                         simulator, *backend);
    fault_engine->schedule();
  }
  std::unique_ptr<search::OpenLoopDriver> driver;
  if (config.open_loop()) {
    driver =
        std::make_unique<search::OpenLoopDriver>(config, simulator, *backend);
    driver->start();
  }
  if (options.metrics_interval > 0.0) {
    backend->begin_intervals(options.metrics_interval);
    search::SearchBackend* raw = backend.get();
    search::OpenLoopDriver* raw_driver = driver.get();
    simulator.every(options.metrics_interval, options.metrics_interval,
                    [raw, raw_driver]() {
                      raw->sample_interval();
                      if (raw_driver) raw_driver->sample_interval();
                    });
  }
  out.phases.bootstrap_s = seconds_since(t);
  out.rss_after_bootstrap_mb = current_rss_mb();

  t = Clock::now();
  simulator.run_until(options.warmup);
  out.phases.warmup_s = seconds_since(t);
  out.events_at_warmup_end = simulator.events_fired();
  backend->visit_open_queries([&](sim::Time) { ++out.open_at_measure_start; });

  t = Clock::now();
  backend->begin_measurement();
  if (driver) driver->begin_measurement();
  const sim::Time end = options.warmup + options.measure;
  if (slice_width > 0.0) {
    double pending_sum = 0.0;
    for (std::size_t k = 1;; ++k) {
      sim::Time horizon =
          std::min(end, options.warmup + static_cast<double>(k) * slice_width);
      Clock::time_point slice = Clock::now();
      simulator.run_until(horizon);
      out.slice_ms.push_back(1000.0 * seconds_since(slice));
      pending_sum += static_cast<double>(simulator.pending_events());
      if (horizon >= end) break;
    }
    out.pending_mean = pending_sum / static_cast<double>(out.slice_ms.size());
  } else {
    simulator.run_until(end);
  }
  out.phases.measure_s = seconds_since(t);
  out.events_at_end = simulator.events_fired();

  t = Clock::now();
  out.results = backend->collect();
  if (driver) driver->finalize(out.results);
  out.results.measure_duration = options.measure;
  out.phases.collect_s = seconds_since(t);
  return out;
}

std::uint64_t results_digest(const search::SearchResults& r) {
  Fnv h;
  h.add(r.backend);
  h.add(static_cast<std::uint64_t>(r.network_size));
  h.add(r.measure_duration);
  h.add(r.queries_completed);
  h.add(r.queries_satisfied);
  h.add(r.probes);
  h.add(r.query_messages);
  h.add(r.maintenance_messages);
  h.add(r.query_bytes);
  h.add(r.maintenance_bytes);
  h.add(r.deaths);
  h.add(r.response_time);
  h.add(r.probe_samples);
  for (const IntervalSample& s : r.interval_series) {
    h.add(s.start);
    h.add(s.end);
    h.add(s.queries_completed);
    h.add(s.queries_satisfied);
    h.add(s.probes);
    h.add(static_cast<std::uint64_t>(s.live_peers));
    h.add(s.transport);
    h.add(s.arrivals);
    h.add(s.rejected);
    h.add(s.shed);
    h.add(s.slo_ok);
  }
  const OverloadStats& o = r.overload;
  for (std::uint64_t v : {o.arrivals, o.admitted, o.rejected, o.shed,
                          o.completed, o.satisfied, o.slo_ok, o.abandoned,
                          o.open_at_close}) {
    h.add(v);
  }
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    h.add(o.latency.bucket_count(i));
  }
  if (const auto* g = r.extra_as<SimulationResults>()) {
    h.add(g->probes.good);
    h.add(g->probes.dead);
    h.add(g->probes.refused);
    h.add(g->pings_sent);
    h.add(g->pings_to_dead);
    h.add(g->queries_stalled_out);
    h.add(g->transport);
    h.add(g->query_cache_population);
    h.add(g->peer_loads);
    h.add(g->cache_health.fraction_live);
    h.add(g->cache_health.entries);
    h.add(static_cast<std::uint64_t>(g->cache_health.samples));
  }
  if (const auto* f = r.extra_as<gnutella::DynamicResults>()) {
    h.add(f->messages);
    h.add(f->peers_reached);
    h.add(f->repairs);
    h.add(f->peer_loads);
  }
  return h.value();
}

std::vector<std::string> check_identities(const PhasedRun& run) {
  const search::SearchResults& r = run.results;
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  expect(r.queries_completed > 0, "no query completed in the window");
  expect(r.queries_satisfied <= r.queries_completed,
         "satisfied > completed");
  if (const auto* g = r.extra_as<SimulationResults>()) {
    expect(g->probes.total() == r.probes, "good+dead+refused != probes");
    expect(g->honest.queries_completed + g->selfish.queries_completed ==
               r.queries_completed,
           "honest+selfish completions != completed");
  }
  if (r.probe_samples.size() == r.queries_completed) {
    double sum = 0.0;
    for (double v : r.probe_samples.values()) sum += v;
    expect(sum == static_cast<double>(r.probes),
           "per-query probe samples do not sum to probes");
  }
  const OverloadStats& o = r.overload;
  if (o.open_loop) {
    std::ostringstream msg;
    msg << "arrivals + open at start (" << o.arrivals << " + "
        << run.open_at_measure_start << ") != completed + rejected + shed + "
        << "abandoned + open at close (" << o.completed << " + " << o.rejected
        << " + " << o.shed << " + " << o.abandoned << " + " << o.open_at_close
        << ")";
    expect(o.arrivals + run.open_at_measure_start ==
               o.completed + o.rejected + o.shed + o.abandoned +
                   o.open_at_close,
           msg.str());
    expect(o.completed == r.queries_completed,
           "observer completions != backend completions");
  }
  return failures;
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  int fields = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (fields != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace guess::e2e
