#include "search/backend.h"

#include <cstdlib>
#include <map>
#include <utility>

#include "churn/lifetime.h"
#include "common/check.h"
#include "content/content_model.h"
#include "experiments/parallel_runner.h"
#include "faults/fault_engine.h"
#include "search/adapters.h"
#include "search/open_loop.h"

namespace guess::search {

double SearchResults::success_rate() const {
  return queries_completed == 0
             ? 0.0
             : static_cast<double>(queries_satisfied) /
                   static_cast<double>(queries_completed);
}

double SearchResults::probes_per_query() const {
  return queries_completed == 0 ? 0.0
                                : static_cast<double>(probes) /
                                      static_cast<double>(queries_completed);
}

double SearchResults::query_messages_per_query() const {
  return queries_completed == 0
             ? 0.0
             : static_cast<double>(query_messages) /
                   static_cast<double>(queries_completed);
}

double SearchResults::bytes_per_query() const {
  return queries_completed == 0
             ? 0.0
             : static_cast<double>(bytes_on_wire()) /
                   static_cast<double>(queries_completed);
}

double SearchResults::probes_percentile(double p) const {
  return probe_samples.empty() ? 0.0 : probe_samples.percentile(p);
}

void SearchBackend::configure_open_loop(QueryObserver*) {
  GUESS_CHECK_MSG(false, "backend " << name()
                                    << " does not support open-loop arrivals");
}

void SearchBackend::unsupported_fault(const char* action) const {
  GUESS_CHECK_MSG(false, "backend " << name()
                                    << " does not support fault action '"
                                    << action << "'");
  // GUESS_CHECK_MSG throws; unreachable.
  std::abort();
}

void SearchBackend::fault_mass_kill(double) { unsupported_fault("kill"); }
void SearchBackend::fault_mass_join(std::size_t) {
  unsupported_fault("join");
}
void SearchBackend::fault_set_partition(int) {
  unsupported_fault("partition");
}
void SearchBackend::fault_clear_partition() {
  unsupported_fault("partition");
}
void SearchBackend::fault_set_degradation(double, double) {
  unsupported_fault("degrade");
}
void SearchBackend::fault_clear_degradation() {
  unsupported_fault("degrade");
}
void SearchBackend::fault_set_poisoning(bool) {
  unsupported_fault("poison");
}
void SearchBackend::fault_start_attack(faults::AttackKind, double) {
  unsupported_fault("attack");
}
void SearchBackend::fault_stop_attack(faults::AttackKind) {
  unsupported_fault("attack");
}

namespace {

/// Function-local registry: built-ins are installed on first use, so static
/// library linking cannot drop them (no self-registration TUs to lose).
std::map<SearchBackendId, BackendFactory>& registry() {
  static std::map<SearchBackendId, BackendFactory> backends = {
      {SearchBackendId::kGuess, &make_guess_backend},
      {SearchBackendId::kFlood, &make_flood_backend},
      {SearchBackendId::kIterative, &make_iterative_backend},
      {SearchBackendId::kOneHop, &make_onehop_backend},
      {SearchBackendId::kGossip, &make_gossip_backend},
  };
  return backends;
}

}  // namespace

void register_backend(SearchBackendId id, BackendFactory factory) {
  GUESS_CHECK_MSG(factory != nullptr, "null backend factory");
  registry()[id] = factory;
}

std::unique_ptr<SearchBackend> make_backend(const SimulationConfig& config,
                                            sim::Simulator& simulator,
                                            Rng rng) {
  auto it = registry().find(config.backend());
  GUESS_CHECK_MSG(it != registry().end(),
                  "no backend registered for id "
                      << static_cast<int>(config.backend()));
  return it->second(config, simulator, std::move(rng));
}

std::vector<SearchBackendId> registered_backends() {
  std::vector<SearchBackendId> ids;
  ids.reserve(registry().size());
  for (const auto& [id, factory] : registry()) {
    (void)factory;
    ids.push_back(id);
  }
  return ids;
}

SearchResults run_search(const SimulationConfig& config) {
  config.validate();
  const SimulationOptions& options = config.options();
  sim::Simulator simulator(options.scheduler);
  std::unique_ptr<SearchBackend> backend =
      make_backend(config, simulator, Rng(config.seed()));

  backend->bootstrap();
  // Fault actions first, then the open-loop driver, then the interval
  // sampler — at an exact time tie the fault applies before that instant's
  // interval sample closes. All ride the event queue's (time, seq) order,
  // keeping runs bitwise deterministic across scheduler backends.
  // Closed-loop runs construct no driver and schedule no extra events, so
  // they stay bitwise identical to the pre-open-loop code path.
  std::unique_ptr<faults::FaultEngine> fault_engine;
  if (!config.scenario().empty()) {
    fault_engine = std::make_unique<faults::FaultEngine>(config.scenario(),
                                                         simulator, *backend);
    fault_engine->schedule();
  }
  std::unique_ptr<OpenLoopDriver> driver;
  if (config.open_loop()) {
    driver = std::make_unique<OpenLoopDriver>(config, simulator, *backend);
    driver->start();
  }
  if (options.metrics_interval > 0.0) {
    backend->begin_intervals(options.metrics_interval);
    SearchBackend* raw = backend.get();
    OpenLoopDriver* raw_driver = driver.get();
    simulator.every(options.metrics_interval, options.metrics_interval,
                    [raw, raw_driver]() {
                      raw->sample_interval();
                      if (raw_driver) raw_driver->sample_interval();
                    });
  }
  simulator.run_until(options.warmup);
  backend->begin_measurement();
  if (driver) driver->begin_measurement();
  simulator.run_until(options.warmup + options.measure);

  SearchResults results = backend->collect();
  if (driver) driver->finalize(results);
  results.measure_duration = options.measure;
  results.events_fired = simulator.events_fired();
  return results;
}

std::vector<SearchResults> run_search_seeds(
    const SimulationConfig& config, int num_seeds,
    const std::function<void(int, int)>& progress) {
  return run_search_seeds(std::vector<SimulationConfig>{config}, num_seeds,
                          progress);
}

std::vector<SearchResults> run_search_seeds(
    const std::vector<SimulationConfig>& configs, int num_seeds,
    const std::function<void(int, int)>& progress) {
  GUESS_CHECK(num_seeds >= 1);
  if (configs.empty()) return {};
  const int requested = configs.front().options().threads;
  for (const SimulationConfig& config : configs) {
    config.validate();
    GUESS_CHECK_MSG(config.options().threads == requested,
                    "a sweep runs on one pool: every config must ask for "
                    "the same thread count");
  }
  const int total = static_cast<int>(configs.size()) * num_seeds;
  // Slot i is replication (i % num_seeds) of config (i / num_seeds), so
  // results land in config-then-seed order whichever worker finishes first.
  auto run_one = [&](int i) {
    SimulationConfig replication =
        configs[static_cast<std::size_t>(i / num_seeds)];
    replication.seed(replication.seed() +
                     static_cast<std::uint64_t>(i % num_seeds));
    return run_search(replication);
  };

  int threads = experiments::resolve_thread_count(requested);
  if (threads == 1 || total == 1) {
    std::vector<SearchResults> runs;
    runs.reserve(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
      runs.push_back(run_one(i));
      if (progress) progress(i + 1, total);
    }
    return runs;
  }

  // Warm the shared immutable quantile tables on this thread so workers read
  // fully-constructed statics instead of serializing on their init guards.
  content::ContentModel::sharing_distribution();
  churn::LifetimeDistribution::base_distribution();

  experiments::ParallelRunner runner(threads);
  return runner.map<SearchResults>(total, run_one, progress);
}

}  // namespace guess::search
