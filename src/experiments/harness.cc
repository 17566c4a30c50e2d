#include "experiments/harness.h"

#include <cmath>
#include <iostream>
#include <ostream>
#include <span>
#include <utility>

#include "common/check.h"
#include "experiments/parallel_runner.h"
#include "search/backend.h"

namespace guess::experiments {

FaultInjection FaultInjection::from_flags(const Flags& flags) {
  FaultInjection out;
  if (flags.has_transport_flags()) {
    TransportParams& transport = out.transport;
    transport.kind = TransportParams::Kind::kLossy;
    transport.loss = flags.get_double("loss", 0.0);
    transport.link_latency = flags.get_double("link-latency", 0.05);
    transport.probe_timeout = flags.get_double("probe-timeout", 2.0);
    transport.max_retries = flags.get_size("max-retries", 0);
    // Non-finite values pass every downstream range check (NaN compares
    // false); reject them here where the flag name is known.
    GUESS_CHECK_MSG(std::isfinite(transport.loss), "--loss must be finite");
    GUESS_CHECK_MSG(std::isfinite(transport.link_latency),
                    "--link-latency must be finite");
    GUESS_CHECK_MSG(std::isfinite(transport.probe_timeout),
                    "--probe-timeout must be finite");
  }
  GUESS_CHECK_MSG(!(flags.has("scenario") && flags.has("scenario-file")),
                  "--scenario and --scenario-file are mutually exclusive");
  std::string spec = flags.get_string("scenario", "");
  std::string path = flags.get_string("scenario-file", "");
  if (!spec.empty()) {
    out.scenario = faults::Scenario::parse(spec);
  } else if (!path.empty()) {
    out.scenario = faults::Scenario::load_file(path);
  }
  out.metrics_interval = flags.get_double("interval", 0.0);
  GUESS_CHECK_MSG(std::isfinite(out.metrics_interval) &&
                      out.metrics_interval >= 0.0,
                  "--interval must be finite and >= 0, got "
                      << out.metrics_interval);
  if (!out.scenario.empty() && !flags.has("interval")) {
    out.metrics_interval = 60.0;
  }
  return out;
}

Scale Scale::from_flags(const Flags& flags) {
  Scale scale;
  scale.full = flags.full();
  if (scale.full) {
    scale.warmup = 1200.0;
    scale.measure = 7200.0;
    scale.seeds = 5;
  }
  scale.base_seed = flags.seed();
  if (flags.seeds() > 0) scale.seeds = flags.seeds();
  scale.csv = flags.get_bool("csv", false);
  scale.threads = flags.threads();
  scale.progress = flags.progress();
  scale.scheduler = sim::parse_scheduler(flags.scheduler());
  FaultInjection faults = FaultInjection::from_flags(flags);
  scale.transport = faults.transport;
  scale.scenario = std::move(faults.scenario);
  scale.metrics_interval = faults.metrics_interval;
  return scale;
}

SimulationOptions Scale::options() const {
  SimulationOptions options;
  options.seed = base_seed;
  options.warmup = warmup;
  options.measure = measure;
  options.threads = threads;
  options.scheduler = scheduler;
  options.metrics_interval = metrics_interval;
  return options;
}

SimulationConfig Scale::config() const {
  return SimulationConfig()
      .options(options())
      .transport(transport)
      .scenario(scenario);
}

PolicyCombo PolicyCombo::from_name(const std::string& name) {
  PolicyCombo combo;
  combo.name = name;
  if (name == "Ran" || name == "Random") {
    return combo;
  }
  if (name == "MRU") {
    // §4: to effect a Most-Recently-Used goal the replacement evicts the
    // *least* recently used — Figure 13's "MRU/LRU" combo.
    combo.probe = Policy::kMRU;
    combo.pong = Policy::kMRU;
    combo.replacement = Replacement::kLRU;
    return combo;
  }
  if (name == "LRU") {
    // Retaining old entries means evicting the most recently used — the
    // "fairness" choice §6.2 shows to be pathological.
    combo.probe = Policy::kLRU;
    combo.pong = Policy::kLRU;
    combo.replacement = Replacement::kMRU;
    return combo;
  }
  if (name == "MFS") {
    combo.probe = Policy::kMFS;
    combo.pong = Policy::kMFS;
    combo.replacement = Replacement::kLFS;
    return combo;
  }
  if (name == "MR") {
    combo.probe = Policy::kMR;
    combo.pong = Policy::kMR;
    combo.replacement = Replacement::kLR;
    return combo;
  }
  if (name == "MR*") {
    combo.probe = Policy::kMR;
    combo.pong = Policy::kMR;
    combo.replacement = Replacement::kLR;
    combo.reset_num_results = true;
    return combo;
  }
  GUESS_CHECK_MSG(false, "unknown policy combo: " << name);
  return combo;
}

ProtocolParams PolicyCombo::apply(ProtocolParams params) const {
  params.query_probe = probe;
  params.query_pong = pong;
  params.cache_replacement = replacement;
  params.reset_num_results = reset_num_results;
  return params;
}

const std::vector<PolicyCombo>& robustness_combos() {
  static const std::vector<PolicyCombo> combos = {
      PolicyCombo::from_name("Ran"),
      PolicyCombo::from_name("MR"),
      PolicyCombo::from_name("MR*"),
      PolicyCombo::from_name("MFS"),
  };
  return combos;
}

namespace {

/// Progress callback printing "replications done/total" to stderr (carriage
/// return, newline once complete); empty when reporting is off.
std::function<void(int, int)> progress_reporter(bool enabled) {
  if (!enabled) return {};
  return [](int done, int total) {
    std::cerr << "\r  replications " << done << "/" << total << std::flush;
    if (done == total) std::cerr << "\n";
  };
}

/// average() over the GUESS results of a run_search sweep.
AveragedResults average_guess(std::span<const search::SearchResults> runs) {
  std::vector<SimulationResults> guess;
  guess.reserve(runs.size());
  for (const search::SearchResults& run : runs) {
    const auto* results = run.extra_as<SimulationResults>();
    GUESS_CHECK_MSG(results != nullptr, "not a GUESS run: " << run.backend);
    guess.push_back(*results);
  }
  return average(guess);
}

}  // namespace

AveragedResults run_config(const SystemParams& system,
                           const ProtocolParams& protocol,
                           const Scale& scale,
                           SimulationOptions options_override) {
  if (options_override.threads == 0) options_override.threads = scale.threads;
  auto config = SimulationConfig()
                    .system(system)
                    .protocol(protocol)
                    .options(options_override)
                    .transport(scale.transport)
                    .scenario(scale.scenario);
  return average_guess(search::run_search_seeds(
      config, scale.seeds, progress_reporter(scale.progress)));
}

AveragedResults run_config(const SystemParams& system,
                           const ProtocolParams& protocol,
                           const Scale& scale) {
  return run_config(system, protocol, scale, scale.options());
}

std::vector<AveragedResults> run_configs(const std::vector<ConfigJob>& jobs,
                                         const Scale& scale) {
  std::vector<SimulationConfig> configs;
  configs.reserve(jobs.size());
  for (const ConfigJob& job : jobs) {
    SimulationOptions options = job.options;
    options.threads = scale.threads;
    configs.push_back(SimulationConfig()
                          .system(job.system)
                          .protocol(job.protocol)
                          .options(options)
                          .transport(scale.transport)
                          .scenario(scale.scenario));
  }
  const auto seeds = static_cast<std::size_t>(scale.seeds);
  std::vector<search::SearchResults> runs = search::run_search_seeds(
      configs, scale.seeds, progress_reporter(scale.progress));
  std::vector<AveragedResults> out;
  out.reserve(jobs.size());
  for (std::size_t c = 0; c < jobs.size(); ++c) {
    out.push_back(average_guess(
        std::span<const search::SearchResults>(runs).subspan(c * seeds,
                                                             seeds)));
  }
  return out;
}

IntervalSeries pool_series(const std::vector<search::SearchResults>& runs) {
  IntervalSeries pooled;
  for (const search::SearchResults& run : runs) {
    const IntervalSeries& series = run.interval_series;
    if (pooled.size() < series.size()) pooled.resize(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      pooled[i].start = series[i].start;
      pooled[i].end = series[i].end;
      pooled[i].queries_completed += series[i].queries_completed;
      pooled[i].queries_satisfied += series[i].queries_satisfied;
      pooled[i].probes += series[i].probes;
      pooled[i].live_peers += series[i].live_peers;
      pooled[i].transport += series[i].transport;
    }
  }
  if (!runs.empty()) {
    for (IntervalSample& s : pooled) s.live_peers /= runs.size();
  }
  return pooled;
}

void print_header(std::ostream& os, const std::string& experiment,
                  const std::string& paper_claim, const SystemParams& system,
                  const ProtocolParams& protocol, const Scale& scale) {
  os << "==============================================================\n"
     << experiment << "\n"
     << "Paper claim: " << paper_claim << "\n"
     << "System:   " << describe(system) << "\n"
     << "Protocol: " << describe(protocol) << "\n"
     << "Scale:    " << (scale.full ? "full" : "reduced")
     << " (warmup=" << scale.warmup << "s measure=" << scale.measure
     << "s seeds=" << scale.seeds
     << " threads=" << resolve_thread_count(scale.threads)
     << " scheduler=" << sim::scheduler_name(scale.scheduler) << ")\n";
  if (scale.transport.kind != TransportParams::Kind::kSynchronous) {
    os << "Transport: " << describe(scale.transport) << "\n";
  }
  if (!scale.scenario.empty()) {
    os << "Scenario:  " << scale.scenario.describe()
       << " (interval=" << scale.metrics_interval << "s)\n";
  }
  os << "==============================================================\n";
}

}  // namespace guess::experiments
