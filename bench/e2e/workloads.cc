#include "workloads.h"

#include <sstream>

#include "common/check.h"
#include "faults/scenario.h"

namespace guess::e2e {

namespace {

constexpr std::size_t kSmokeNetwork = 200;

// MR/MR query policies with LRU/MFS maintenance and LR replacement: every
// policy deterministic, so the link cache runs on its ScoreIndex heaps
// instead of the full-scan path the Random defaults take.
ProtocolParams mr_protocol() {
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.ping_probe = Policy::kLRU;
  protocol.ping_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLR;
  return protocol;
}

SimulationConfig base(std::size_t n, std::uint64_t seed, double warmup,
                      double measure) {
  SystemParams system;
  system.network_size = n;
  return SimulationConfig()
      .system(system)
      .seed(seed)
      .warmup(warmup)
      .measure(measure)
      .threads(1);
}

SimulationConfig paper(std::size_t n, std::uint64_t seed) {
  return base(n, seed, 150.0, 150.0);
}

SimulationConfig mr_large(std::size_t n, std::uint64_t seed) {
  return base(n, seed, 60.0, 180.0).protocol(mr_protocol());
}

SimulationConfig lossy_faults(std::size_t n, std::uint64_t seed) {
  SimulationConfig config =
      base(n, seed, 150.0, 600.0).protocol(mr_protocol()).metrics_interval(30.0);
  SystemParams system = config.system();
  system.lifespan_multiplier = 0.2;
  config.system(system);
  TransportParams transport = TransportParams::lossy(0.05);
  transport.link_latency = 0.05;
  transport.probe_timeout = 2.0;
  transport.max_retries = 2;
  config.transport(transport);
  // The flash crowd rejoins 30% of the nominal population.
  std::ostringstream scenario;
  scenario << "at 300 kill 0.3; at 350 partition 2 for 100; at 500 join "
           << (3 * n) / 10;
  return config.scenario(faults::Scenario::parse(scenario.str()));
}

SimulationConfig flood_open(std::size_t n, std::uint64_t seed) {
  // 150 q/s at n = 10k is 1.6x the population's own closed-loop rate
  // (n x QueryRate = 92.6 q/s); the rate scales with n to keep that ratio.
  return base(n, seed, 60.0, 240.0)
      .backend(SearchBackendId::kFlood)
      .arrival(sim::ArrivalMode::kOpen)
      .offered_qps(150.0 * static_cast<double>(n) / 10000.0)
      .overload_policy(OverloadPolicy::kNone);
}

struct Entry {
  const char* name;
  std::size_t n;
  SimulationConfig (*build)(std::size_t n, std::uint64_t seed);
};

const std::vector<Entry>& entries() {
  static const std::vector<Entry> table = {
      {"paper-5k", 5000, &paper},
      {"mr-10k", 10000, &mr_large},
      {"lossy-faults-5k", 5000, &lossy_faults},
      {"flood-open-5k", 5000, &flood_open},
  };
  return table;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : entries()) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  for (const Entry& e : entries()) {
    if (name != e.name) continue;
    Workload w{name, e.build(smoke ? kSmokeNetwork : e.n, seed)};
    w.config.validate();
    return w;
  }
  GUESS_CHECK_MSG(false, "unknown workload '" << name << "'");
  return {};
}

JsonObject describe_workload(const Workload& workload) {
  const SimulationConfig& c = workload.config;
  const SimulationOptions& o = c.options();
  JsonObject out;
  out.str("backend", backend_name(c.backend()))
      .num("network_size", static_cast<std::uint64_t>(c.system().network_size))
      .str("system", describe(c.system()))
      .str("protocol", describe(c.protocol()))
      .str("transport", describe(c.transport()))
      .str("scenario", c.scenario().describe())
      .str("scheduler", sim::scheduler_name(o.scheduler))
      .str("arrival", sim::arrival_mode_name(o.arrival))
      .num("offered_qps", o.offered_qps)
      .str("overload_policy", overload_policy_name(o.overload.policy))
      .num("metrics_interval", o.metrics_interval)
      .num("warmup_s", o.warmup)
      .num("measure_s", o.measure)
      .num("seed", c.seed());
  return out;
}

}  // namespace guess::e2e
