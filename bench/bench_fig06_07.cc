// Figures 6 and 7: overlay connectivity vs PingInterval.
//
// Maintenance-only runs (queries disabled, isolating Ping/Pong traffic,
// §6.1) under the strain setting LifespanMultiplier=0.2. Shapes:
//   Fig 6 — (N=1000) the largest connected component shrinks as
//           PingInterval grows; SMALL caches fragment first (connectivity
//           needs absolute live entries, which small caches lack);
//   Fig 7 — (CacheSize=20) the RELATIVE largest component at a given
//           PingInterval is nearly independent of network size.
#include <iostream>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams base;
  base.lifespan_multiplier = 0.2;
  ProtocolParams protocol;

  experiments::print_header(
      std::cout, "Figures 6/7 — connectivity vs PingInterval",
      "long ping intervals fragment the conceptual overlay; small caches "
      "fragment first; relative connectivity is independent of network size",
      base, protocol, scale);

  auto connectivity_job = [&](std::size_t n, std::size_t cache,
                              double interval) {
    SystemParams system = base;
    system.network_size = n;
    ProtocolParams p = protocol;
    p.cache_size = cache;
    p.ping_interval = interval;
    SimulationOptions options = scale.options();
    options.enable_queries = false;
    options.sample_connectivity = true;
    // Connectivity decays over a few mean lifetimes (~3000 s at the 0.2
    // multiplier); warm up past the initial fully-seeded state and sample
    // late. Maintenance-only runs are cheap even at N=2000.
    options.warmup = 2400.0;
    options.measure = scale.full ? 9600.0 : 3600.0;
    options.connectivity_sample_interval = 600.0;
    return experiments::ConfigJob{system, p, options};
  };

  const double intervals[] = {10, 60, 120, 240, 480, 600};
  const std::size_t fig6_caches[] = {10, 20, 50, 100, 200, 500};
  const std::size_t fig7_sizes[] = {200, 500, 1000, 2000};

  // Both figures' sweeps go to one shared worker pool.
  std::vector<experiments::ConfigJob> jobs;
  for (std::size_t cache : fig6_caches) {
    for (double interval : intervals) {
      jobs.push_back(connectivity_job(1000, cache, interval));
    }
  }
  for (std::size_t n : fig7_sizes) {
    for (double interval : intervals) {
      jobs.push_back(connectivity_job(n, 20, interval));
    }
  }
  auto averages = experiments::run_configs(jobs, scale);
  std::size_t next = 0;

  TablePrinter fig6({"PingInterval", "CacheSize", "LCC", "LCC fraction",
                     "strong LCC (final)"});
  for (std::size_t cache : fig6_caches) {
    for (double interval : intervals) {
      const auto& avg = averages[next++];
      fig6.add_row({interval, static_cast<std::int64_t>(cache),
                    avg.largest_component, avg.largest_component / 1000.0,
                    avg.final_largest_strong_component});
    }
  }
  fig6.print(std::cout, "Figure 6 (NetworkSize=1000)");

  TablePrinter fig7({"PingInterval", "NetworkSize", "LCC", "LCC fraction",
                     "strong LCC (final)"});
  for (std::size_t n : fig7_sizes) {
    for (double interval : intervals) {
      const auto& avg = averages[next++];
      fig7.add_row({interval, static_cast<std::int64_t>(n),
                    avg.largest_component,
                    avg.largest_component / static_cast<double>(n),
                    avg.final_largest_strong_component});
    }
  }
  fig7.print(std::cout, "Figure 7 (CacheSize=20)");
  std::cout << "\nPaper anchors: Fig 6 stays near 1000 for short intervals "
               "and decays with\nPingInterval, small caches worst; Fig 7's "
               "LCC fraction is roughly the same\nacross network sizes at "
               "each interval. The strong component (one-way pointers,\n"
               "Figure 2's asymmetry) is smaller than the weak one the "
               "paper plots.\n";
  if (scale.csv) {
    std::cout << "\nCSV fig6:\n" << fig6.to_csv();
    std::cout << "\nCSV fig7:\n" << fig7.to_csv();
  }
  return 0;
}
