// Figures 3, 4 and 5: query performance vs CacheSize across network sizes.
//
// Paper setup: LifespanMultiplier=0.2, Random policies, NetworkSize in
// {200, 500, 1000, 2000, 5000}, CacheSize swept from 5 up to the network
// size. Shapes to reproduce:
//   Fig 3 — probes/query RISES with cache size, at every network size;
//   Fig 4 — unsatisfaction has a MINIMUM at moderate cache size (20–70),
//           roughly independent of network size;
//   Fig 5 — the extra probes at large caches are DEAD probes; good probes
//           peak at a moderate cache size (N=1000 slice).
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  // 34-point sweep: trends are across configs, so default to a single seed
  // unless the caller asks for more.
  if (flags.seeds() == 0 && !scale.full) scale.seeds = 1;
  flags.reject_unread();

  SystemParams base;
  base.lifespan_multiplier = 0.2;
  ProtocolParams protocol;

  experiments::print_header(
      std::cout, "Figures 3/4/5 — cache size sweep",
      "probes/query rises with cache size; unsatisfaction is minimized at "
      "a moderate cache size (20-70); the growth is all dead probes",
      base, protocol, scale);

  const std::size_t network_sizes[] = {200, 500, 1000, 2000, 5000};
  const std::size_t cache_sizes[] = {5, 10, 20, 50, 100, 200, 500};

  TablePrinter fig34({"NetworkSize", "CacheSize", "Probes/Query",
                      "Unsatisfied", "Good/Query", "Dead/Query"});
  TablePrinter fig5({"CacheSize", "Good Probes/Query", "Dead Probes/Query"});

  // Collect the whole 34-point sweep, then run every replication on one
  // shared worker pool (the sweep parallelizes across configs, so even the
  // default single-seed run saturates the machine).
  std::vector<experiments::ConfigJob> jobs;
  std::vector<std::pair<std::size_t, std::size_t>> points;  // (n, c)
  for (std::size_t n : network_sizes) {
    SystemParams system = base;
    system.network_size = n;
    for (std::size_t c : cache_sizes) {
      if (c > n) continue;
      ProtocolParams p = protocol;
      p.cache_size = c;
      // Larger networks generate proportionally more queries per simulated
      // second; shrink the window to keep per-config cost flat without
      // losing sample size.
      SimulationOptions options = scale.options();
      double shrink = std::min(1.0, 1000.0 / static_cast<double>(n));
      options.measure = std::max(scale.measure * shrink, 300.0);
      jobs.push_back({system, p, options});
      points.emplace_back(n, c);
    }
  }
  auto averages = experiments::run_configs(jobs, scale);
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto [n, c] = points[i];
    const auto& avg = averages[i];
    fig34.add_row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(c),
                   avg.probes_per_query, avg.unsatisfied_rate,
                   avg.good_per_query, avg.dead_per_query});
    if (n == 1000) {
      fig5.add_row({static_cast<std::int64_t>(c), avg.good_per_query,
                    avg.dead_per_query});
    }
  }

  fig34.print(std::cout,
              "Figures 3+4 (probes/query and unsatisfaction vs cache size)");
  fig5.print(std::cout, "Figure 5 (good vs dead probes, NetworkSize=1000)");
  std::cout << "\nPaper anchors: Fig 4's minimum at CacheSize 20-70 for all "
               "network sizes;\nFig 5's good probes peak near CacheSize=20 "
               "while dead probes keep growing.\n";
  if (scale.csv) {
    std::cout << "\nCSV fig3+4:\n" << fig34.to_csv();
    std::cout << "\nCSV fig5:\n" << fig5.to_csv();
  }
  return 0;
}
