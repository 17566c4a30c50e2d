// Table 3: breakdown of live cache entries for varying cache sizes.
//
// Paper (NetworkSize=1000, LifespanMultiplier=0.2, Random policies):
//   CacheSize  FractionLive  AbsoluteLive
//   10         .822           8.0
//   20         .759          14.8
//   50         .605          28.5
//   100        .418          36.2
//   200        .330          41.9
//   500        .309          41.9
// Shape to reproduce: the live FRACTION falls as the cache grows (the fixed
// ping effort is spread too thin) while the ABSOLUTE number of live entries
// rises and saturates.
//
// Like the PingInterval study in the same section, the table isolates
// maintenance traffic: queries are disabled (query-driven Pong sharing
// would keep caches substantially fresher, see EXPERIMENTS.md).
#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams system;
  system.lifespan_multiplier = 0.2;  // the §6.1 strain setting
  ProtocolParams protocol;

  experiments::print_header(
      std::cout, "Table 3 — live link-cache entries vs CacheSize",
      "fraction live falls with cache size; absolute live entries rise "
      "and saturate",
      system, protocol, scale);

  TablePrinter table({"CacheSize", "Fraction Live", "Absolute Live",
                      "Entries", "paper fraction", "paper absolute"});
  const double paper_fraction[] = {.822, .759, .605, .418, .330, .309};
  const double paper_absolute[] = {8.0, 14.8, 28.5, 36.2, 41.9, 41.9};
  const std::size_t cache_sizes[] = {10, 20, 50, 100, 200, 500};

  std::vector<experiments::ConfigJob> jobs;
  for (std::size_t cache : cache_sizes) {
    ProtocolParams p = protocol;
    p.cache_size = cache;
    // Maintenance-only, with a long window: large caches take several mean
    // lifetimes to reach their (stale) steady state. Cheap without queries.
    SimulationOptions options = scale.options();
    options.enable_queries = false;
    options.warmup = scale.full ? 4000.0 : 2000.0;
    options.measure = scale.full ? 12000.0 : 4000.0;
    jobs.push_back({system, p, options});
  }
  auto averages = experiments::run_configs(jobs, scale);
  for (std::size_t i = 0; i < std::size(cache_sizes); ++i) {
    const auto& avg = averages[i];
    table.add_row({static_cast<std::int64_t>(cache_sizes[i]),
                   avg.fraction_live, avg.absolute_live,
                   avg.absolute_live / std::max(avg.fraction_live, 1e-9),
                   paper_fraction[i], paper_absolute[i]});
  }
  table.print(std::cout, "Table 3 (measured vs paper)");
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
