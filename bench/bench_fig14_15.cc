// Figures 14 and 15: limited peer capacity (MaxProbesPerSecond) under the
// load-concentrating MR policies.
//
// Shapes to reproduce:
//   Fig 14 — refused probes/query GROW with network size as capacity
//            shrinks (hot peers sit in many caches), while good and dead
//            probes stay roughly flat;
//   Fig 15 — query satisfaction is barely affected even when many probes
//            are refused (the implicit throttle reroutes load).
#include <algorithm>
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
  ProtocolParams protocol =
      experiments::PolicyCombo::from_name("MR").apply(ProtocolParams{});

  experiments::print_header(
      std::cout, "Figures 14/15 — capacity limits (MR policies)",
      "refused probes grow with network size under tight capacity, but "
      "satisfaction stays flat",
      base, protocol, scale);

  TablePrinter table({"NetworkSize", "MaxProbes/s", "Good/Query",
                      "Refused/Query", "DeadIPs/Query", "Unsatisfied"});

  const std::size_t network_sizes[] = {500, 1000, 2000, 5000};
  const std::uint32_t caps[] = {50, 10, 5, 1};
  std::vector<experiments::ConfigJob> jobs;
  for (std::size_t n : network_sizes) {
    for (std::uint32_t cap : caps) {
      SystemParams system = base;
      system.network_size = n;
      system.max_probes_per_second = cap;
      SimulationOptions options = scale.options();
      double shrink = std::min(1.0, 1000.0 / static_cast<double>(n));
      options.measure = std::max(scale.measure * shrink, 300.0);
      jobs.push_back({system, protocol, options});
    }
  }
  auto averages = experiments::run_configs(jobs, scale);
  std::size_t next = 0;
  for (std::size_t n : network_sizes) {
    for (std::uint32_t cap : caps) {
      const auto& avg = averages[next++];
      table.add_row({static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(cap), avg.good_per_query,
                     avg.refused_per_query, avg.dead_per_query,
                     avg.unsatisfied_rate});
    }
  }
  table.print(std::cout, "Figures 14+15 (probe breakdown and satisfaction)");
  std::cout << "\nPaper anchors: refused probes rise with NetworkSize at "
               "tight caps (Fig 14)\nwhile the unsatisfied rate barely "
               "moves (Fig 15).\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
