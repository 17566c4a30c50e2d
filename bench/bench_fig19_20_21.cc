// Figures 19, 20 and 21: robustness to cache poisoning WITH collusion
// (BadPongBehavior = Bad: attackers advertise each other).
//
// Shapes to reproduce:
//   Fig 19/20 — now MR collapses too (each probe of a liar imports
//               PongSize fresh liars: they enter faster than LR evicts);
//               MFS collapses as before; MR* and Random stay robust;
//   Fig 21   — good cache entries collapse for BOTH MR and MFS;
//   and at 0% bad peers the efficiency order is MFS < MR < MR* (the paper
//   quotes ~4, ~7 and ~17 probes/query).
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
  base.bad_pong_behavior = BadPongBehavior::kBad;

  experiments::print_header(
      std::cout, "Figures 19/20/21 — cache poisoning with collusion (Bad)",
      "collusion defeats MR as well as MFS; MR* (first-hand experience "
      "only) and Random survive, with MR* clearly cheaper than Random",
      base, ProtocolParams{}, scale);

  TablePrinter table({"combo", "PercentBad", "Probes/Query", "+-",
                      "Unsatisfied", "+-", "Good Cache Entries"});
  const double bad_levels[] = {0.0, 5.0, 10.0, 15.0, 20.0};
  std::vector<experiments::ConfigJob> jobs;
  for (const auto& combo : experiments::robustness_combos()) {
    ProtocolParams protocol = combo.apply(ProtocolParams{});
    for (double bad : bad_levels) {
      SystemParams system = base;
      system.percent_bad_peers = bad;
      jobs.push_back({system, protocol, scale.options()});
    }
  }
  auto averages = experiments::run_configs(jobs, scale);
  std::size_t next = 0;
  for (const auto& combo : experiments::robustness_combos()) {
    for (double bad : bad_levels) {
      const auto& avg = averages[next++];
      table.add_row({combo.name, bad, avg.probes_per_query,
                     avg.probes_per_query_se, avg.unsatisfied_rate,
                     avg.unsatisfied_rate_se, avg.good_entries});
    }
  }
  table.print(std::cout, "Figures 19+20+21 (colluding pong poisoning)");
  std::cout << "\nPaper anchors: MR and MFS hit ~0% satisfaction at 20% bad "
               "(Fig 20) and their\ngood cache entries collapse (Fig 21); "
               "MR* and Random remain robust, and at\n0% bad the order is "
               "MFS(~4) < MR(~7) < MR*(~17) probes/query.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
