// Figures 16, 17 and 18: robustness to cache poisoning WITHOUT collusion
// (BadPongBehavior = Dead: attackers hand out fabricated dead addresses).
//
// Policy combos per the paper: all three query-side types set together
// (e.g. MFS = MFS/MFS/LFS). Shapes to reproduce:
//   Fig 16 — probes/query grows with PercentBadPeers, worst for MFS;
//   Fig 17 — MFS satisfaction collapses toward 0% at 20% bad peers while
//            Random, MR and MR* stay robust;
//   Fig 18 — MFS's good link-cache entries collapse; the others hold
//            (MR evicts liars as soon as they return zero results).
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
  base.bad_pong_behavior = BadPongBehavior::kDead;

  experiments::print_header(
      std::cout, "Figures 16/17/18 — cache poisoning, no collusion (Dead)",
      "MFS (trusting NumFiles claims) collapses as attackers grow; Random, "
      "MR and MR* stay robust because dead addresses evict after one probe",
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
  table.print(std::cout, "Figures 16+17+18 (Dead pong poisoning)");
  std::cout << "\nPaper anchors: MFS reaches ~0% satisfaction at 20% bad "
               "peers and its good\ncache entries drop off; MR stays nearly "
               "flat (liars evicted after one probe);\nMR* tracks MR; Random "
               "is robust but expensive.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
