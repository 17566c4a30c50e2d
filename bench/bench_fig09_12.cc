// Figures 9, 10, 11 and 12: per-policy-type query efficiency.
//
// Each policy type is varied in isolation (all other types stay Random,
// §6.2). Shapes to reproduce:
//   Fig 9  — QueryProbe policy matters least (≤ ~25% swing);
//   Fig 10 — QueryPong = MFS cuts cost by ~4x vs Random;
//   Fig 11 — CacheReplacement = LFS cuts cost by ~5x; MRU is pathological
//            (mostly dead probes);
//   Fig 12 — unsatisfaction stays in the 6-14% band for QueryPong policies.
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams system;  // paper defaults
  ProtocolParams base;

  experiments::print_header(
      std::cout, "Figures 9-12 — policy comparison (one type at a time)",
      "QueryPong and CacheReplacement dominate performance (4-5x swings); "
      "QueryProbe barely matters; MRU replacement wastes probes on the dead",
      system, base, scale);

  // All 15 configurations (3 policy types × 5 policies) share one worker
  // pool; rows are emitted from the ordered results afterwards.
  const Policy policies[] = {Policy::kRandom, Policy::kMRU, Policy::kLRU,
                             Policy::kMFS, Policy::kMR};
  const Replacement replacements[] = {Replacement::kRandom, Replacement::kLRU,
                                      Replacement::kMRU, Replacement::kLFS,
                                      Replacement::kLR};
  std::vector<experiments::ConfigJob> jobs;
  for (Policy policy : policies) {
    ProtocolParams p = base;
    p.query_probe = policy;
    jobs.push_back({system, p, scale.options()});
  }
  for (Policy policy : policies) {
    ProtocolParams p = base;
    p.query_pong = policy;
    jobs.push_back({system, p, scale.options()});
  }
  for (Replacement policy : replacements) {
    ProtocolParams p = base;
    p.cache_replacement = policy;
    jobs.push_back({system, p, scale.options()});
  }
  auto averages = experiments::run_configs(jobs, scale);
  std::size_t next = 0;

  auto policy_row = [&](TablePrinter& table, const std::string& name) {
    const auto& avg = averages[next++];
    table.add_row({name, avg.probes_per_query, avg.good_per_query,
                   avg.dead_per_query, avg.unsatisfied_rate});
  };

  TablePrinter fig9({"QueryProbe", "Probes/Query", "Good", "DeadIPs",
                     "Unsatisfied"});
  for (Policy policy : policies) policy_row(fig9, to_string(policy));
  fig9.print(std::cout, "Figure 9 (QueryProbe varied)");

  TablePrinter fig10({"QueryPong", "Probes/Query", "Good", "DeadIPs",
                      "Unsatisfied"});
  for (Policy policy : policies) policy_row(fig10, to_string(policy));
  fig10.print(std::cout, "Figure 10 (QueryPong varied) — also Figure 12's "
                         "unsatisfaction column");

  TablePrinter fig11({"CacheReplacement", "Probes/Query", "Good", "DeadIPs",
                      "Unsatisfied"});
  for (Replacement policy : replacements)
    policy_row(fig11, to_string(policy));
  fig11.print(std::cout, "Figure 11 (CacheReplacement varied)");

  std::cout << "\nPaper anchors: Fig 10 MFS ~4x cheaper than Random; Fig 11 "
               "LFS ~5x cheaper,\nMRU dominated by dead probes; Fig 9 swing "
               "~25%; Fig 12 unsatisfaction 6-14%.\n";
  if (scale.csv) {
    std::cout << "\nCSV fig9:\n" << fig9.to_csv();
    std::cout << "\nCSV fig10:\n" << fig10.to_csv();
    std::cout << "\nCSV fig11:\n" << fig11.to_csv();
  }
  return 0;
}
