// Defense-in-depth ablation against colluding cache poisoning (§6.4 future
// work, §6.1 healing): plain MR vs MR + detection vs MR + detection +
// pong-server rebootstrap.
//
// Shape: plain MR collapses (Figures 19-21); detection alone stops probes
// from being wasted on known attackers but cannot rebuild the collapsed
// overlay (a fragmented overlay "is unlikely to heal" without a bootstrap
// server, §6.1); detection + rebootstrap restores service.
#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams base;
  base.bad_pong_behavior = BadPongBehavior::kBad;

  ProtocolParams mr = experiments::PolicyCombo::from_name("MR")
                          .apply(ProtocolParams{});

  experiments::print_header(
      std::cout, "Defense ablation — detection and rebootstrap vs collusion",
      "detection (blacklists + adaptive MR->MR* switch) stops the bleeding; "
      "the pong-server rebootstrap heals the overlay; both are needed",
      base, mr, scale);

  TablePrinter table({"PercentBad", "defense", "Probes/Query", "Unsatisfied",
                      "Good Cache Entries"});
  for (double bad : {10.0, 20.0}) {
    SystemParams system = base;
    system.percent_bad_peers = bad;
    for (int mode = 0; mode < 3; ++mode) {
      ProtocolParams protocol = mr;
      if (mode >= 1) protocol.detection.enabled = true;
      if (mode >= 2) protocol.pong_server_reseed = true;
      const char* name = mode == 0   ? "none"
                         : mode == 1 ? "detection"
                                     : "detection+reseed";
      SimulationOptions options = scale.options();
      // Steady state matters here: the attack needs time to saturate and
      // the defense time to recover.
      options.warmup = std::max(options.warmup, 1200.0);
      auto avg = experiments::run_config(system, protocol, scale, options);
      table.add_row({bad, std::string(name), avg.probes_per_query,
                     avg.unsatisfied_rate, avg.good_entries});
    }
  }
  table.print(std::cout, "MR under collusion, defense layers");
  std::cout << "\nReading guide: 'none' reproduces the Figure 20 collapse; "
               "'detection' cuts\nwasted probes but satisfaction stays poor "
               "(the overlay is already fragmented);\n'detection+reseed' "
               "restores good cache entries and satisfaction.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
