// poisoning_attack: watch a cache-poisoning attack unfold (§6.4).
//
// Runs the MFS, MR and MR* policy combos against colluding attackers at a
// configurable PercentBadPeers and reports how query satisfaction and cache
// health degrade.
//
//   ./build/examples/poisoning_attack [--bad=10] [--behavior=Bad|Dead]
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  guess::Flags flags(argc, argv);
  double bad_percent = flags.get_double("bad", 10.0);
  guess::BadPongBehavior behavior =
      guess::parse_bad_pong_behavior(flags.get_string("behavior", "Bad"));

  guess::SystemParams system;
  system.percent_bad_peers = bad_percent;
  system.bad_pong_behavior = behavior;

  guess::SimulationOptions options;
  options.seed = flags.seed();
  options.warmup = flags.get_double("warmup", 400.0);
  options.measure = flags.get_double("measure", 1600.0);

  std::cout << "Cache poisoning: " << bad_percent << "% malicious peers, "
            << "BadPongBehavior=" << guess::to_string(behavior) << "\n"
            << (behavior == guess::BadPongBehavior::kBad
                    ? "(colluding: attackers advertise each other)\n"
                    : "(non-colluding: attackers advertise dead addresses)\n");

  guess::TablePrinter table({"combo", "probes/query", "unsat%",
                             "good cache entries", "live fraction"});
  for (const char* name : {"Ran", "MR", "MR*", "MFS"}) {
    auto combo = guess::experiments::PolicyCombo::from_name(name);
    guess::ProtocolParams protocol = combo.apply(guess::ProtocolParams{});
    guess::search::SearchResults run = guess::search::run_search(
        guess::SimulationConfig().system(system).protocol(protocol).options(
            options));
    const auto& results = *run.extra_as<guess::SimulationResults>();
    table.add_row({std::string(name), results.probes_per_query(),
                   100.0 * results.unsatisfied_rate(),
                   results.cache_health.good_entries,
                   results.cache_health.fraction_live});
  }
  table.print(std::cout, "robustness under cache poisoning");
  std::cout << "\nReading guide: trusting policies (MFS, and MR under "
               "collusion) lose their good\ncache entries and stop "
               "satisfying queries; MR* trusts only first-hand results\n"
               "and degrades gracefully — §6.4, Figures 16-21.\n";
  return 0;
}
