// policy_showdown: run the same workload under each named policy combo and
// compare efficiency, satisfaction and fairness — a compact tour of the
// paper's §6.2/§6.3 story.
//
//   ./build/examples/policy_showdown [--seed=N] [--measure=SECONDS]
#include <iostream>

#include "analysis/load_analysis.h"
#include "common/flags.h"
#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  guess::Flags flags(argc, argv);

  guess::SystemParams system;
  guess::ProtocolParams base;

  guess::SimulationOptions options;
  options.seed = flags.seed();
  options.warmup = flags.get_double("warmup", 400.0);
  options.measure = flags.get_double("measure", 1600.0);

  const char* combos[] = {"Ran", "MRU", "LRU", "MFS", "MR", "MR*"};

  guess::TablePrinter table({"combo", "probes/query", "good", "dead",
                             "unsat%", "resp time (s)", "load gini",
                             "top-peer load"});
  std::cout << "Policy showdown: QueryProbe/QueryPong/CacheReplacement set "
               "together per combo\n"
            << "(system: " << guess::describe(system) << ")\n";

  for (const char* name : combos) {
    auto combo = guess::experiments::PolicyCombo::from_name(name);
    guess::search::SearchResults run = guess::search::run_search(
        guess::SimulationConfig()
            .system(system)
            .protocol(combo.apply(base))
            .options(options));
    const auto& results = *run.extra_as<guess::SimulationResults>();
    auto load = guess::analysis::summarize_load(results.peer_loads);
    table.add_row({std::string(name), results.probes_per_query(),
                   results.good_probes_per_query(),
                   results.dead_probes_per_query(),
                   100.0 * results.unsatisfied_rate(),
                   results.response_time.mean(), load.gini, load.max});
  }
  table.print(std::cout, "policy comparison (one seed)");
  std::cout << "\nReading guide: MFS slashes probes/query but concentrates "
               "load (gini, top-peer);\nMRU wastes probes on stale entries; "
               "Random is fair but expensive — §6.2/§6.3.\n";
  return 0;
}
