// Quickstart: simulate a 1000-peer GUESS network with the paper's default
// parameters (Tables 1 and 2) and print the headline metrics.
//
//   ./build/examples/quickstart [--seed=N] [--measure=SECONDS]
#include <iostream>

#include "common/flags.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  guess::Flags flags(argc, argv);

  guess::SystemParams system;      // Table 1 defaults: 1000 peers, ...
  guess::ProtocolParams protocol;  // Table 2 defaults: Random policies, ...

  auto config = guess::SimulationConfig()
                    .system(system)
                    .protocol(protocol)
                    .seed(flags.seed())
                    .warmup(flags.get_double("warmup", 600.0))
                    .measure(flags.get_double("measure", 1800.0));
  flags.reject_unread();

  std::cout << "GUESS quickstart\n"
            << "  system:   " << guess::describe(system) << "\n"
            << "  protocol: " << guess::describe(protocol) << "\n"
            << "  simulating " << config.options().warmup << "s warmup + "
            << config.options().measure << "s measurement...\n";

  guess::search::SearchResults run = guess::search::run_search(config);
  const auto& results = *run.extra_as<guess::SimulationResults>();

  std::cout << "\nResults (measurement window only):\n"
            << "  queries completed:    " << results.queries_completed << "\n"
            << "  unsatisfied:          " << 100.0 * results.unsatisfied_rate()
            << " %\n"
            << "  probes per query:     " << results.probes_per_query() << "\n"
            << "    good:               " << results.good_probes_per_query()
            << "\n"
            << "    dead (wasted):      " << results.dead_probes_per_query()
            << "\n"
            << "    refused:            " << results.refused_probes_per_query()
            << "\n"
            << "  mean response time:   " << results.response_time.mean()
            << " s\n"
            << "  query-cache size:     "
            << results.query_cache_population.mean() << " peers/query\n"
            << "  link-cache health:    " << results.cache_health.fraction_live
            << " live fraction, " << results.cache_health.absolute_live
            << " live entries\n"
            << "  peer deaths:          " << results.deaths << "\n";
  return 0;
}
