// GUESS vs a live Gnutella (§3, made quantitative).
//
// The same workload (Table 1 system, identical content model, churn and
// bursty query arrivals) is run through the non-forwarding GUESS protocol
// and through a live forwarding overlay with TTL flooding and connection
// repair. The §3 qualitative comparison becomes numbers: per-query network
// cost, satisfaction, response time, load skew, and a TTL sweep showing the
// fixed-extent dilemma on a living network.
#include <iostream>

#include "analysis/load_analysis.h"
#include "common/table.h"
#include "experiments/harness.h"
#include "gnutella/dynamic_overlay.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams system;  // Table 1 defaults
  experiments::print_header(
      std::cout, "GUESS vs live Gnutella (same workload)",
      "non-forwarding search costs over an order of magnitude fewer "
      "messages at equal satisfaction; flooding wins on response time",
      system, ProtocolParams{}, scale);

  TablePrinter table({"mechanism", "msgs/query", "unsat", "resp (s)",
                      "load gini"});

  auto add_guess_row = [&](const char* name, ProtocolParams protocol) {
    search::SearchResults run = search::run_search(
        SimulationConfig().system(system).protocol(protocol).options(
            scale.options()));
    const auto& results = *run.extra_as<SimulationResults>();
    table.add_row({std::string(name), results.probes_per_query(),
                   results.unsatisfied_rate(), results.response_time.mean(),
                   analysis::gini_coefficient(results.peer_loads.values())});
  };
  add_guess_row("GUESS (Random)", ProtocolParams{});
  {
    ProtocolParams mfs;
    mfs.query_pong = Policy::kMFS;
    add_guess_row("GUESS (QueryPong=MFS)", mfs);
  }
  {
    ProtocolParams parallel;
    parallel.query_pong = Policy::kMFS;
    parallel.parallel_probes = 5;
    add_guess_row("GUESS (MFS, k=5 walks)", parallel);
  }

  for (std::size_t ttl : {2u, 3u, 4u, 5u}) {
    search::SearchResults run = search::run_search(
        SimulationConfig()
            .backend(SearchBackendId::kFlood)
            .system(system)
            .flood({.ttl = ttl})
            .options(scale.options()));
    const auto& results = *run.extra_as<gnutella::DynamicResults>();
    table.add_row({std::string("Gnutella flood TTL=") + std::to_string(ttl),
                   run.query_messages_per_query(), run.unsatisfied_rate(),
                   run.response_time.mean(),
                   analysis::gini_coefficient(results.peer_loads.values())});
  }

  table.print(std::cout, "forwarding vs non-forwarding, live networks");
  std::cout << "\nReading guide: at the TTL where flooding matches GUESS's "
               "satisfaction, its\nmessage cost is 1-2 orders of magnitude "
               "higher (§3.1); its response time is\nbetter — the §6.2 "
               "parallel walks close most of that gap. Smaller TTLs are\n"
               "cheap but miss rare items: the fixed-extent dilemma.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
