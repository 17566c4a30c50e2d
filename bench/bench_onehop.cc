// One-hop DHT vs GUESS (§1's positioning against reference [1]).
//
// Both avoid message forwarding; the costs land in different places. The
// DHT guarantees (near-)one-hop lookups but must disseminate every
// membership event to every peer, so its maintenance bill scales with
// churn × population and it only supports search-by-identifier. GUESS pays
// per query (an adaptive number of probes) with maintenance bounded by its
// small link cache — and supports flexible search.
#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"
#include "onehop/one_hop_dht.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams system;
  experiments::print_header(
      std::cout, "One-hop DHT vs GUESS (non-forwarding, two ways)",
      "the DHT's lookups are ~1 probe but its maintenance scales with "
      "churn x N; GUESS pays per query with O(cache) maintenance",
      system, ProtocolParams{}, scale);

  TablePrinter table({"system", "churn x", "probes per op", "1-hop %",
                      "maint msgs/peer/s", "unsat"});

  auto run_dht = [&](double multiplier, double delay) {
    SystemParams s = system;
    s.lifespan_multiplier = multiplier;
    search::SearchResults run = search::run_search(
        SimulationConfig()
            .backend(SearchBackendId::kOneHop)
            .system(s)
            .onehop({.dissemination_delay = delay})
            .options(scale.options()));
    const auto& results = *run.extra_as<onehop::OneHopResults>();
    table.add_row(
        {std::string("one-hop DHT (D=") + std::to_string(int(delay)) + "s)",
         multiplier, results.mean_probes(),
         100.0 * results.one_hop_fraction(),
         results.maintenance_msgs_per_peer_per_sec(scale.measure),
         std::string("n/a (exact-match)")});
  };

  auto run_guess = [&](double multiplier) {
    SystemParams s = system;
    s.lifespan_multiplier = multiplier;
    ProtocolParams protocol;
    protocol.query_pong = Policy::kMFS;
    search::SearchResults run = search::run_search(
        SimulationConfig().system(s).protocol(protocol).options(
            scale.options()));
    const auto& results = *run.extra_as<SimulationResults>();
    // GUESS maintenance: one ping per PingInterval per peer.
    table.add_row({std::string("GUESS (QueryPong=MFS)"), multiplier,
                   results.probes_per_query(), 0.0, 1.0 / 30.0,
                   results.unsatisfied_rate()});
  };

  for (double multiplier : {1.0, 0.2}) {
    run_dht(multiplier, 30.0);
    run_dht(multiplier, 120.0);
    run_guess(multiplier);
  }

  table.print(std::cout, "lookup cost vs maintenance cost under churn");
  std::cout << "\nReading guide: the DHT answers in ~1 probe but every peer "
               "pays the global\nmembership-event rate (2N/mean-lifetime "
               "msgs/s — it grows 5x at 0.2x lifespans\nand linearly with "
               "N); GUESS maintenance is a constant 1 ping per 30 s\n"
               "regardless of N, with the cost shifted to an adaptive "
               "per-query probe count.\nThe DHT also answers only exact "
               "identifier lookups (§1) — 'unsat' does not\napply: keys "
               "always resolve to their owner.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
