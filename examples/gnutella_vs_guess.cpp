// gnutella_vs_guess: the §3 comparison made concrete.
//
// Floods queries over a Gnutella-style overlay (fixed extent, amplified
// messages) and runs the same workload through GUESS probing, then compares
// messages per query and satisfaction. Also demonstrates the §3.3
// fragmentation attack on a power-law overlay.
//
//   ./build/examples/gnutella_vs_guess [--n=1000] [--ttl=4]
#include <iostream>

#include "baseline/static_population.h"
#include "common/flags.h"
#include "common/table.h"
#include "gnutella/flood.h"
#include "gnutella/topology.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  guess::Flags flags(argc, argv);
  const std::size_t n = flags.get_size("n", 1000);
  const std::size_t ttl = flags.get_size("ttl", 4);
  guess::Rng rng(flags.seed());
  flags.reject_unread();

  guess::SystemParams system;
  system.network_size = n;
  guess::content::ContentModel model(system.content);
  guess::baseline::StaticPopulation population(model, n, rng);

  // --- Gnutella: flood over a power-law overlay ---
  auto topology = guess::gnutella::power_law_topology(n, 3, rng);
  std::size_t queries = 2000;
  std::uint64_t messages = 0;
  std::size_t satisfied = 0;
  double reached = 0.0;
  for (std::size_t q = 0; q < queries; ++q) {
    auto origin = rng.index(n);
    auto file = model.draw_query(rng);
    auto flood =
        guess::gnutella::flood_query(topology, population, origin, file, ttl);
    messages += flood.messages;
    reached += static_cast<double>(flood.peers_reached);
    if (flood.results >= 1) ++satisfied;
  }

  // --- GUESS: adaptive probing, QueryPong = MFS (§6.2's efficient choice) ---
  guess::ProtocolParams protocol;
  protocol.query_pong = guess::Policy::kMFS;
  guess::SimulationOptions options;
  options.seed = flags.seed();
  options.warmup = 400.0;
  options.measure = 1600.0;
  guess::search::SearchResults run = guess::search::run_search(
      guess::SimulationConfig().system(system).protocol(protocol).options(
          options));
  const auto& results = *run.extra_as<guess::SimulationResults>();

  guess::TablePrinter table(
      {"mechanism", "msgs/query", "peers contacted", "unsat%"});
  table.add_row({std::string("Gnutella flood (TTL=") + std::to_string(ttl) +
                     ")",
                 static_cast<double>(messages) / static_cast<double>(queries),
                 reached / static_cast<double>(queries),
                 100.0 * (1.0 - static_cast<double>(satisfied) /
                                    static_cast<double>(queries))});
  table.add_row({std::string("GUESS (QueryPong=MFS)"),
                 results.probes_per_query(), results.probes_per_query(),
                 100.0 * results.unsatisfied_rate()});
  table.print(std::cout, "forwarding vs non-forwarding search");

  // --- §3.3: fragmentation attack on the power-law overlay ---
  guess::TablePrinter frag({"overlay", "top peers removed", "LCC"});
  auto random_graph = guess::gnutella::random_topology(n, 3, rng);
  for (auto* graph : {&topology, &random_graph}) {
    const char* name =
        graph == &topology ? "power-law" : "degree-capped random";
    auto order = graph->nodes_by_degree();
    for (std::size_t removed : {std::size_t{0}, n / 50, n / 10}) {
      std::vector<char> alive(n, 1);
      for (std::size_t i = 0; i < removed; ++i) alive[order[i]] = 0;
      frag.add_row({std::string(name),
                    static_cast<std::int64_t>(removed),
                    static_cast<std::int64_t>(graph->largest_component(alive))});
    }
  }
  frag.print(std::cout, "fragmentation attack (remove highest-degree peers)");
  std::cout << "\nReading guide: flooding amplifies each query into "
               "thousands of messages at fixed\nextent; GUESS contacts an "
               "adaptive number of peers. Power-law overlays shatter\nwhen "
               "hubs are attacked; degree-capped overlays do not — §3.\n";
  return 0;
}
