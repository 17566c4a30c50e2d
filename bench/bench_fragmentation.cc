// Fragmentation attacks and flooding amplification (§3).
//
// Two qualitative claims from the Gnutella comparison:
//   * power-law overlays (the kind peer autonomy naturally produces)
//     fragment when high-degree peers are attacked; degree-capped random
//     overlays degrade gracefully;
//   * flooding amplifies one query into orders of magnitude more messages
//     than the peers it actually reaches (the DoS lever of §3.3).
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "gnutella/flood.h"
#include "gnutella/topology.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  const std::size_t n = flags.get_size("n", flags.full() ? 10000 : 2000);
  Rng rng(flags.seed());
  flags.reject_unread();

  std::cout << "Fragmentation & amplification (§3), overlays of " << n
            << " peers\n";

  auto power_law = gnutella::power_law_topology(n, 2, rng);
  auto random = gnutella::random_topology(n, 2, rng);

  TablePrinter frag({"overlay", "removed top-degree", "removed %", "LCC",
                     "LCC fraction"});
  for (auto* graph : {&power_law, &random}) {
    const char* name = graph == &power_law ? "power-law" : "random";
    auto order = graph->nodes_by_degree();
    for (double pct : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0}) {
      auto remove = static_cast<std::size_t>(pct / 100.0 *
                                             static_cast<double>(n));
      std::vector<char> alive(n, 1);
      for (std::size_t i = 0; i < remove; ++i) alive[order[i]] = 0;
      std::size_t lcc = graph->largest_component(alive);
      frag.add_row({std::string(name), static_cast<std::int64_t>(remove),
                    pct, static_cast<std::int64_t>(lcc),
                    static_cast<double>(lcc) /
                        static_cast<double>(n - remove)});
    }
  }
  frag.print(std::cout,
             "fragmentation attack (network-level DoS on hubs, §3.3)");

  TablePrinter amp({"overlay", "TTL", "peers reached", "messages",
                    "amplification (msgs/reached)"});
  for (auto* graph : {&power_law, &random}) {
    const char* name = graph == &power_law ? "power-law" : "random";
    for (std::size_t ttl : {2u, 4u, 6u, 8u}) {
      // Average over a few random origins.
      double reached = 0.0, messages = 0.0;
      const int origins = 50;
      for (int i = 0; i < origins; ++i) {
        auto result = gnutella::flood_reach(*graph, rng.index(n), ttl);
        reached += static_cast<double>(result.peers_reached);
        messages += static_cast<double>(result.messages);
      }
      reached /= origins;
      messages /= origins;
      amp.add_row({std::string(name), static_cast<std::int64_t>(ttl),
                   reached, messages, messages / std::max(reached, 1.0)});
    }
  }
  amp.print(std::cout, "flooding amplification (§3.1/§3.3)");
  std::cout << "\nReading guide: the power-law overlay loses far more of its "
               "largest component\nthan the random overlay at equal removals; "
               "flood messages exceed peers reached\nby a growing factor — "
               "GUESS probes cost exactly one message each.\n";
  return 0;
}
