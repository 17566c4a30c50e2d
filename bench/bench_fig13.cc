// Figure 13: ranked per-peer load under different QueryProbe /
// CacheReplacement combinations.
//
// Shape to reproduce: MFS/LFS and MR/LR concentrate the load on a handful
// of peers (steep head on the ranked curve, high Gini); Random/Random is
// far flatter but its total probe volume is many times larger.
#include <iostream>

#include "analysis/load_analysis.h"
#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  flags.reject_unread();

  SystemParams system;  // paper defaults
  ProtocolParams base;

  experiments::print_header(
      std::cout, "Figure 13 — ranked load distribution per policy combo",
      "efficient policies (MFS/LFS, MR/LR) pile the probes onto a few "
      "peers; Random/Random spreads them but sends ~8x more total probes",
      system, base, scale);

  struct Combo {
    const char* name;
    Policy probe;
    Replacement replacement;
  };
  const Combo combos[] = {
      {"Random/Random", Policy::kRandom, Replacement::kRandom},
      {"MFS/LFS", Policy::kMFS, Replacement::kLFS},
      {"MR/LR", Policy::kMR, Replacement::kLR},
      {"MRU/LRU", Policy::kMRU, Replacement::kLRU},
  };

  TablePrinter summary({"combo", "total probes", "gini", "top-1% share",
                        "max load", "p99 load"});
  TablePrinter curves({"combo", "rank", "load (probes received)"});

  for (const Combo& combo : combos) {
    ProtocolParams p = base;
    p.query_probe = combo.probe;
    p.cache_replacement = combo.replacement;
    // One representative seed: the ranked curve is a distribution over
    // peers, already thousands of samples.
    search::SearchResults run = search::run_search(
        SimulationConfig().system(system).protocol(p).options(
            scale.options()));
    const auto& results = *run.extra_as<SimulationResults>();
    auto load = analysis::summarize_load(results.peer_loads);
    summary.add_row({std::string(combo.name), load.total, load.gini,
                     load.top1pct_share, load.max, load.p99});
    for (auto [rank, value] : analysis::ranked_curve(results.peer_loads, 12)) {
      curves.add_row({std::string(combo.name),
                      static_cast<std::int64_t>(rank), value});
    }
  }

  summary.print(std::cout, "Figure 13 (load concentration summary)");
  curves.print(std::cout, "Figure 13 (ranked load curves, log-spaced ranks)");
  std::cout << "\nPaper anchors: MFS/LFS and MR/LR heads reach thousands of "
               "probes on rank-1 peers\nwhile their tails idle; "
               "Random/Random is level but with ~8x total probes.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << curves.to_csv();
  return 0;
}
