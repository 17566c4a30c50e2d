// Response time and parallel probes (§6.2, discussion after Figure 12).
//
// The GUESS spec paces one probe per 0.2 s, so response time is linear in
// the probe count; k parallel probes cut it by ~k while adding at most k-1
// probes. Paper example: QueryPong=MFS needs ~17 probes, and with k=5 the
// probe count stays ≤ ~21 while mean response time drops under a second.
#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);

  SystemParams system;  // paper defaults
  ProtocolParams base;
  base.query_pong = Policy::kMFS;  // the §6.2 efficient configuration

  experiments::print_header(
      std::cout, "Response time — parallel probes (§6.2)",
      "k parallel probes add at most k-1 probes per query but divide "
      "response time by ~k",
      system, base, scale);

  TablePrinter table({"parallel k", "probes/query", "mean resp (s)",
                      "extra probes vs k=1", "speedup vs k=1"});
  double base_probes = 0.0;
  double base_time = 0.0;
  for (std::size_t k : {1u, 2u, 5u, 10u, 20u}) {
    ProtocolParams p = base;
    p.parallel_probes = k;
    auto avg = experiments::run_config(system, p, scale);
    if (k == 1) {
      base_probes = avg.probes_per_query;
      base_time = avg.response_time;
    }
    table.add_row({static_cast<std::int64_t>(k), avg.probes_per_query,
                   avg.response_time, avg.probes_per_query - base_probes,
                   base_time / std::max(avg.response_time, 1e-9)});
  }
  table.print(std::cout, "parallel probe walks (QueryPong=MFS)");

  // §6.2's closing suggestion: "a more sophisticated solution may
  // adaptively increase k if successive sets of parallel probes are
  // unsuccessful" — compare the worst-case tail.
  TablePrinter adaptive_table({"mode", "probes/query", "mean resp (s)",
                               "max resp (s)"});
  for (bool adaptive : {false, true}) {
    ProtocolParams p = base;
    p.adaptive_parallel = adaptive;
    p.adaptive_parallel_trigger = 5;
    search::SearchResults run = search::run_search(
        SimulationConfig().system(system).protocol(p).options(
            scale.options()));
    const auto& results = *run.extra_as<SimulationResults>();
    adaptive_table.add_row(
        {std::string(adaptive ? "adaptive k (x2 per 5 dry slots)"
                              : "fixed k=1"),
         results.probes_per_query(), results.response_time.mean(),
         results.response_time.max()});
  }
  adaptive_table.print(std::cout,
                       "adaptive probe-rate ramp (worst-case tail)");

  std::cout << "\nPaper anchor: k=5 keeps probes ≤ ~baseline+4 while mean "
               "response time falls\nbelow one second for the MFS "
               "configuration; the adaptive ramp compresses the\nworst-case "
               "tail that fixed serial probing leaves (50+ seconds).\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
