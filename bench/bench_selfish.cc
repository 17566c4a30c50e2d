// Selfish peers and probe payments (§3.3).
//
// A selfish peer ignores serial probing and blasts a wide batch of probes
// per slot, slashing its own response time while loading everyone else —
// "if all peers act according to their best interests, the system might
// fail as if under a DoS attack." The paper's sketched countermeasure is to
// make peers pay per probe (via a PPay-style mechanism); the probe-payment
// economy implements it: a peer's long-run probe rate is capped by the rate
// at which it serves others.
#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);

  SystemParams base;
  base.selfish_parallel_probes = 100;
  base.max_probes_per_second = 20;  // capacity tight enough to feel the blast

  experiments::print_header(
      std::cout, "Selfish peers & probe payments (§3.3)",
      "selfish blasting buys response time at everyone's expense; probe "
      "payments cap a peer's probe rate at its serve rate",
      base, ProtocolParams{}, scale);

  TablePrinter table({"selfish %", "payments", "selfish resp (s)",
                      "honest resp (s)", "selfish probes/q",
                      "honest probes/q", "refused/q", "honest unsat",
                      "stalled out"});

  for (double selfish_pct : {0.0, 10.0, 30.0}) {
    for (bool payments : {false, true}) {
      if (selfish_pct == 0.0 && payments) continue;
      SystemParams system = base;
      system.percent_selfish_peers = selfish_pct;
      ProtocolParams protocol;
      // An economy only works if honest demand is affordable: pair payments
      // with the efficient QueryPong=MFS configuration (~17 probes/query),
      // which a peer's serve income easily covers. (§3.3: payments motivate
      // peers "to probe as few peers as possible".)
      protocol.query_pong = Policy::kMFS;
      protocol.payments.enabled = payments;
      search::SearchResults run = search::run_search(
          SimulationConfig().system(system).protocol(protocol).options(
              scale.options()));
      const auto& results = *run.extra_as<SimulationResults>();
      table.add_row(
          {selfish_pct, std::string(payments ? "on" : "off"),
           results.selfish.response_time.mean(),
           results.honest.response_time.mean(),
           results.selfish.probes_per_query(),
           results.honest.probes_per_query(),
           results.refused_probes_per_query(),
           results.honest.unsatisfied_rate(),
           static_cast<std::int64_t>(results.queries_stalled_out)});
    }
  }
  table.print(std::cout, "selfish behaviour with and without payments");
  std::cout << "\nReading guide: without payments, selfish peers answer in a "
               "fraction of the\nhonest response time while blasting ~100 "
               "probes per slot; with payments their\nprobe volume collapses "
               "to what their serving earns, and the blast advantage\n"
               "largely disappears.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
