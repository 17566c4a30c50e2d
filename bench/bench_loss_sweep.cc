// Message-loss sweep (transport fault injection, DESIGN.md §8).
//
// The paper's §5.1 model assumes every probe and its reply complete within
// the timeout; this harness relaxes that assumption and measures how GUESS
// degrades when the wire drops messages. Each lost round trip looks like a
// dead peer to the prober (timeout -> eviction), so loss both slows queries
// (stalled timeout windows) and erodes link caches. Retries buy the fidelity
// back at the price of extra traffic.
//
//   ./build/bench/bench_loss_sweep [--max-retries=2] [--probe-timeout=2] ...
#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);

  SystemParams system;  // paper defaults
  ProtocolParams protocol;

  // The sweep template: every point is lossy; --max-retries /
  // --probe-timeout / --link-latency tune the recovery policy, --loss is
  // overridden per point.
  TransportParams transport = scale.transport;
  transport.kind = TransportParams::Kind::kLossy;

  experiments::print_header(
      std::cout, "Message-loss sweep (transport fault injection)",
      "relaxing the §5.1 in-timeout assumption: loss inflates response time "
      "by whole timeout windows and erodes caches; retries trade traffic "
      "for fidelity",
      system, protocol, scale);
  std::cout << "Retry policy: timeout=" << transport.probe_timeout
            << "s max_retries=" << transport.max_retries << "\n\n";

  TablePrinter table({"loss", "unsat %", "probes/query", "mean resp (s)",
                      "timeouts/query", "retransmits/query", "failed/query"});
  for (double loss : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    TransportParams point = transport;
    point.loss = loss;
    auto config = scale.config()
                      .system(system)
                      .protocol(protocol)
                      .transport(point);
    std::vector<SimulationResults> runs;
    for (const auto& run : search::run_search_seeds(config, scale.seeds)) {
      runs.push_back(*run.extra_as<SimulationResults>());
    }
    auto avg = average(runs);
    double timeouts = 0.0;
    double retransmits = 0.0;
    double failed = 0.0;
    for (const auto& r : runs) {
      auto queries =
          static_cast<double>(std::max<std::uint64_t>(r.queries_completed, 1));
      auto n = static_cast<double>(runs.size());
      timeouts += static_cast<double>(r.transport.timeouts) / queries / n;
      retransmits +=
          static_cast<double>(r.transport.retransmits) / queries / n;
      failed += static_cast<double>(r.transport.exchanges_failed) / queries / n;
    }
    table.add_row({loss, 100.0 * avg.unsatisfied_rate, avg.probes_per_query,
                   avg.response_time, timeouts, retransmits, failed});
  }
  table.print(std::cout, "loss sweep (per completed query)");

  std::cout << "\nReading: at loss=0 the lossy transport reproduces the "
               "synchronous results\n(modulo latency pacing); rising loss "
               "stretches response time by ~timeout per\nlost round trip "
               "while probes/query stays near-flat — GUESS retries other\n"
               "candidates rather than flooding, so loss costs time, not "
               "traffic.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return 0;
}
