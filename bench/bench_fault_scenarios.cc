// Fault-scenario recovery study (DESIGN.md §9).
//
// Three canned correlated-fault scenarios — a 30% mass departure, a 2-way
// network partition, and a transport loss window — each run against the
// paper-default network with the time-resolved interval series enabled. For
// every scenario the harness reports the per-interval success-rate series
// (pooled across seeds: same boundaries, summed counts) and the derived
// recovery metrics: pre-fault baseline, minimum success during the fault,
// time to recovery, and post-onset availability.
//
//   ./build/bench/bench_fault_scenarios [--interval=60] [--seeds=3]
//       [--n=200] [--warmup=150] [--measure=600]
//       [--scenario="at 800 kill 0.5"]      # replace the canned set
//
// Scenario runs are bitwise deterministic: the same seed produces the same
// series under --scheduler=heap and =calendar and any --threads value (the
// determinism suite asserts this).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"
#include "faults/scenario.h"
#include "search/backend.h"

namespace {

using namespace guess;

/// Pool the per-seed interval series: boundaries are identical across seeds
/// (same horizon, same width), so counts sum and live populations average.
IntervalSeries pool_series(const std::vector<search::SearchResults>& runs) {
  IntervalSeries pooled;
  for (const search::SearchResults& run : runs) {
    const IntervalSeries& series = run.interval_series;
    if (pooled.size() < series.size()) pooled.resize(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      pooled[i].start = series[i].start;
      pooled[i].end = series[i].end;
      pooled[i].queries_completed += series[i].queries_completed;
      pooled[i].queries_satisfied += series[i].queries_satisfied;
      pooled[i].probes += series[i].probes;
      pooled[i].live_peers += series[i].live_peers;
      pooled[i].transport += series[i].transport;
    }
  }
  if (!runs.empty()) {
    for (IntervalSample& s : pooled) s.live_peers /= runs.size();
  }
  return pooled;
}

struct NamedScenario {
  std::string name;
  faults::Scenario scenario;
  /// Loss-window scenarios degrade the transport and need the lossy kind.
  bool needs_lossy = false;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  double interval =
      scale.metrics_interval > 0.0 ? scale.metrics_interval : 60.0;
  scale.metrics_interval = interval;
  scale.warmup = flags.get_double("warmup", scale.warmup);
  scale.measure = flags.get_double("measure", scale.measure);

  SystemParams system;  // paper defaults
  system.network_size = flags.get_size("n", system.network_size);
  flags.reject_unread();
  ProtocolParams protocol;

  // Canned scenarios, placed a quarter into the measurement window so both
  // the pre-fault baseline and the recovery tail have room.
  const sim::Time t0 = scale.warmup + 0.25 * scale.measure;
  const sim::Duration window = 0.15 * scale.measure;
  std::vector<NamedScenario> scenarios;
  if (!scale.scenario.empty()) {
    // --scenario / --scenario-file replaces the canned set.
    scenarios.push_back({"custom", scale.scenario,
                         scale.scenario.uses_degradation()});
  } else {
    faults::Scenario kill;
    kill.add({faults::FaultKind::kKill, t0, /*fraction=*/0.30});
    faults::Scenario partition;
    {
      faults::FaultAction a;
      a.kind = faults::FaultKind::kPartition;
      a.at = t0;
      a.ways = 2;
      a.duration = window;
      partition.add(a);
    }
    faults::Scenario loss_window;
    {
      faults::FaultAction a;
      a.kind = faults::FaultKind::kDegrade;
      a.at = t0;
      a.duration = window;
      a.loss = 0.5;
      a.latency_factor = 2.0;
      loss_window.add(a);
    }
    scenarios.push_back({"mass kill 30%", kill, false});
    scenarios.push_back({"2-way partition", partition, false});
    scenarios.push_back({"loss window 0.5", loss_window, true});
  }

  experiments::print_header(
      std::cout, "Fault-scenario recovery (correlated failures)",
      "GUESS self-heals after correlated faults: success dips while caches "
      "hold corpses or the overlay is cut, then ping eviction and pong "
      "gossip restore the pre-fault baseline",
      system, protocol, scale);
  std::cout << "Faults at t=" << t0 << "s (windows " << window
            << "s); interval " << interval << "s; success pooled over "
            << scale.seeds << " seed(s)\n";

  TablePrinter summary({"scenario", "baseline %", "min during %",
                        "recovery (s)", "availability %"});
  for (const NamedScenario& entry : scenarios) {
    entry.scenario.validate();
    TransportParams transport = scale.transport;
    if (entry.needs_lossy) transport.kind = TransportParams::Kind::kLossy;
    auto config = scale.config()
                      .system(system)
                      .protocol(protocol)
                      .transport(transport)
                      .scenario(entry.scenario);
    auto runs = search::run_search_seeds(config, scale.seeds);
    IntervalSeries pooled = pool_series(runs);
    RecoveryMetrics recovery =
        compute_recovery(pooled, entry.scenario.first_fault_time(),
                         entry.scenario.last_fault_end());

    std::cout << "\n--- " << entry.name << ": "
              << entry.scenario.describe() << " ---\n"
              << "  start    end   success%  queries  live\n";
    for (const IntervalSample& s : pooled) {
      std::cout << "  " << s.start << "  " << s.end << "  ";
      if (s.queries_completed == 0) {
        std::cout << "-";
      } else {
        std::cout << 100.0 * s.success_rate();
      }
      std::cout << "  " << s.queries_completed << "  " << s.live_peers
                << "\n";
    }
    summary.add_row(
        {entry.name, 100.0 * recovery.baseline,
         100.0 * recovery.min_during_fault,
         recovery.time_to_recovery < 0.0
             ? TablePrinter::Cell{std::string("never")}
             : TablePrinter::Cell{recovery.time_to_recovery},
         100.0 * recovery.availability});
  }
  std::cout << "\n";
  summary.print(std::cout,
                "recovery metrics (epsilon = 0.05 of baseline success)");

  std::cout << "\nReading: the mass kill dips success while dead cache "
               "entries linger and\nrecovers as pings evict them; the "
               "partition forces cross-group probes to\ntime out until it "
               "heals; the loss window degrades every exchange, and\n"
               "recovery is immediate once the wire clears.\n";
  if (scale.csv) std::cout << "\nCSV:\n" << summary.to_csv();
  return 0;
}
