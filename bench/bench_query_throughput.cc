// Query-path throughput harness: measures end-to-end GUESS simulation
// throughput (queries/sec and probes/sec of wall-clock time) at several
// network sizes.
//
// Results are printed as tables and written to BENCH_queries.json
// (override with --out=...). --full adds the N=50k point quoted in
// README.md; --check=<baseline.json> compares the measured end-to-end
// queries/sec against a checked-in baseline and exits nonzero on a
// regression beyond --tolerance (default 0.30) — the CI benchmark-smoke
// gate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "search/backend.h"

namespace guess {
namespace {

// --- End-to-end: a churn-heavy, deterministic-policy GUESS run ------------
//
// The workload is frozen: MR/MR query policies with LR replacement and
// LRU/MFS maintenance policies (every policy deterministic, exercising the
// incremental score index), default churn and content. Simulated duration
// scales down as N grows so every point costs a few wall-seconds.

struct EndToEnd {
  std::size_t network = 0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  SimulationResults results;

  double queries_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.queries_completed) / wall_seconds
               : 0.0;
  }
  double probes_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.probes.total()) / wall_seconds
               : 0.0;
  }
  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

sim::Duration measure_for(std::size_t network) {
  if (network >= 50000) return 60.0;
  if (network >= 10000) return 300.0;
  return 1200.0;
}

SimulationConfig config_for(std::size_t network, sim::Duration measure,
                            std::uint64_t seed, sim::Scheduler scheduler) {
  SystemParams system;
  system.network_size = network;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.ping_probe = Policy::kLRU;
  protocol.ping_pong = Policy::kMFS;
  protocol.cache_replacement = Replacement::kLR;
  return SimulationConfig()
      .system(system)
      .protocol(protocol)
      .seed(seed)
      .warmup(measure / 4.0)
      .measure(measure)
      .scheduler(scheduler);
}

EndToEnd run_end_to_end(std::size_t network, sim::Duration measure,
                        std::uint64_t seed, sim::Scheduler scheduler) {
  SimulationConfig config = config_for(network, measure, seed, scheduler);
  auto start = std::chrono::steady_clock::now();
  search::SearchResults run = search::run_search(config);
  auto stop = std::chrono::steady_clock::now();
  EndToEnd out;
  out.network = network;
  out.results = *run.extra_as<SimulationResults>();
  out.wall_seconds = std::chrono::duration<double>(stop - start).count();
  out.events = run.events_fired;
  return out;
}

// --- JSON output ----------------------------------------------------------

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<EndToEnd>& points, bool identical) {
  std::ofstream out(path);
  GUESS_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\n";
  out << "  \"workload\": {\"policies\": \"probe=MR pong=MR ping=LRU/MFS "
         "replace=LR\", \"seed\": "
      << seed << "},\n";
  out << "  \"end_to_end\": {\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const EndToEnd& p = points[i];
    out << "    \"n" << p.network << "\": {"
        << "\"measure_seconds\": " << std::fixed << std::setprecision(0)
        << measure_for(p.network) << ", \"wall_seconds\": "
        << std::setprecision(3) << p.wall_seconds
        << ", \"queries_completed\": " << p.results.queries_completed
        << ", \"probes\": " << p.results.probes.total()
        << ", \"events\": " << p.events << ",\n"
        << "      \"queries_per_sec\": " << std::setprecision(1)
        << p.queries_per_sec() << ", \"probes_per_sec\": "
        << p.probes_per_sec() << ", \"events_per_sec\": "
        << p.events_per_sec() << "}" << (i + 1 < points.size() ? "," : "")
        << "\n";
  }
  out << "  },\n";
  out << "  \"schedulers_bitwise_identical\": "
      << (identical ? "true" : "false") << "\n";
  out << "}\n";
}

// --- Baseline check (--check=...) -----------------------------------------
//
// Reads "nNNN": {... "queries_per_sec": X ...} pairs out of a previously
// written BENCH_queries.json. The parser only needs to understand this
// file's own output format, so a line/keyword scan is enough.

struct BaselinePoint {
  std::size_t network = 0;
  double queries_per_sec = 0.0;
};

std::vector<BaselinePoint> read_baseline(const std::string& path) {
  std::ifstream in(path);
  GUESS_CHECK_MSG(in.good(), "cannot read baseline " << path);
  std::vector<BaselinePoint> points;
  std::string line;
  std::size_t current_n = 0;
  bool in_end_to_end = false;
  while (std::getline(in, line)) {
    if (line.find("\"end_to_end\"") != std::string::npos) {
      in_end_to_end = true;
      continue;
    }
    if (!in_end_to_end) continue;
    auto npos = line.find("\"n");
    if (npos != std::string::npos) {
      current_n = static_cast<std::size_t>(
          std::strtoull(line.c_str() + npos + 2, nullptr, 10));
    }
    auto qpos = line.find("\"queries_per_sec\": ");
    if (qpos != std::string::npos && current_n != 0) {
      double qps = std::strtod(
          line.c_str() + qpos + std::string("\"queries_per_sec\": ").size(),
          nullptr);
      points.push_back({current_n, qps});
      current_n = 0;
    }
  }
  return points;
}

// Returns false (regression) if any network size present in both the
// baseline and the live run lost more than `tolerance` of its queries/sec.
bool check_against_baseline(const std::vector<BaselinePoint>& baseline,
                            const std::vector<EndToEnd>& points,
                            double tolerance) {
  bool ok = true;
  for (const BaselinePoint& b : baseline) {
    for (const EndToEnd& p : points) {
      if (p.network != b.network || b.queries_per_sec <= 0.0) continue;
      double ratio = p.queries_per_sec() / b.queries_per_sec;
      std::cout << "check n=" << p.network << ": " << std::fixed
                << std::setprecision(1) << p.queries_per_sec()
                << " queries/sec vs baseline " << b.queries_per_sec << " ("
                << std::setprecision(2) << ratio << "x)\n";
      if (ratio < 1.0 - tolerance) {
        std::cout << "REGRESSION: n=" << p.network << " lost "
                  << std::setprecision(0) << (1.0 - ratio) * 100.0
                  << "% queries/sec (tolerance "
                  << tolerance * 100.0 << "%)\n";
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  const bool full = flags.full();
  const std::uint64_t seed = flags.seed();
  const std::string out_path = flags.get_string("out", "BENCH_queries.json");
  const std::string check_path = flags.get_string("check", "");
  const double tolerance = flags.get_double("tolerance", 0.30);
  const std::size_t only_n = flags.get_size("n", 0);
  const double measure_override = flags.get_double("measure", 0.0);
  flags.reject_unread();

  std::vector<std::size_t> sizes;
  if (only_n > 0) {
    sizes.push_back(only_n);
  } else {
    sizes = {1000, 10000};
    if (full) sizes.push_back(50000);
  }

  std::cout << "# Query-path throughput — MR/MR + LR, LRU/MFS maintenance "
               "(seed="
            << seed << ")\n";

  // Cross-scheduler identity gate at the smallest size: the dense table and
  // incremental index must not perturb the heap/calendar equivalence.
  {
    std::size_t n = sizes.front();
    sim::Duration m = std::min(measure_for(n),
                               measure_override > 0.0 ? measure_override
                                                      : measure_for(n));
    auto heap = run_end_to_end(n, m, seed, sim::Scheduler::kHeap);
    auto calendar = run_end_to_end(n, m, seed, sim::Scheduler::kCalendar);
    bool identical =
        heap.results.queries_completed ==
            calendar.results.queries_completed &&
        heap.results.queries_satisfied ==
            calendar.results.queries_satisfied &&
        heap.results.probes.good == calendar.results.probes.good &&
        heap.results.deaths == calendar.results.deaths;
    std::cout << "schedulers bitwise identical (n=" << n
              << "): " << (identical ? "yes" : "NO — BUG") << "\n\n";
    if (!identical) return 1;
  }

  std::vector<EndToEnd> points;
  for (std::size_t n : sizes) {
    sim::Duration m =
        measure_override > 0.0 ? measure_override : measure_for(n);
    points.push_back(run_end_to_end(n, m, seed, sim::Scheduler::kHeap));
  }

  TablePrinter table(
      {"network", "wall s", "queries/sec", "probes/sec", "events/sec"});
  for (const EndToEnd& p : points) {
    table.add_row({static_cast<std::int64_t>(p.network), p.wall_seconds,
                   static_cast<std::int64_t>(p.queries_per_sec()),
                   static_cast<std::int64_t>(p.probes_per_sec()),
                   static_cast<std::int64_t>(p.events_per_sec())});
  }
  table.print(std::cout, "end-to-end GUESS simulation (heap scheduler)");

  write_json(out_path, seed, points, true);
  std::cout << "wrote " << out_path << "\n";

  if (!check_path.empty()) {
    auto baseline = read_baseline(check_path);
    GUESS_CHECK_MSG(!baseline.empty(),
                    "no end_to_end points found in " << check_path);
    if (!check_against_baseline(baseline, points, tolerance)) return 1;
  }
  return 0;
}
