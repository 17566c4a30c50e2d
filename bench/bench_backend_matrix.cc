// Head-to-head backend matrix (DESIGN.md §12): every registered search
// backend through the one run_search() code path, across the same workload
// columns — static membership, paper churn, lossy transport, and a
// mid-measurement fault burst — reporting success rate, mean/median/p95
// probes per query, and bytes-on-wire per query under the shared wire
// model (§12.3).
//
// Results are printed as one table per column and written to
// BENCH_backends.json (override with --out=...). Two gates make the bench
// a CI check rather than a report:
//   * the design gate: gossip must beat flooding on bytes-on-wire per query
//     at equal-or-better success rate (within --epsilon) in at least one
//     column — the reason the gossip backend exists;
//   * the regression gate (--check=<baseline.json>): success rate must not
//     drop and bytes per query must not grow beyond --tolerance against a
//     previously checked-in baseline, per (backend, column) cell.
// Cells whose backend rejects a column's fault actions (the ported silos
// predate the FaultHost interface) are reported as unsupported, not failed.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "faults/scenario.h"
#include "search/backend.h"

namespace guess {
namespace {

struct Column {
  std::string name;
  double lifespan_multiplier = 1.0;
  double loss = 0.0;
  bool fault_burst = false;
};

std::vector<Column> columns() {
  return {
      {"static", 500.0, 0.0, false},  // membership frozen in place
      {"churn", 1.0, 0.0, false},     // the paper's lifetime distribution
      {"loss", 1.0, 0.05, false},     // churn + 5% i.i.d. message loss
      {"burst", 1.0, 0.0, true},      // churn + mass kill, later mass join
  };
}

struct Cell {
  bool supported = false;
  search::SearchResults results;
};

SimulationConfig cell_config(SearchBackendId backend, const Column& column,
                             std::size_t n, double warmup, double measure,
                             std::uint64_t seed) {
  SystemParams system;
  system.network_size = n;
  system.lifespan_multiplier = column.lifespan_multiplier;
  auto config = SimulationConfig()
                    .system(system)
                    .backend(backend)
                    .seed(seed)
                    .warmup(warmup)
                    .measure(measure);
  if (column.loss > 0.0) {
    config.transport(TransportParams::lossy(column.loss));
  }
  if (column.fault_burst) {
    // Kill 30% a third into the window, replace them two thirds in: the
    // recovery shape matters as much as the dip.
    std::ostringstream spec;
    spec << "at " << warmup + measure / 3.0 << " kill 0.3\n"
         << "at " << warmup + 2.0 * measure / 3.0 << " join "
         << static_cast<std::size_t>(0.3 * static_cast<double>(n));
    config.scenario(faults::Scenario::parse(spec.str()));
  }
  return config;
}

Cell run_cell(SearchBackendId backend, const Column& column, std::size_t n,
              double warmup, double measure, std::uint64_t seed) {
  Cell cell;
  try {
    cell.results =
        search::run_search(cell_config(backend, column, n, warmup, measure,
                                       seed));
    cell.supported = true;
  } catch (const CheckError&) {
    // The backend rejected a fault action the column injects (the silo
    // predates FaultHost); the matrix reports the hole honestly.
    cell.supported = false;
  }
  return cell;
}

using Matrix = std::map<std::string, std::map<std::string, Cell>>;

// --- output ----------------------------------------------------------------

void print_tables(const Matrix& matrix) {
  for (const Column& column : columns()) {
    TablePrinter table({"backend", "queries", "success", "probes/q", "p50",
                        "p95", "bytes/q", "maint B/q", "deaths"});
    for (const auto& [backend, cells] : matrix) {
      const Cell& cell = cells.at(column.name);
      if (!cell.supported) {
        table.add_row({backend, std::string("-"), std::string("n/a"),
                       std::string("-"), std::string("-"), std::string("-"),
                       std::string("-"), std::string("-"), std::string("-")});
        continue;
      }
      const search::SearchResults& r = cell.results;
      double maintenance_per_query =
          r.queries_completed == 0
              ? 0.0
              : static_cast<double>(r.maintenance_bytes) /
                    static_cast<double>(r.queries_completed);
      table.add_row({backend,
                     static_cast<std::int64_t>(r.queries_completed),
                     r.success_rate(), r.probes_per_query(),
                     r.probes_percentile(50.0), r.probes_percentile(95.0),
                     r.bytes_per_query(), maintenance_per_query,
                     static_cast<std::int64_t>(r.deaths)});
    }
    table.print(std::cout, "column: " + column.name);
  }
}

void write_json(const std::string& path, const Matrix& matrix, std::size_t n,
                double warmup, double measure, std::uint64_t seed,
                const std::vector<std::string>& winning_columns) {
  std::ofstream out(path);
  GUESS_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\n";
  out << "  \"config\": {\"network_size\": " << n << ", \"warmup\": "
      << std::fixed << std::setprecision(0) << warmup << ", \"measure\": "
      << measure << ", \"seed\": " << seed << "},\n";
  out << "  \"matrix\": {\n";
  std::size_t backend_index = 0;
  for (const auto& [backend, cells] : matrix) {
    out << "    \"" << backend << "\": {\n";
    std::size_t column_index = 0;
    for (const Column& column : columns()) {
      const Cell& cell = cells.at(column.name);
      out << "      \"" << column.name << "\": ";
      if (!cell.supported) {
        out << "{\"supported\": false}";
      } else {
        const search::SearchResults& r = cell.results;
        out << "{\"supported\": true, \"queries_completed\": "
            << r.queries_completed << ", \"success_rate\": "
            << std::setprecision(4) << r.success_rate()
            << ", \"probes_per_query\": " << std::setprecision(2)
            << r.probes_per_query() << ", \"probes_p50\": "
            << r.probes_percentile(50.0) << ", \"probes_p95\": "
            << r.probes_percentile(95.0) << ", \"bytes_per_query\": "
            << std::setprecision(1) << r.bytes_per_query()
            << ", \"query_bytes\": " << r.query_bytes
            << ", \"maintenance_bytes\": " << r.maintenance_bytes
            << ", \"deaths\": " << r.deaths << "}";
      }
      out << (++column_index < columns().size() ? "," : "") << "\n";
    }
    out << "    }" << (++backend_index < matrix.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"gossip_beats_flood_columns\": [";
  for (std::size_t i = 0; i < winning_columns.size(); ++i) {
    out << "\"" << winning_columns[i] << "\""
        << (i + 1 < winning_columns.size() ? ", " : "");
  }
  out << "]\n";
  out << "}\n";
}

// --- design gate -----------------------------------------------------------

std::vector<std::string> gossip_wins(const Matrix& matrix, double epsilon) {
  std::vector<std::string> wins;
  for (const Column& column : columns()) {
    const Cell& gossip = matrix.at("gossip").at(column.name);
    const Cell& flood = matrix.at("flood").at(column.name);
    if (!gossip.supported || !flood.supported) continue;
    bool equal_success = gossip.results.success_rate() >=
                         flood.results.success_rate() - epsilon;
    bool cheaper =
        gossip.results.bytes_per_query() < flood.results.bytes_per_query();
    if (equal_success && cheaper) wins.push_back(column.name);
  }
  return wins;
}

// --- regression gate (--check=...) -----------------------------------------
//
// Reads the (backend, column) cells back out of a previously written
// BENCH_backends.json. The parser only needs to understand this file's own
// output format, so a line/keyword scan is enough (the same approach as
// bench_query_throughput's baseline reader).

struct BaselineCell {
  double success_rate = 0.0;
  double bytes_per_query = 0.0;
};

std::map<std::string, std::map<std::string, BaselineCell>> read_baseline(
    const std::string& path) {
  std::ifstream in(path);
  GUESS_CHECK_MSG(in.good(), "cannot read baseline " << path);
  std::map<std::string, std::map<std::string, BaselineCell>> baseline;
  std::string line;
  std::string backend;
  bool in_matrix = false;
  while (std::getline(in, line)) {
    if (line.find("\"matrix\"") != std::string::npos) {
      in_matrix = true;
      continue;
    }
    if (!in_matrix) continue;
    auto key_start = line.find('"');
    if (key_start == std::string::npos) continue;
    auto key_end = line.find('"', key_start + 1);
    if (key_end == std::string::npos) continue;
    std::string key = line.substr(key_start + 1, key_end - key_start - 1);
    if (line.find("\"supported\"") == std::string::npos) {
      backend = key;  // a backend header line: "gossip": {
      continue;
    }
    auto spos = line.find("\"success_rate\": ");
    auto bpos = line.find("\"bytes_per_query\": ");
    if (spos == std::string::npos || bpos == std::string::npos) continue;
    BaselineCell cell;
    cell.success_rate = std::strtod(
        line.c_str() + spos + std::string("\"success_rate\": ").size(),
        nullptr);
    cell.bytes_per_query = std::strtod(
        line.c_str() + bpos + std::string("\"bytes_per_query\": ").size(),
        nullptr);
    baseline[backend][key] = cell;
  }
  return baseline;
}

bool check_against_baseline(
    const std::map<std::string, std::map<std::string, BaselineCell>>& baseline,
    const Matrix& matrix, double tolerance) {
  bool ok = true;
  for (const auto& [backend, cells] : baseline) {
    auto live_backend = matrix.find(backend);
    if (live_backend == matrix.end()) continue;
    for (const auto& [column, base] : cells) {
      auto live_cell = live_backend->second.find(column);
      if (live_cell == live_backend->second.end() ||
          !live_cell->second.supported) {
        continue;
      }
      const search::SearchResults& r = live_cell->second.results;
      std::cout << "check " << backend << "/" << column << ": success "
                << std::fixed << std::setprecision(3) << r.success_rate()
                << " vs " << base.success_rate << ", bytes/q "
                << std::setprecision(1) << r.bytes_per_query() << " vs "
                << base.bytes_per_query << "\n";
      if (r.success_rate() < base.success_rate - tolerance) {
        std::cout << "REGRESSION: " << backend << "/" << column
                  << " success rate fell beyond tolerance " << tolerance
                  << "\n";
        ok = false;
      }
      if (base.bytes_per_query > 0.0 &&
          r.bytes_per_query() > base.bytes_per_query * (1.0 + tolerance)) {
        std::cout << "REGRESSION: " << backend << "/" << column
                  << " bytes/query grew beyond " << tolerance * 100.0
                  << "%\n";
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
  const std::size_t n = flags.get_size("n", flags.full() ? 1000 : 500);
  const double warmup = flags.get_double("warmup", 300.0);
  const double measure =
      flags.get_double("measure", flags.full() ? 2400.0 : 900.0);
  const std::uint64_t seed = flags.seed();
  const double epsilon = flags.get_double("epsilon", 0.02);
  const std::string out_path =
      flags.get_string("out", "BENCH_backends.json");
  const std::string check_path = flags.get_string("check", "");
  const double tolerance = flags.get_double("tolerance", 0.10);
  flags.reject_unread();

  std::cout << "# Backend matrix — n=" << n << " warmup=" << warmup
            << " measure=" << measure << " seed=" << seed << "\n\n";

  Matrix matrix;
  for (SearchBackendId id : search::registered_backends()) {
    for (const Column& column : columns()) {
      matrix[backend_name(id)][column.name] =
          run_cell(id, column, n, warmup, measure, seed);
    }
  }

  print_tables(matrix);

  std::vector<std::string> wins = gossip_wins(matrix, epsilon);
  std::cout << "gossip beats flood (bytes/query at equal success, epsilon="
            << epsilon << "): ";
  if (wins.empty()) {
    std::cout << "NOWHERE\n";
  } else {
    for (std::size_t i = 0; i < wins.size(); ++i) {
      std::cout << wins[i] << (i + 1 < wins.size() ? ", " : "\n");
    }
  }

  write_json(out_path, matrix, n, warmup, measure, seed, wins);
  std::cout << "wrote " << out_path << "\n";

  if (wins.empty()) {
    std::cout << "DESIGN GATE FAILED: the gossip backend never beat "
                 "flooding on bytes-on-wire at equal success rate\n";
    return 1;
  }
  if (!check_path.empty()) {
    auto baseline = read_baseline(check_path);
    GUESS_CHECK_MSG(!baseline.empty(),
                    "no matrix cells found in " << check_path);
    if (!check_against_baseline(baseline, matrix, tolerance)) return 1;
  }
  return 0;
}
