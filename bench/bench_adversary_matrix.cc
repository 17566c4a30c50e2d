// Defense-vs-attack matrix (DESIGN.md §11).
//
// Every adversary in the zoo — eclipse, sybil flash crowd, pong-flood
// amplification, reply withholding — is run against three detection
// settings: off, the paper-default detector (§6.4), and the hardened
// preset (tight thresholds + oversize-pong caps + no-reply charging +
// first-hand cache floor). Each cell reports the success rate during the
// attack window, the §9 recovery metrics (baseline, minimum, time to
// recovery, availability), and the raw AttackStats counters.
//
//   ./build/bench/bench_adversary_matrix [--n=200] [--frac=0.15]
//       [--seeds=2] [--interval=60] [--out=BENCH_adversary.json]
//
// The headline claim the checked-in BENCH_adversary.json pins: hardened
// detection beats the default detector on success rate under attack
// (the worst attack-window interval — the depth of the dip) and time to
// recovery for every attack kind ("hardened_beats_default": true per
// attack). Attack runs are bitwise deterministic (the determinism suite
// asserts heap/calendar and thread-count invariance for each kind).
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "experiments/harness.h"
#include "faults/scenario.h"
#include "search/backend.h"

namespace guess {
namespace {

struct Cell {
  RecoveryMetrics recovery;
  double success_during = 0.0;  // pooled over samples inside the window
  AttackStats attack;           // summed over seeds
};

/// Pooled success rate over the samples that lie inside [t0, t1].
double success_in_window(const IntervalSeries& series, sim::Time t0,
                         sim::Time t1) {
  std::uint64_t completed = 0;
  std::uint64_t satisfied = 0;
  for (const IntervalSample& s : series) {
    if (s.start >= t0 - 1e-9 && s.end <= t1 + 1e-9) {
      completed += s.queries_completed;
      satisfied += s.queries_satisfied;
    }
  }
  return completed == 0 ? 0.0
                        : static_cast<double>(satisfied) /
                              static_cast<double>(completed);
}

/// Time to recovery with "never" (-1) ordered after every finite value.
bool ttr_no_worse(double hardened, double fallback) {
  if (hardened < 0.0) return fallback < 0.0;
  return fallback < 0.0 || hardened <= fallback;
}

bool ttr_strictly_better(double hardened, double fallback) {
  if (hardened < 0.0) return false;
  return fallback < 0.0 || hardened < fallback;
}

/// The headline comparison. Success under attack is judged by the worst
/// attack-window interval (the depth of the dip), not the window mean:
/// the default detector, fed a pong flood's fabricated identities, ends
/// up blacklisting them en masse and rides the resulting cache hygiene
/// to a window *mean* above its own pre-attack baseline — while still
/// dipping deeper and recovering later than the hardened preset, which
/// never ingests the flood at all. The dip is what a user experiences at
/// the attack's peak; the overshoot is a side effect of cleanup.
bool hardened_beats(const Cell& hard, const Cell& def) {
  double floor_h = hard.recovery.min_during_fault;
  double floor_d = def.recovery.min_during_fault;
  return floor_h >= floor_d &&
         ttr_no_worse(hard.recovery.time_to_recovery,
                      def.recovery.time_to_recovery) &&
         (floor_h > floor_d ||
          ttr_strictly_better(hard.recovery.time_to_recovery,
                              def.recovery.time_to_recovery));
}

struct DetectionSetting {
  const char* name;
  DetectionParams detection;
};

struct AttackCase {
  const char* name;    // scenario-grammar kind
  const char* effect;  // one-line mechanism note for the table
};

void json_cell(std::ostream& out, const char* name, const Cell& cell,
               bool trailing_comma) {
  const RecoveryMetrics& r = cell.recovery;
  out << "      \"" << name << "\": {\"baseline\": " << std::fixed
      << std::setprecision(4) << r.baseline
      << ", \"success_during\": " << cell.success_during
      << ", \"min_during\": " << r.min_during_fault
      << ", \"time_to_recovery\": " << std::setprecision(1)
      << r.time_to_recovery << ", \"availability\": " << std::setprecision(4)
      << r.availability << ",\n        \"spawned\": "
      << cell.attack.adversaries_spawned
      << ", \"sybil_respawns\": " << cell.attack.sybil_respawns
      << ", \"withheld\": " << cell.attack.withheld_exchanges
      << ", \"oversized_pongs\": " << cell.attack.oversized_pongs
      << ", \"no_reply_charges\": " << cell.attack.no_reply_charges << "}"
      << (trailing_comma ? "," : "") << "\n";
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);
  double interval =
      scale.metrics_interval > 0.0 ? scale.metrics_interval : 60.0;
  scale.metrics_interval = interval;
  // Withholders are only expensive when timeouts cost wall-clock: default
  // to a lightly lossy transport unless the user picked one.
  if (scale.transport.kind == TransportParams::Kind::kSynchronous &&
      !flags.has_transport_flags()) {
    scale.transport = TransportParams::lossy(0.05);
    scale.transport.max_retries = 2;
  }

  SystemParams system;
  system.network_size = flags.get_size("n", scale.full ? 1000 : 200);
  const double frac = flags.get_double("frac", 0.15);
  const std::string out_path =
      flags.get_string("out", "BENCH_adversary.json");
  flags.reject_unread();

  // Query-side MR/MR with LR replacement: the score-driven configuration
  // every cache-targeting attack aims at (fabricated top-of-distribution
  // claims go straight to the front of MR selection).
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.cache_replacement = Replacement::kLR;
  protocol.do_backoff = true;

  const sim::Time t0 = scale.warmup + 0.25 * scale.measure;
  const sim::Duration window = 0.3 * scale.measure;

  const AttackCase kAttacks[] = {
      {"eclipse", "colluders crowd victim caches with each other"},
      {"sybil", "short-lived identities outrun per-id evidence"},
      {"pong-flood", "oversized pongs mass-seed fabricated addresses"},
      {"withhold", "accepted probes never answered; timeouts burn time"},
  };
  DetectionParams default_detection;
  default_detection.enabled = true;
  const DetectionSetting kSettings[] = {
      {"off", DetectionParams{}},
      {"default", default_detection},
      {"hardened", DetectionParams::hardened()},
  };

  experiments::print_header(
      std::cout, "Adversary matrix (attack x detection)",
      "hardened detection (oversize caps, no-reply charging, first-hand "
      "floor) restores availability that the default detector loses to "
      "every zoo adversary",
      system, protocol, scale);
  std::cout << "Attacks at t=" << t0 << "s for " << window << "s, frac="
            << frac << "; interval " << interval << "s; pooled over "
            << scale.seeds << " seed(s)\n\n";

  TablePrinter table({"attack", "detection", "baseline %", "during %",
                      "min %", "recovery (s)", "avail %"});
  bool all_beat = true;
  std::vector<std::pair<std::string, std::vector<Cell>>> matrix;
  for (const AttackCase& attack : kAttacks) {
    std::string spec = "at " + std::to_string(t0) + " attack " +
                       attack.name + " frac=" + std::to_string(frac) +
                       " for " + std::to_string(window);
    std::vector<Cell> cells;
    for (const DetectionSetting& setting : kSettings) {
      ProtocolParams cell_protocol = protocol;
      cell_protocol.detection = setting.detection;
      auto config = scale.config()
                        .system(system)
                        .protocol(cell_protocol)
                        .scenario(faults::Scenario::parse(spec));
      auto runs = search::run_search_seeds(config, scale.seeds);
      Cell cell;
      IntervalSeries pooled = experiments::pool_series(runs);
      cell.recovery = compute_recovery(pooled, t0, t0 + window);
      cell.success_during = success_in_window(pooled, t0, t0 + window);
      for (const search::SearchResults& run : runs) {
        const AttackStats& attack = run.extra_as<SimulationResults>()->attack;
        cell.attack.adversaries_spawned += attack.adversaries_spawned;
        cell.attack.adversaries_retired += attack.adversaries_retired;
        cell.attack.sybil_respawns += attack.sybil_respawns;
        cell.attack.withheld_exchanges += attack.withheld_exchanges;
        cell.attack.oversized_pongs += attack.oversized_pongs;
        cell.attack.pong_entries_dropped += attack.pong_entries_dropped;
        cell.attack.no_reply_charges += attack.no_reply_charges;
      }
      GUESS_CHECK_MSG(cell.attack.adversaries_spawned > 0,
                      "attack " << attack.name << " never deployed");
      table.add_row(
          {std::string(attack.name), std::string(setting.name),
           100.0 * cell.recovery.baseline, 100.0 * cell.success_during,
           100.0 * cell.recovery.min_during_fault,
           cell.recovery.time_to_recovery < 0.0
               ? TablePrinter::Cell{std::string("never")}
               : TablePrinter::Cell{cell.recovery.time_to_recovery},
           100.0 * cell.recovery.availability});
      cells.push_back(cell);
    }
    bool beats = hardened_beats(cells[2], cells[1]);
    std::cout << attack.name << ": " << attack.effect
              << " -> hardened beats default: " << (beats ? "yes" : "NO")
              << "\n";
    all_beat = all_beat && beats;
    matrix.emplace_back(attack.name, std::move(cells));
  }

  std::cout << "\n";
  table.print(std::cout, "attack x detection matrix (success pooled over "
                         "seeds; epsilon = 0.05 of baseline)");

  std::ofstream out(out_path);
  GUESS_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << "{\n  \"config\": {\"network\": " << system.network_size
      << ", \"seeds\": " << scale.seeds << ", \"frac\": " << frac
      << ", \"attack_start\": " << t0 << ", \"attack_window\": " << window
      << ", \"seed\": " << scale.base_seed << "},\n  \"matrix\": {\n";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const auto& [name, cells] = matrix[i];
    bool beats = hardened_beats(cells[2], cells[1]);
    out << "    \"" << name << "\": {\n";
    for (std::size_t j = 0; j < cells.size(); ++j) {
      json_cell(out, kSettings[j].name, cells[j], true);
    }
    out << "      \"hardened_beats_default\": " << (beats ? "true" : "false")
        << "\n    }" << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"hardened_beats_default_all\": "
      << (all_beat ? "true" : "false") << "\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (scale.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return all_beat ? 0 : 1;
}
