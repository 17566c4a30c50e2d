// Deterministic fault-scenario specs (DESIGN.md §9).
//
// A Scenario is a small script of time-correlated fault actions applied to a
// running simulation — the correlated failures (mass departures, partitions,
// degradation windows, poisoning onset) that per-message i.i.d. fault
// injection (§8) cannot express. The textual grammar, one statement per
// `;`/newline:
//
//   at 600 kill 0.30                      # 30% of live peers depart at once
//   at 600 partition 2 for 300            # 2-way partition, heals at 900
//   at 1200 degrade loss=0.5 for 120      # extra per-leg loss for 120 s
//   at 1200 degrade loss=0.2 latency=4 for 60
//   at 1800 join 2000                     # flash crowd of 2000 newcomers
//   at 300 poison off                     # attackers behave until "poison on"
//   at 600 attack eclipse frac=0.05 for 300   # adversary cohort window
//   at 900 attack withhold frac=0.1 for 200   # slowloris probe stalling
//
// Times are absolute simulated seconds (t = 0 is simulation start, i.e. the
// beginning of warmup). Parsing is strict: every malformed spec throws a
// CheckError naming the offending token. Scenarios are pure data — applying
// them is the FaultEngine's job (fault_engine.h), and every action draws its
// randomness from the owning network's RNG, so a scenario run is bitwise
// deterministic across scheduler backends and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace guess::faults {

/// What a FaultAction does when it fires.
enum class FaultKind {
  kKill,       ///< mass departure: a fraction of live peers leaves at once
  kJoin,       ///< flash crowd: `count` new peers join at once
  kPartition,  ///< k-way partition for `duration` (cross-partition silence)
  kDegrade,    ///< transport degradation window: extra loss / slower links
  kPoison,     ///< silence (off) or resume (on) §6.4's poisoners
  kAttack,     ///< adversary-cohort window: an active attack for `duration`
};

/// Which adversary behavior a kAttack window deploys (adversary zoo,
/// DESIGN.md §11). Values are stable — they index per-kind rosters.
enum class AttackKind {
  kEclipse,    ///< colluders saturate victims' link caches via pongs
  kSybil,      ///< flash crowd of short-lived identities (tombstone churn)
  kPongFlood,  ///< oversized pong payloads to inflate bookkeeping
  kWithhold,   ///< accept probes, never reply (slowloris probe stalling)
};

/// Number of AttackKind enumerators (roster array sizing).
inline constexpr std::size_t kNumAttackKinds = 4;

/// "kill" / "join" / "partition" / "degrade" / "poison" / "attack".
const char* fault_kind_name(FaultKind kind);

/// "eclipse" / "sybil" / "pong-flood" / "withhold".
const char* attack_kind_name(AttackKind kind);

/// One scheduled fault. Only the fields of the action's kind are meaningful.
struct FaultAction {
  FaultKind kind = FaultKind::kKill;
  sim::Time at = 0.0;  ///< absolute simulated time of onset

  double fraction = 0.0;        ///< kKill: fraction of live peers in (0, 1]
  std::size_t count = 0;        ///< kJoin: peers joining, >= 1
  int ways = 0;                 ///< kPartition: partition count, >= 2
  sim::Duration duration = 0.0; ///< kPartition/kDegrade: window length, > 0
  double loss = 0.0;            ///< kDegrade: extra per-leg loss in [0, 1]
  double latency_factor = 1.0;  ///< kDegrade: multiplier on drawn latency
  bool poison_on = false;       ///< kPoison: the toggle's new state
  AttackKind attack = AttackKind::kEclipse;  ///< kAttack: adversary behavior

  /// True for window actions (partition/degrade/attack) that schedule an end
  /// event.
  bool windowed() const {
    return kind == FaultKind::kPartition || kind == FaultKind::kDegrade ||
           kind == FaultKind::kAttack;
  }

  sim::Time end() const { return windowed() ? at + duration : at; }
};

/// An ordered list of fault actions plus the spec machinery: parse, file
/// loading, validation, re-serialization, and the window bounds the recovery
/// metrics are computed against.
class Scenario {
 public:
  Scenario() = default;

  /// Parse the textual grammar above. Statements separated by ';' or
  /// newlines; '#' starts a comment running to end of line. Throws
  /// CheckError naming the offending token on any malformed input. The
  /// parsed scenario is validated (see validate()).
  static Scenario parse(const std::string& spec);

  /// Read `path` and parse its contents. Throws CheckError if the file
  /// cannot be read.
  static Scenario load_file(const std::string& path);

  /// Semantic checks beyond the grammar: fractions in (0, 1], join counts
  /// >= 1, partition ways >= 2, positive window durations, finite values,
  /// and no overlapping windows of the same kind (overlap would make
  /// "which window is active" ambiguous). Attack windows of *different*
  /// AttackKinds may overlap (combined attacks are legitimate scenarios);
  /// same-kind attack windows may not. Throws CheckError.
  void validate() const;

  const std::vector<FaultAction>& actions() const { return actions_; }
  bool empty() const { return actions_.empty(); }
  std::size_t size() const { return actions_.size(); }

  /// Append one action (programmatic construction; benches build canned
  /// scenarios this way). Call validate() when done.
  Scenario& add(FaultAction action) {
    actions_.push_back(action);
    return *this;
  }

  /// True if any action opens a transport degradation window (these require
  /// the lossy transport; SimulationConfig::validate enforces it).
  bool uses_degradation() const;

  /// True if any action opens an adversary attack window.
  bool uses_attacks() const;

  /// Onset of the earliest fault (0 when empty).
  sim::Time first_fault_time() const;

  /// End of the latest fault window — the moment every scheduled fault is
  /// over and recovery can begin (0 when empty). Point actions (kill, join,
  /// poison) end at their own onset.
  sim::Time last_fault_end() const;

  /// Canonical one-line spec string (round-trips through parse()).
  std::string describe() const;

 private:
  std::vector<FaultAction> actions_;
};

}  // namespace guess::faults
