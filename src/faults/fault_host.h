// The surface a simulation exposes to the fault engine (DESIGN.md §9).
//
// The faults subsystem knows *when* correlated faults happen (scenario.h) and
// *schedules* them (fault_engine.h), but what a mass kill or a partition
// means — which peers, which edges, which transport — belongs to the network.
// FaultHost is that boundary: every search::SearchBackend implements it,
// and the engine drives it without depending on guesslib's core, keeping the
// layering acyclic (guess_core depends on guess_faults, never the reverse).
#pragma once

#include <cstddef>

#include "faults/scenario.h"

namespace guess::faults {

class FaultHost {
 public:
  virtual ~FaultHost() = default;

  /// Mass departure: `fraction` of the currently-live population (chosen by
  /// the host's RNG) leaves at once. Unlike churn deaths, victims are NOT
  /// replaced by newborns — the population stays reduced until a join.
  virtual void fault_mass_kill(double fraction) = 0;

  /// Flash crowd: `count` new peers join at once, bootstrapping through the
  /// normal newborn path.
  virtual void fault_mass_join(std::size_t count) = 0;

  /// Split the live population into `ways` groups; until cleared, every
  /// cross-group exchange is forced to fail (transport modulation).
  virtual void fault_set_partition(int ways) = 0;
  virtual void fault_clear_partition() = 0;

  /// Transport degradation window: `extra_loss` is added to every leg's loss
  /// probability and drawn latencies are multiplied by `latency_factor`.
  virtual void fault_set_degradation(double extra_loss,
                                     double latency_factor) = 0;
  virtual void fault_clear_degradation() = 0;

  /// Toggle the poisoning attack (§6.4): while off, malicious peers answer
  /// with honest Pongs (they still share no files).
  virtual void fault_set_poisoning(bool active) = 0;

  /// Adversary attack window (DESIGN.md §11): at onset the host deploys a
  /// cohort of `fraction` (of the live population) adversaries running the
  /// given behavior; at the window end the whole cohort is retired without
  /// replacement. Overlapping windows of different kinds may be active at
  /// once; the engine never starts the same kind twice concurrently.
  virtual void fault_start_attack(AttackKind kind, double fraction) = 0;
  virtual void fault_stop_attack(AttackKind kind) = 0;
};

}  // namespace guess::faults
