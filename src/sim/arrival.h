// Open-loop arrival process (DESIGN.md §13.1).
//
// The paper drives load with a closed per-peer query clock: each live peer
// issues bursts at SystemParams::query_rate, so offered load scales with the
// population and can never exceed what the population sustains. A serving
// system is evaluated the other way around — arrivals come from outside at a
// configured offered rate regardless of how the system is doing — which is
// the only way to push offered load past saturation and observe overload
// behaviour (the open-loop vs closed-loop distinction from the load-testing
// literature).
//
// ArrivalProcess generates that external arrival stream on the simulator's
// event queue: a Poisson process (exponential gaps) at `rate` arrivals per
// simulated second. It owns a dedicated RNG stream so its draws never perturb the backend's —
// attaching an arrival process to a run cannot change how the protocol
// itself unfolds, only what workload hits it.
//
// Steady-state allocation-free: the self-rescheduling event is an inline
// thunk (static_assert'd to fit the queue's inline callback storage) and the
// sink is installed once at start().
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace guess::sim {

/// How queries are injected into a run (SimulationOptions::arrival,
/// --arrival={closed,open}).
enum class ArrivalMode {
  kClosed,  ///< the paper's per-peer query clock (load tracks population)
  kOpen,    ///< external ArrivalProcess at a fixed offered rate
};

const char* arrival_mode_name(ArrivalMode mode);
ArrivalMode parse_arrival_mode(const std::string& name);

class ArrivalProcess {
 public:
  /// `rate` is arrivals per simulated second (> 0). `rng` should be a
  /// dedicated stream (the callers derive it as Rng(seed ^ salt)).
  ArrivalProcess(Simulator& simulator, double rate, Rng rng);

  /// Install the sink and schedule the first arrival (one gap from now).
  /// Call exactly once; the process then reschedules itself forever (events
  /// past the run horizon simply never fire).
  void start(std::function<void()> sink);

  std::uint64_t arrivals() const { return arrivals_; }

 private:
  struct ArrivalFired {
    ArrivalProcess* process;
    void operator()() const { process->fire(); }
  };
  static_assert(EventQueue::Callback::stores_inline<ArrivalFired>(),
                "arrival thunk must not heap-allocate");

  void fire();
  void schedule_next();

  Simulator& simulator_;
  double rate_;
  Rng rng_;
  std::function<void()> sink_;
  std::uint64_t arrivals_ = 0;
};

}  // namespace guess::sim
