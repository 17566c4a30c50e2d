// Overload control for open-loop query arrivals (DESIGN.md §13.3).
//
// Under closed-loop load the population self-limits: a slow system issues
// its next query later. Under an open-loop arrival process (sim/arrival.h)
// offered load is whatever the operator configured, so the run needs a
// policy for the arrivals the system cannot absorb. Three are provided:
//
//   * none   — every arrival starts immediately. The baseline: past
//              saturation, per-origin pending queues grow without bound and
//              tail latency diverges.
//   * admit  — admission control: a fixed budget of in-flight query slots;
//              arrivals beyond it are rejected at the door (the client sees
//              a fast failure, admitted queries see a healthy system).
//   * shed   — load shedding: arrivals queue in the controller; once the
//              queue holds its depth watermark, each arrival drops the
//              oldest queued entry (the query most likely to have already
//              blown its SLO) and takes its place.
//
// The controller is deterministic (pure arithmetic, no RNG) and
// allocation-free after construction (a ring buffer sized to the shed
// watermark holds queued issue times), so attaching one preserves bitwise
// reproducibility across schedulers and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log_histogram.h"
#include "sim/time.h"

namespace guess {

enum class OverloadPolicy {
  kNone,
  kAdmit,
  kShed,
};

/// "none" / "admit" / "shed".
const char* overload_policy_name(OverloadPolicy policy);

/// Parse an --overload-policy= value; throws CheckError on unknown names.
OverloadPolicy parse_overload_policy(const std::string& name);

/// Tuning for the overload controller (SimulationOptions::overload).
struct OverloadParams {
  OverloadPolicy policy = OverloadPolicy::kNone;

  /// In-flight query budget for kAdmit and kShed.
  std::size_t max_in_flight = 64;

  /// kShed: the controller queue's depth. An arrival that finds it full
  /// drops the oldest queued entry, so the queue never holds more.
  std::size_t shed_watermark = 64;
};

/// Query-lifecycle callbacks a backend reports to its open-loop driver.
/// Latencies and ages are simulated seconds from the query's external issue
/// time (which includes any controller queueing delay).
class QueryObserver {
 public:
  virtual ~QueryObserver() = default;

  /// A query ran to completion (satisfied or not).
  virtual void on_query_complete(double latency, bool satisfied) = 0;

  /// A query was abandoned before completing (its origin died with the
  /// query active or queued). `age` is seconds since issue.
  virtual void on_query_abandoned(double age) = 0;
};

/// What the controller decided for one arrival.
enum class AdmitAction {
  kStart,   ///< issue the query now
  kQueue,   ///< held in the controller queue; started on a later release
  kReject,  ///< refused at the door (counted, never issued)
};

struct AdmitDecision {
  AdmitAction action = AdmitAction::kStart;
  /// Queued entries dropped to make room (kShed at the watermark; at most
  /// 1 per arrival). The caller counts each as a shed query.
  std::size_t shed = 0;
};

class OverloadController {
 public:
  explicit OverloadController(const OverloadParams& params);

  /// Decide one arrival at simulated time `now`. kStart already counts the
  /// query in flight; after a kQueue decision (and after on_release) the
  /// caller pumps try_start() until it returns false.
  AdmitDecision on_arrival(sim::Time now);

  /// Start the oldest queued arrival if a slot is free: writes its original
  /// issue time to `*issue` (so the wait it spent queued stays inside its
  /// measured latency), counts it in flight, and returns true.
  bool try_start(sim::Time* issue);

  /// An in-flight query finished (completed or abandoned); frees its slot.
  void on_release();

  /// Drain the queue (end of run): pops every queued issue time, oldest
  /// first, without touching in-flight accounting.
  bool drain_one(sim::Time* issue);

  std::size_t in_flight() const { return in_flight_; }
  std::size_t queue_depth() const { return queue_size_; }

 private:
  bool has_slot() const;
  void push_queue(sim::Time issue);
  sim::Time pop_oldest();

  OverloadParams params_;
  std::size_t in_flight_ = 0;
  // Ring buffer of queued issue times; reserved once, never reallocated.
  std::vector<sim::Time> queue_;
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;
};

/// Open-loop run accounting (SearchResults::overload; zeros for closed-loop
/// runs). All counters cover the measurement window; the histogram holds
/// completed-query latencies plus, at collect, the censored ages of queries
/// still open when the window closed (so a diverging baseline cannot hide
/// its backlog by never finishing it — DESIGN.md §13.2).
struct OverloadStats {
  bool open_loop = false;
  OverloadPolicy policy = OverloadPolicy::kNone;
  double offered_qps = 0.0;  ///< configured arrival rate
  double slo = 0.0;          ///< latency SLO, seconds

  std::uint64_t arrivals = 0;   ///< offered queries
  std::uint64_t admitted = 0;   ///< issued to the backend (incl. after queueing)
  std::uint64_t rejected = 0;   ///< refused at the door
  std::uint64_t shed = 0;       ///< dropped from the controller queue
  std::uint64_t completed = 0;  ///< ran to completion
  std::uint64_t satisfied = 0;  ///< completed with enough results
  std::uint64_t slo_ok = 0;     ///< satisfied within the SLO
  std::uint64_t abandoned = 0;  ///< origin died / shed while open
  std::uint64_t open_at_close = 0;  ///< still in flight or queued at window end

  /// Latency histogram: completions + censored open-query ages.
  LogHistogram latency;

  double latency_percentile(double p) const { return latency.percentile(p); }
  /// Goodput: satisfied-within-SLO completions per second.
  double goodput(double duration) const {
    return duration > 0.0 ? static_cast<double>(slo_ok) / duration : 0.0;
  }
  /// SLO-violation fraction over everything the window accounted for
  /// (completions + censored): 1 - slo_ok / (completed + open_at_close).
  double slo_violation_rate() const {
    std::uint64_t accounted = completed + open_at_close;
    return accounted == 0 ? 0.0
                          : 1.0 - static_cast<double>(slo_ok) /
                                      static_cast<double>(accounted);
  }
};

}  // namespace guess
