// Bursty query arrivals.
//
// The paper: "a number of queries (uniformly chosen between 1 and 5) are
// submitted in succession, followed by a long wait. The arrival of bursts
// follows a Poisson process, and the overall rate of queries per user is
// QueryRate." With mean burst size B = 3, bursts must arrive at rate
// QueryRate / B per peer for the per-query rate to come out right.
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "sim/time.h"

namespace guess::content {

/// Burst size bounds (§5.1), shared by every backend's workload.
inline constexpr std::size_t kBurstMin = 1;
inline constexpr std::size_t kBurstMax = 5;

/// Generates (inter-burst gap, burst size) pairs for one peer.
class QueryStream {
 public:
  /// `query_rate`: expected queries per user per second (> 0).
  explicit QueryStream(double query_rate);

  /// Exponential gap until the next burst.
  sim::Duration next_burst_gap(Rng& rng) const;

  /// Uniform burst size in [kBurstMin, kBurstMax].
  std::size_t next_burst_size(Rng& rng) const;

  static double mean_burst_size();
  double burst_rate() const;  ///< bursts per second per peer

 private:
  double query_rate_;
};

}  // namespace guess::content
