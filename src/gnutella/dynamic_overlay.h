// The live Gnutella overlay's constants and results (§3 of the paper). The
// overlay itself runs as search::FloodBackend (search/flood.h), which parks
// these results in SearchResults' extension slot.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/stats.h"

namespace guess::gnutella {

/// Connections each peer tries to keep open (Gnutella clients of the era
/// defaulted to 4-8).
inline constexpr std::size_t kTargetDegree = 4;
/// Hard connection cap — the §3.3 remedy against hub formation.
inline constexpr std::size_t kMaxDegree = 12;
/// One-hop forwarding latency in seconds (response time = hops × this).
inline constexpr double kHopDelay = 0.05;

/// The flood backend's own measurement-window counters; the per-query
/// counts are the unified SearchResults fields.
struct DynamicResults {
  std::uint64_t messages = 0;          ///< transmissions incl. duplicates
  std::uint64_t peers_reached = 0;     ///< sum over queries
  SampleSet peer_loads;                ///< messages processed per peer
  std::uint64_t repairs = 0;           ///< connections re-established
};

}  // namespace guess::gnutella
