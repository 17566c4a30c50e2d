// Core identifiers for the GUESS protocol library.
#pragma once

#include <cstdint>

namespace guess {

/// A peer's identity — stands in for its IP address. Ids are allocated
/// densely from 0 at birth and never reused: a peer that dies never returns
/// (the paper's worst-case churn assumption), so a stale id in someone's
/// cache is permanently dead. Both properties are load-bearing: a query's
/// dedup bitmap (QueryExecution) has one bit per id below the network's
/// next unminted id, and a bit set for a dead id can never be inherited by
/// a newborn.
using PeerId = std::uint64_t;

inline constexpr PeerId kInvalidPeer = ~PeerId{0};

}  // namespace guess
