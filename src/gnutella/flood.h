// TTL-limited flooding over a Gnutella topology (§3): the one BFS kernel
// behind the live overlay (search::FloodBackend) and the static §3 graphs
// (bench_fragmentation, the gnutella_vs_guess example).
//
// A query is broadcast to all neighbors, which forward it to all their
// neighbors, until the TTL expires. Every transmission is a message; peers
// suppress duplicates but the duplicate transmissions still cost bandwidth —
// the "amplification effect" that makes flooding expensive and DoS-friendly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "gnutella/topology.h"

namespace guess::gnutella {

/// Per-caller state reused across floods: a node's mark holds the epoch of
/// the last flood that reached it, so starting a flood is one increment,
/// and the frontier keeps its capacity. A warmed scratch never allocates.
struct FloodScratch {
  std::vector<std::uint64_t> reached_in;
  std::uint64_t epoch = 0;
  std::vector<std::pair<std::size_t, std::size_t>> frontier;  ///< (node, depth)
};

/// Flood from `origin` with the given TTL (overlay hops the query travels;
/// TTL 0 reaches only the origin), breadth first in neighbor-list order.
///  * `delivered(node)` runs for every transmission, duplicates included,
///    and returns whether it arrived; a lost transmission is billed but
///    never processed or forwarded.
///  * `arrived(node, depth)` runs once per peer reached, starting with the
///    origin at depth 0.
/// Returns the number of transmissions.
template <typename Delivered, typename Arrived>
std::uint64_t flood(const Topology& graph, std::size_t origin,
                    std::size_t ttl, FloodScratch& scratch,
                    Delivered&& delivered, Arrived&& arrived) {
  GUESS_CHECK(origin < graph.nodes());
  if (scratch.reached_in.size() < graph.nodes()) {
    scratch.reached_in.resize(graph.nodes(), 0);
  }
  const std::uint64_t epoch = ++scratch.epoch;
  auto& frontier = scratch.frontier;
  frontier.clear();
  scratch.reached_in[origin] = epoch;
  arrived(origin, std::size_t{0});
  frontier.emplace_back(origin, 0);
  std::uint64_t messages = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto [node, depth] = frontier[head];
    if (depth >= ttl) continue;
    for (std::size_t next : graph.neighbors(node)) {
      ++messages;  // every transmission costs, duplicate or not
      if (!delivered(next)) continue;
      if (scratch.reached_in[next] == epoch) continue;
      scratch.reached_in[next] = epoch;
      arrived(next, depth + 1);
      frontier.emplace_back(next, depth + 1);
    }
  }
  return messages;
}

}  // namespace guess::gnutella
