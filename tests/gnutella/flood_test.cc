#include "gnutella/flood.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"

namespace guess::gnutella {
namespace {

Topology chain(std::size_t n) {
  Topology graph(n);
  for (std::size_t i = 0; i + 1 < n; ++i) graph.add_edge(i, i + 1);
  return graph;
}

struct Reach {
  std::size_t peers = 0;
  std::uint64_t messages = 0;
};

/// A loss-free flood through `scratch`: peers reached and transmissions.
Reach reach(const Topology& graph, std::size_t origin, std::size_t ttl,
            FloodScratch& scratch) {
  Reach out;
  out.messages = flood(
      graph, origin, ttl, scratch, [](std::size_t) { return true; },
      [&out](std::size_t, std::size_t) { ++out.peers; });
  return out;
}

Reach reach(const Topology& graph, std::size_t origin, std::size_t ttl) {
  FloodScratch scratch;
  return reach(graph, origin, ttl, scratch);
}

TEST(Flood, TtlZeroReachesOnlyOrigin) {
  auto graph = chain(5);
  auto result = reach(graph, 2, 0);
  EXPECT_EQ(result.peers, 1u);
  EXPECT_EQ(result.messages, 0u);
}

TEST(Flood, ReachGrowsWithTtlOnChain) {
  auto graph = chain(10);
  EXPECT_EQ(reach(graph, 0, 1).peers, 2u);
  EXPECT_EQ(reach(graph, 0, 3).peers, 4u);
  EXPECT_EQ(reach(graph, 0, 9).peers, 10u);
  EXPECT_EQ(reach(graph, 0, 50).peers, 10u);  // saturates
}

TEST(Flood, MiddleOriginReachesBothSides) {
  auto graph = chain(9);
  EXPECT_EQ(reach(graph, 4, 2).peers, 5u);
}

TEST(Flood, ArrivalOrderAndDepthOnChain) {
  // Breadth first in neighbor-list order: the origin at depth 0, then each
  // ring's peers in the order their parents list them.
  auto graph = chain(7);
  FloodScratch scratch;
  std::vector<std::pair<std::size_t, std::size_t>> arrivals;
  flood(
      graph, 3, 2, scratch, [](std::size_t) { return true; },
      [&](std::size_t node, std::size_t depth) {
        arrivals.emplace_back(node, depth);
      });
  std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {3, 0}, {2, 1}, {4, 1}, {1, 2}, {5, 2}};
  EXPECT_EQ(arrivals, expected);
}

TEST(Flood, DuplicateTransmissionsCounted) {
  // Triangle: flooding from node 0 with TTL 2 sends the query along every
  // edge it encounters, including back-edges to already-seen peers.
  Topology graph(3);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(2, 0);
  FloodScratch scratch;
  std::vector<std::size_t> delivered;
  std::uint64_t messages = flood(
      graph, 0, 2, scratch,
      [&](std::size_t node) {
        delivered.push_back(node);
        return true;
      },
      [](std::size_t, std::size_t) {});
  // 0 -> {1, 2}: 2 messages; 1 -> {0, 2}: 2 messages; 2 -> {1, 0}:
  // 2 messages. All at depth <= 1 forward. Every transmission is
  // delivered, duplicates included.
  EXPECT_EQ(messages, 6u);
  EXPECT_EQ(delivered, (std::vector<std::size_t>{1, 2, 0, 2, 1, 0}));
}

TEST(Flood, LostTransmissionsAreBilledButNeverForwarded) {
  // Star around 0 whose spoke to 2 leads on to 3: losing the 0 -> 2
  // transmission bills it but leaves 2 and 3 unreached.
  Topology graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  graph.add_edge(2, 3);
  FloodScratch scratch;
  std::vector<std::size_t> arrived;
  std::uint64_t messages = flood(
      graph, 0, 3, scratch, [](std::size_t node) { return node != 2; },
      [&](std::size_t node, std::size_t) { arrived.push_back(node); });
  EXPECT_EQ(arrived, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(messages, 3u);  // 0 -> 1, 0 -> 2 (lost), 1 -> 0
}

TEST(Flood, ScratchReuseCountsLikeFreshScratch) {
  Rng rng(17);
  auto graph = random_topology(300, 3, rng);
  FloodScratch shared;
  for (std::size_t origin : {0u, 7u, 0u, 150u}) {
    for (std::size_t ttl : {1u, 3u, 5u}) {
      Reach reused = reach(graph, origin, ttl, shared);
      Reach fresh = reach(graph, origin, ttl);
      EXPECT_EQ(reused.peers, fresh.peers);
      EXPECT_EQ(reused.messages, fresh.messages);
    }
  }
}

TEST(Flood, AmplificationOnDenseGraphs) {
  Rng rng(3);
  auto graph = random_topology(500, 4, rng);
  auto result = reach(graph, 0, 4);
  // Messages exceed peers reached — the §3.3 amplification effect.
  EXPECT_GT(result.messages, static_cast<std::uint64_t>(result.peers));
}

TEST(Flood, InvalidOriginThrows) {
  auto graph = chain(5);
  EXPECT_THROW(reach(graph, 5, 1), CheckError);
}

}  // namespace
}  // namespace guess::gnutella
