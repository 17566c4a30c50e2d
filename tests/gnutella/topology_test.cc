#include "gnutella/topology.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess::gnutella {
namespace {

TEST(Topology, AddEdgeRejectsSelfLoopsAndDuplicates) {
  Topology graph(4);
  EXPECT_FALSE(graph.add_edge(1, 1));
  EXPECT_TRUE(graph.add_edge(0, 1));
  EXPECT_FALSE(graph.add_edge(0, 1));
  EXPECT_FALSE(graph.add_edge(1, 0));  // undirected duplicate
  EXPECT_EQ(graph.edges(), 1u);
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(1), 1u);
}

TEST(Topology, NeighborsAreSymmetric) {
  Topology graph(3);
  graph.add_edge(0, 2);
  EXPECT_EQ(graph.neighbors(0), (std::vector<std::size_t>{2}));
  EXPECT_EQ(graph.neighbors(2), (std::vector<std::size_t>{0}));
}

TEST(Topology, RemoveEdgeSwapRemovesOnBothSides) {
  Topology graph(5);
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  graph.add_edge(0, 3);
  graph.add_edge(2, 4);
  graph.add_edge(2, 3);
  ASSERT_EQ(graph.edges(), 5u);

  // The last neighbor takes the removed one's place, on each side.
  graph.remove_edge(0, 1);
  EXPECT_EQ(graph.neighbors(0), (std::vector<std::size_t>{3, 2}));
  EXPECT_TRUE(graph.neighbors(1).empty());
  EXPECT_EQ(graph.edges(), 4u);

  graph.remove_edge(2, 0);
  EXPECT_EQ(graph.neighbors(2), (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(graph.neighbors(0), (std::vector<std::size_t>{3}));
  EXPECT_EQ(graph.edges(), 3u);

  graph.remove_edge(1, 4);  // no such edge: a no-op
  EXPECT_EQ(graph.edges(), 3u);
  EXPECT_THROW(graph.remove_edge(0, 5), CheckError);
}

TEST(Topology, EnsureNodesOnlyGrows) {
  Topology graph(2);
  graph.add_edge(0, 1);
  graph.ensure_nodes(5);
  EXPECT_EQ(graph.nodes(), 5u);
  EXPECT_EQ(graph.degree(4), 0u);
  EXPECT_EQ(graph.neighbors(0), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(graph.add_edge(0, 4));
  graph.ensure_nodes(3);
  EXPECT_EQ(graph.nodes(), 5u);
  EXPECT_EQ(graph.edges(), 2u);
}

TEST(Topology, LargestComponentOnCraftedGraph) {
  Topology graph(6);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(3, 4);
  EXPECT_EQ(graph.largest_component(), 3u);  // {0,1,2} vs {3,4} vs {5}
}

TEST(Topology, LargestComponentRespectsAliveMask) {
  Topology graph(5);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(2, 3);
  graph.add_edge(3, 4);
  std::vector<char> alive(5, 1);
  alive[2] = 0;  // cut the chain in the middle
  EXPECT_EQ(graph.largest_component(alive), 2u);
  EXPECT_THROW(graph.largest_component(std::vector<char>(3, 1)), CheckError);
}

TEST(Topology, RandomTopologyHasExpectedDegrees) {
  Rng rng(3);
  auto graph = random_topology(500, 4, rng);
  EXPECT_EQ(graph.nodes(), 500u);
  // Each node initiates ~4 links and receives ~4: mean degree ≈ 8.
  double total = 0.0;
  for (std::size_t n = 0; n < 500; ++n) {
    total += static_cast<double>(graph.degree(n));
  }
  EXPECT_NEAR(total / 500.0, 8.0, 1.0);
  EXPECT_EQ(graph.largest_component(), 500u);  // connected w.h.p.
}

TEST(Topology, PowerLawHasHubs) {
  Rng rng(5);
  auto graph = power_law_topology(1000, 3, rng);
  auto order = graph.nodes_by_degree();
  double mean = 2.0 * static_cast<double>(graph.edges()) / 1000.0;
  // Preferential attachment must produce hubs far above the mean degree;
  // a degree-capped random graph would not.
  EXPECT_GT(static_cast<double>(graph.degree(order[0])), mean * 5.0);
  EXPECT_EQ(graph.largest_component(), 1000u);
}

TEST(Topology, NodesByDegreeSortedDescending) {
  Rng rng(7);
  auto graph = power_law_topology(200, 2, rng);
  auto order = graph.nodes_by_degree();
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(graph.degree(order[i - 1]), graph.degree(order[i]));
  }
}

TEST(Topology, PowerLawFragmentsFasterUnderHubAttack) {
  Rng rng(9);
  std::size_t n = 1000;
  auto power_law = power_law_topology(n, 2, rng);
  auto random = random_topology(n, 2, rng);
  auto survivors_after_attack = [n](const Topology& graph,
                                    std::size_t remove) {
    auto order = graph.nodes_by_degree();
    std::vector<char> alive(n, 1);
    for (std::size_t i = 0; i < remove; ++i) alive[order[i]] = 0;
    return graph.largest_component(alive);
  };
  std::size_t remove = n / 10;
  // Removing the top 10% of hubs hurts the power-law overlay more.
  EXPECT_LT(survivors_after_attack(power_law, remove),
            survivors_after_attack(random, remove));
}

TEST(Topology, GeneratorParameterValidation) {
  Rng rng(11);
  EXPECT_THROW(random_topology(3, 3, rng), CheckError);
  EXPECT_THROW(random_topology(10, 0, rng), CheckError);
  EXPECT_THROW(power_law_topology(3, 3, rng), CheckError);
  EXPECT_THROW(power_law_topology(10, 0, rng), CheckError);
  EXPECT_THROW(Topology(0), CheckError);
}

}  // namespace
}  // namespace guess::gnutella
