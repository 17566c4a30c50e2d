#include "gnutella/topology.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace guess::gnutella {

Topology::Topology(std::size_t nodes) : adjacency_(nodes) {
  GUESS_CHECK(nodes > 0);
}

bool Topology::add_edge(std::size_t a, std::size_t b) {
  GUESS_CHECK(a < nodes() && b < nodes());
  if (a == b) return false;
  auto& na = adjacency_[a];
  if (std::find(na.begin(), na.end(), b) != na.end()) return false;
  na.push_back(b);
  adjacency_[b].push_back(a);
  ++edges_;
  return true;
}

void Topology::remove_edge(std::size_t a, std::size_t b) {
  GUESS_CHECK(a < nodes() && b < nodes());
  auto drop = [](std::vector<std::size_t>& list, std::size_t other) {
    auto it = std::find(list.begin(), list.end(), other);
    if (it == list.end()) return false;
    *it = list.back();
    list.pop_back();
    return true;
  };
  if (!drop(adjacency_[a], b)) return;
  drop(adjacency_[b], a);
  --edges_;
}

void Topology::ensure_nodes(std::size_t n) {
  if (adjacency_.size() < n) adjacency_.resize(n);
}

const std::vector<std::size_t>& Topology::neighbors(std::size_t node) const {
  GUESS_CHECK(node < nodes());
  return adjacency_[node];
}

std::size_t Topology::degree(std::size_t node) const {
  return neighbors(node).size();
}

std::size_t Topology::largest_component(
    const std::vector<char>& alive) const {
  GUESS_CHECK(alive.size() == nodes());
  std::vector<char> visited(nodes(), 0);
  std::vector<std::size_t> stack;
  std::size_t best = 0;
  for (std::size_t start = 0; start < nodes(); ++start) {
    if (visited[start] || !alive[start]) continue;
    std::size_t count = 0;
    stack.push_back(start);
    visited[start] = 1;
    while (!stack.empty()) {
      std::size_t node = stack.back();
      stack.pop_back();
      ++count;
      for (std::size_t next : adjacency_[node]) {
        if (!visited[next] && alive[next]) {
          visited[next] = 1;
          stack.push_back(next);
        }
      }
    }
    best = std::max(best, count);
  }
  return best;
}

std::size_t Topology::largest_component() const {
  return largest_component(std::vector<char>(nodes(), 1));
}

std::vector<std::size_t> Topology::nodes_by_degree() const {
  std::vector<std::size_t> order(nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return degree(a) > degree(b);
  });
  return order;
}

Topology random_topology(std::size_t nodes, std::size_t degree, Rng& rng) {
  GUESS_CHECK(degree >= 1);
  GUESS_CHECK(nodes > degree);
  Topology graph(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    std::size_t added = 0;
    std::size_t attempts = 0;
    // A node may fail to place all links if it is already saturated with
    // incoming ones; bounded retries keep generation O(n·degree).
    while (added < degree && attempts < degree * 20) {
      ++attempts;
      if (graph.add_edge(node, rng.index(nodes))) ++added;
    }
  }
  return graph;
}

Topology power_law_topology(std::size_t nodes, std::size_t links_per_node,
                            Rng& rng) {
  GUESS_CHECK(links_per_node >= 1);
  GUESS_CHECK(nodes > links_per_node + 1);
  Topology graph(nodes);
  // Seed clique over the first links_per_node + 1 nodes.
  std::size_t seed = links_per_node + 1;
  for (std::size_t a = 0; a < seed; ++a) {
    for (std::size_t b = a + 1; b < seed; ++b) graph.add_edge(a, b);
  }
  // Preferential attachment: sample targets proportionally to degree by
  // drawing uniformly from the edge-endpoint list.
  std::vector<std::size_t> endpoints;
  endpoints.reserve(nodes * links_per_node * 2);
  for (std::size_t a = 0; a < seed; ++a) {
    for (std::size_t b : graph.neighbors(a)) {
      (void)b;
      endpoints.push_back(a);
    }
  }
  for (std::size_t node = seed; node < nodes; ++node) {
    std::size_t added = 0;
    std::size_t attempts = 0;
    while (added < links_per_node && attempts < links_per_node * 50) {
      ++attempts;
      std::size_t target = endpoints[rng.index(endpoints.size())];
      if (graph.add_edge(node, target)) {
        endpoints.push_back(node);
        endpoints.push_back(target);
        ++added;
      }
    }
  }
  return graph;
}

}  // namespace guess::gnutella
