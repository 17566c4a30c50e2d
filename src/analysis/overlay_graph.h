// Connectivity analysis of the GUESS "conceptual overlay" (Figures 6, 7).
//
// The overlay is the digraph formed by live peers' link-cache entries that
// point to live peers. Fragmentation in the paper's sense is loss of weak
// connectivity; the strong variant is also provided since one-way neighbor
// relationships make reachability asymmetric (§2.1, Figure 2).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

namespace guess::analysis {

/// Union-find over dense ids [0, n), with path halving and union by size.
/// Inline: GUESS's connectivity sampler unites once per live overlay edge.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }
  /// Size of the largest set (0 when n is 0).
  std::size_t largest() const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      if (parent_[i] == i) best = std::max(best, size_[i]);
    }
    return best;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

class OverlayGraph {
 public:
  using NodeId = std::uint64_t;

  /// Register a node (id may be added repeatedly; edges auto-add nodes).
  void add_node(NodeId node);

  /// Directed edge from -> to.
  void add_edge(NodeId from, NodeId to);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Size of the largest weakly connected component (edge direction
  /// ignored) — the paper's "largest connected component".
  std::size_t largest_weak_component() const;

  /// Size of the largest strongly connected component (Tarjan).
  std::size_t largest_strong_component() const;

  /// Out-degree distribution summary: mean out-degree over all nodes.
  double mean_out_degree() const;

 private:
  std::size_t dense_id(NodeId node);

  std::unordered_map<NodeId, std::size_t> index_;
  std::vector<NodeId> nodes_;
  std::vector<std::vector<std::size_t>> out_;
  std::size_t edge_count_ = 0;
};

}  // namespace guess::analysis
