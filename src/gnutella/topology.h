// Gnutella-style overlay topologies (§3 of the paper).
//
// One adjacency structure serves both the static §3 graphs and the live
// overlay (search::FloodBackend keeps its connections here, indexed by
// population slot). Neighbor order is part of the model: a flood visits
// neighbors in list order, so insertion order and swap-remove order fix BFS
// order.
//
// Two generators for the static graphs:
//  * random_topology — each peer opens `degree` connections to uniformly
//    random others (the degree-capped overlay the paper suggests is robust);
//  * power_law_topology — Barabási–Albert preferential attachment, the
//    topology that "naturally arises from peers' local connection
//    decisions" and is susceptible to fragmentation attacks (§3.3).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace guess::gnutella {

/// Simple undirected graph with adjacency lists; parallel edges and
/// self-loops are rejected at insertion.
class Topology {
 public:
  explicit Topology(std::size_t nodes);

  std::size_t nodes() const { return adjacency_.size(); }
  std::size_t edges() const { return edges_; }

  /// Insert an undirected edge; no-op (returns false) for self-loops and
  /// duplicates.
  bool add_edge(std::size_t a, std::size_t b);

  /// Remove an undirected edge if present: b is swap-removed from a's list
  /// (the last neighbor takes its place), then a from b's.
  void remove_edge(std::size_t a, std::size_t b);

  /// Grow to at least `n` nodes; new nodes have no edges.
  void ensure_nodes(std::size_t n);

  const std::vector<std::size_t>& neighbors(std::size_t node) const;
  std::size_t degree(std::size_t node) const;

  /// Largest connected component among nodes for which alive[n] is true
  /// (alive must have size() == nodes(); edges to dead nodes are ignored).
  std::size_t largest_component(const std::vector<char>& alive) const;

  /// Largest connected component over all nodes.
  std::size_t largest_component() const;

  /// Node indices sorted by descending degree — the targets of a
  /// fragmentation attack on highly connected peers.
  std::vector<std::size_t> nodes_by_degree() const;

 private:
  std::vector<std::vector<std::size_t>> adjacency_;
  std::size_t edges_ = 0;
};

/// Each node opens `degree` connections to distinct random peers (resulting
/// node degrees ≈ 2×degree with small variance).
Topology random_topology(std::size_t nodes, std::size_t degree, Rng& rng);

/// Barabási–Albert preferential attachment with `links_per_node` edges per
/// arriving node; produces the power-law degree distribution measured on
/// Gnutella.
Topology power_law_topology(std::size_t nodes, std::size_t links_per_node,
                            Rng& rng);

}  // namespace guess::gnutella
