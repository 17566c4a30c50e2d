#include "analysis/overlay_graph.h"

#include <algorithm>

#include "common/check.h"

namespace guess::analysis {

std::size_t OverlayGraph::dense_id(NodeId node) {
  auto [it, inserted] = index_.emplace(node, nodes_.size());
  if (inserted) {
    nodes_.push_back(node);
    out_.emplace_back();
  }
  return it->second;
}

void OverlayGraph::add_node(NodeId node) { dense_id(node); }

void OverlayGraph::add_edge(NodeId from, NodeId to) {
  std::size_t f = dense_id(from);
  std::size_t t = dense_id(to);
  out_[f].push_back(t);
  ++edge_count_;
}

std::size_t OverlayGraph::largest_weak_component() const {
  // Union-find over the undirected projection.
  UnionFind sets(nodes_.size());
  for (std::size_t from = 0; from < nodes_.size(); ++from) {
    for (std::size_t to : out_[from]) sets.unite(from, to);
  }
  return sets.largest();
}

std::size_t OverlayGraph::largest_strong_component() const {
  // Iterative Tarjan SCC.
  std::size_t n = nodes_.size();
  if (n == 0) return 0;
  constexpr std::size_t kUnvisited = ~std::size_t{0};
  std::vector<std::size_t> index(n, kUnvisited), lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;
  std::size_t best = 0;

  struct Frame {
    std::size_t node;
    std::size_t edge;
  };
  std::vector<Frame> call;
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!call.empty()) {
      Frame& frame = call.back();
      std::size_t node = frame.node;
      if (frame.edge < out_[node].size()) {
        std::size_t next = out_[node][frame.edge++];
        if (index[next] == kUnvisited) {
          index[next] = lowlink[next] = next_index++;
          stack.push_back(next);
          on_stack[next] = 1;
          call.push_back({next, 0});
        } else if (on_stack[next]) {
          lowlink[node] = std::min(lowlink[node], index[next]);
        }
        continue;
      }
      if (lowlink[node] == index[node]) {
        std::size_t count = 0;
        for (;;) {
          std::size_t popped = stack.back();
          stack.pop_back();
          on_stack[popped] = 0;
          ++count;
          if (popped == node) break;
        }
        best = std::max(best, count);
      }
      call.pop_back();
      if (!call.empty()) {
        std::size_t parent = call.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
      }
    }
  }
  return best;
}

double OverlayGraph::mean_out_degree() const {
  if (nodes_.empty()) return 0.0;
  return static_cast<double>(edge_count_) /
         static_cast<double>(nodes_.size());
}

}  // namespace guess::analysis
