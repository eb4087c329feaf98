#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "flb/util/types.hpp"

/// \file topology.hpp
/// Interconnect topologies with deterministic shortest-path routing.
///
/// The paper assumes a clique with contention-free links (Section 2).
/// Real distributed-memory machines of its era (and today's) route
/// messages over sparse networks where links are shared. A Topology
/// describes such a network: its links, hop counts and routes. It prices
/// nothing itself. platform::CostModel::routed() and link_busy() price
/// messages over it, and flb::simulate replays a schedule on it
/// (SimOptions::topology): store-and-forward, one full message time per
/// hop, one transfer at a time per link. The bench_topology ablation
/// reports how much of the clique-model schedule quality survives on
/// meshes, rings and stars.

namespace flb {

/// An undirected interconnect with deterministic shortest-path routing
/// (ties resolve toward smaller node ids, nearest the destination first,
/// so routes are stable).
///
/// Every routing table is built once, at construction: hop counts, the
/// links of every route in CSR form, and one route tree per source. Route
/// queries are views into those tables and never allocate, so a
/// platform::CostModel borrows them instead of copying them.
///
/// **Routes are prefix-closed.** The route from s to d, read backwards, is
/// the walk from d that always steps to its smallest-id neighbour one hop
/// closer to s. That walk depends only on where it stands and on s, so
/// dropping the last hop (u, d) of the route from s to d leaves exactly
/// the route from s to u. The routes out of one source therefore form a
/// tree, and route_tree() lists it: one walk of that tree prices a
/// message from s to every destination with the same per-hop arithmetic
/// as walking each route on its own. Construction checks the invariant
/// with FLB_ASSERT.
class Topology {
 public:
  /// One edge of a source's route tree: the route to `node` is the route to
  /// `parent` followed by `link`.
  struct TreeEdge {
    ProcId node = 0;
    ProcId parent = 0;
    std::size_t link = 0;
  };

  /// Fully connected network — the paper's assumption.
  static Topology clique(ProcId nodes);

  /// Bidirectional ring 0-1-...-(n-1)-0.
  static Topology ring(ProcId nodes);

  /// rows x cols 2-D mesh (no wraparound), node id = r * cols + c.
  static Topology mesh2d(ProcId rows, ProcId cols);

  /// rows x cols 2-D torus: the mesh plus wraparound links closing each row
  /// and column (dimensions of 1 or 2 add no extra links).
  static Topology torus2d(ProcId rows, ProcId cols);

  /// Star: node 0 is the hub, all others are leaves.
  static Topology star(ProcId nodes);

  /// Arbitrary undirected link list. The network must be connected.
  static Topology from_links(ProcId nodes,
                             std::vector<std::pair<ProcId, ProcId>> links);

  [[nodiscard]] ProcId num_nodes() const { return nodes_; }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }

  /// Hop distance between two nodes (0 for from == to).
  [[nodiscard]] std::size_t hops(ProcId from, ProcId to) const {
    return hop_count_[std::size_t{from} * nodes_ + to];
  }

  /// Every hop distance, hops(from, to) at [from * num_nodes() + to].
  [[nodiscard]] std::span<const std::size_t> hop_table() const {
    return hop_count_;
  }

  /// The links of the route from `from` to `to`, in traversal order; each
  /// element is a dense link index usable for per-link bookkeeping.
  [[nodiscard]] std::span<const std::size_t> route(ProcId from,
                                                   ProcId to) const {
    const std::size_t pair = std::size_t{from} * nodes_ + to;
    return {route_links_.data() + route_offsets_[pair],
            route_offsets_[pair + 1] - route_offsets_[pair]};
  }

  /// The route tree of `from`: one edge per other node, in breadth-first
  /// order (hop count non-decreasing, then node id), so every edge comes
  /// after the edge of its parent.
  [[nodiscard]] std::span<const TreeEdge> route_tree(ProcId from) const {
    const std::size_t edges = std::size_t{nodes_} - 1;
    return {tree_.data() + std::size_t{from} * edges, edges};
  }

  /// Endpoints of a link by dense index (a < b).
  [[nodiscard]] std::pair<ProcId, ProcId> link(std::size_t id) const {
    return links_[id];
  }

  /// Network diameter (max hop distance over node pairs).
  [[nodiscard]] std::size_t diameter() const;

 private:
  Topology() = default;
  void build_routes(const std::vector<std::vector<ProcId>>& neighbours);
  [[nodiscard]] std::size_t link_index(ProcId a, ProcId b) const;

  ProcId nodes_ = 0;
  std::vector<std::pair<ProcId, ProcId>> links_;  // a < b
  std::vector<std::size_t> hop_count_;            // [from * n + to]
  std::vector<std::size_t> route_offsets_;        // CSR: [from * n + to]
  std::vector<std::size_t> route_links_;          // CSR payload
  std::vector<TreeEdge> tree_;                    // [from * (n - 1) + i]
};

}  // namespace flb
