#include "flb/sim/topology.hpp"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "flb/util/error.hpp"

namespace flb {

Topology Topology::clique(ProcId nodes) {
  FLB_REQUIRE(nodes >= 1, "Topology::clique: at least one node");
  std::vector<std::pair<ProcId, ProcId>> links;
  for (ProcId a = 0; a < nodes; ++a)
    for (ProcId b = a + 1; b < nodes; ++b) links.emplace_back(a, b);
  return from_links(nodes, std::move(links));
}

Topology Topology::ring(ProcId nodes) {
  FLB_REQUIRE(nodes >= 1, "Topology::ring: at least one node");
  std::vector<std::pair<ProcId, ProcId>> links;
  for (ProcId a = 0; a + 1 < nodes; ++a) links.emplace_back(a, a + 1);
  if (nodes > 2) links.emplace_back(0, nodes - 1);
  return from_links(nodes, std::move(links));
}

Topology Topology::mesh2d(ProcId rows, ProcId cols) {
  FLB_REQUIRE(rows >= 1 && cols >= 1, "Topology::mesh2d: empty mesh");
  std::vector<std::pair<ProcId, ProcId>> links;
  auto id = [cols](ProcId r, ProcId c) { return r * cols + c; };
  for (ProcId r = 0; r < rows; ++r) {
    for (ProcId c = 0; c < cols; ++c) {
      if (c + 1 < cols) links.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) links.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return from_links(rows * cols, std::move(links));
}

Topology Topology::torus2d(ProcId rows, ProcId cols) {
  FLB_REQUIRE(rows >= 1 && cols >= 1, "Topology::torus2d: empty torus");
  std::vector<std::pair<ProcId, ProcId>> links;
  auto id = [cols](ProcId r, ProcId c) { return r * cols + c; };
  for (ProcId r = 0; r < rows; ++r) {
    for (ProcId c = 0; c < cols; ++c) {
      if (c + 1 < cols) links.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) links.emplace_back(id(r, c), id(r + 1, c));
    }
    if (cols > 2) links.emplace_back(id(r, 0), id(r, cols - 1));
  }
  if (rows > 2)
    for (ProcId c = 0; c < cols; ++c) links.emplace_back(id(0, c), id(rows - 1, c));
  return from_links(rows * cols, std::move(links));
}

Topology Topology::star(ProcId nodes) {
  FLB_REQUIRE(nodes >= 1, "Topology::star: at least one node");
  std::vector<std::pair<ProcId, ProcId>> links;
  for (ProcId leaf = 1; leaf < nodes; ++leaf) links.emplace_back(0, leaf);
  return from_links(nodes, std::move(links));
}

Topology Topology::from_links(ProcId nodes,
                              std::vector<std::pair<ProcId, ProcId>> links) {
  FLB_REQUIRE(nodes >= 1, "Topology: at least one node");
  Topology t;
  t.nodes_ = nodes;
  for (auto& [a, b] : links) {
    FLB_REQUIRE(a < nodes && b < nodes, "Topology: link endpoint out of range");
    FLB_REQUIRE(a != b, "Topology: self-links are not allowed");
    if (a > b) std::swap(a, b);
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  t.links_ = std::move(links);
  std::vector<std::vector<ProcId>> neighbours(nodes);
  for (const auto& [a, b] : t.links_) {
    neighbours[a].push_back(b);
    neighbours[b].push_back(a);
  }
  for (auto& nb : neighbours) std::sort(nb.begin(), nb.end());
  t.build_routes(neighbours);
  return t;
}

void Topology::build_routes(
    const std::vector<std::vector<ProcId>>& neighbours) {
  const std::size_t n = nodes_;
  constexpr auto kUnreached = static_cast<std::size_t>(-1);
  std::vector<ProcId> next_hop(n * n, kInvalidProc);  // [from * n + to]
  hop_count_.assign(n * n, kUnreached);

  // BFS from every destination so next_hop[from][to] is the first step of
  // a shortest from->to path; neighbour lists are sorted, giving the
  // smallest-id tie-break.
  for (ProcId dest = 0; dest < nodes_; ++dest) {
    hop_count_[dest * n + dest] = 0;
    std::queue<ProcId> q;
    q.push(dest);
    while (!q.empty()) {
      ProcId cur = q.front();
      q.pop();
      for (ProcId nb : neighbours[cur]) {
        if (hop_count_[nb * n + dest] != kUnreached) continue;
        hop_count_[nb * n + dest] = hop_count_[cur * n + dest] + 1;
        next_hop[nb * n + dest] = cur;
        q.push(nb);
      }
    }
  }
  for (std::size_t pair = 0; pair < n * n; ++pair)
    FLB_REQUIRE(hop_count_[pair] != kUnreached,
                "Topology: the network is not connected");

  // Every route, flattened: route(from, to) is a span of route_links_.
  route_offsets_.assign(n * n + 1, 0);
  for (std::size_t pair = 0; pair < n * n; ++pair)
    route_offsets_[pair + 1] = route_offsets_[pair] + hop_count_[pair];
  route_links_.resize(route_offsets_[n * n]);
  for (ProcId from = 0; from < nodes_; ++from)
    for (ProcId to = 0; to < nodes_; ++to) {
      std::size_t at = route_offsets_[from * n + to];
      for (ProcId cur = from; cur != to;) {
        const ProcId nxt = next_hop[cur * n + to];
        route_links_[at++] = link_index(cur, nxt);
        cur = nxt;
      }
    }

  // One route tree per source: each destination hangs off the node its
  // route reaches last before it. Prefix closure (see topology.hpp) makes
  // the route to that parent the route to the destination minus its last
  // link — checked here, since route_tree() callers rely on it.
  tree_.reserve(n * (n - 1));
  std::vector<ProcId> order(n);
  for (ProcId from = 0; from < nodes_; ++from) {
    for (ProcId to = 0; to < nodes_; ++to) order[to] = to;
    std::stable_sort(order.begin(), order.end(), [&](ProcId a, ProcId b) {
      return hops(from, a) < hops(from, b);
    });
    for (ProcId to : order) {
      if (to == from) continue;
      const std::span<const std::size_t> r = route(from, to);
      const std::size_t last = r.back();
      const ProcId parent =
          links_[last].first == to ? links_[last].second : links_[last].first;
      const std::span<const std::size_t> head = route(from, parent);
      FLB_ASSERT(head.size() + 1 == r.size() &&
                 std::equal(head.begin(), head.end(), r.begin()));
      tree_.push_back({to, parent, last});
    }
  }
}

std::size_t Topology::link_index(ProcId a, ProcId b) const {
  if (a > b) std::swap(a, b);
  auto it = std::lower_bound(links_.begin(), links_.end(),
                             std::pair<ProcId, ProcId>(a, b));
  FLB_ASSERT(it != links_.end() && *it == std::make_pair(a, b));
  return static_cast<std::size_t>(it - links_.begin());
}

std::size_t Topology::diameter() const {
  std::size_t d = 0;
  for (ProcId a = 0; a < nodes_; ++a)
    for (ProcId b = 0; b < nodes_; ++b) d = std::max(d, hops(a, b));
  return d;
}

}  // namespace flb
