#include "flb/algos/sarkar.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"

namespace flb {

namespace {

/// Union-find over task ids representing the evolving clusters.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Unbounded-processor list schedule of g under a clustering given by
/// representative ids: tasks taken in `order` (descending bottom level),
/// each placed on its cluster's "processor"; intra-cluster communication
/// is free. Fills start/finish if out-parameters are given; returns the
/// schedule length. O(V + E) plus the union-find lookups.
Cost evaluate(const TaskGraph& g, UnionFind& uf,
              const std::vector<TaskId>& order, std::vector<Cost>* start_out,
              std::vector<Cost>* finish_out) {
  const TaskId n = g.num_tasks();
  std::vector<Cost> start(n, 0.0), finish(n, 0.0);
  // Cluster ready time, keyed by representative task id.
  std::vector<Cost> cluster_ready(n, 0.0);

  Cost makespan = 0.0;
  for (const TaskId t : order) {
    std::size_t c = uf.find(t);
    Cost est = cluster_ready[c];
    for (const Adj& a : g.predecessors(t)) {
      Cost comm = uf.find(a.node) == c ? 0.0 : a.comm;
      est = std::max(est, finish[a.node] + comm);
    }
    start[t] = est;
    finish[t] = est + g.comp(t);
    cluster_ready[c] = finish[t];
    makespan = std::max(makespan, finish[t]);
  }
  if (start_out) *start_out = std::move(start);
  if (finish_out) *finish_out = std::move(finish);
  return makespan;
}

}  // namespace

Clustering sarkar_cluster(const TaskGraph& g) {
  const TaskId n = g.num_tasks();
  Clustering result;
  result.cluster_of.assign(n, 0);
  result.start.assign(n, 0.0);
  result.finish.assign(n, 0.0);
  if (n == 0) return result;

  // The bottom levels ignore the clustering, so every evaluation walks
  // one order.
  const std::vector<Cost> bl = bottom_levels(g);
  const std::vector<TaskId> order =
      priority_order(g, [&](TaskId t) { return -bl[t]; });
  UnionFind uf(n);

  // Edges by descending communication cost (ties: endpoint ids).
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tuple(-a.comm, a.from, a.to) <
           std::tuple(-b.comm, b.from, b.to);
  });

  Cost current = evaluate(g, uf, order, nullptr, nullptr);
  for (const Edge& e : edges) {
    std::size_t cu = uf.find(e.from), cv = uf.find(e.to);
    if (cu == cv) continue;  // already zeroed transitively
    // Tentative merge; revert if the schedule length grows. Union-find
    // path compression makes a true revert awkward, so merge on a copy.
    UnionFind trial = uf;
    trial.unite(cu, cv);
    Cost merged = evaluate(g, trial, order, nullptr, nullptr);
    if (merged <= current) {
      uf = std::move(trial);
      current = merged;
    }
  }

  // Final evaluation with times, then relabel clusters densely in order of
  // first appearance.
  (void)evaluate(g, uf, order, &result.start, &result.finish);
  std::vector<ClusterId> label(n, kInvalidTask);
  ClusterId next = 0;
  for (TaskId t = 0; t < n; ++t) {
    std::size_t rep = uf.find(t);
    if (label[rep] == kInvalidTask) label[rep] = next++;
    result.cluster_of[t] = label[rep];
  }
  result.num_clusters = next;

  // Member lists in execution (start-time) order.
  result.members.assign(next, {});
  std::vector<TaskId> by_start(n);
  std::iota(by_start.begin(), by_start.end(), 0);
  std::sort(by_start.begin(), by_start.end(), [&](TaskId a, TaskId b) {
    return std::tuple(result.start[a], a) < std::tuple(result.start[b], b);
  });
  for (TaskId t : by_start) result.members[result.cluster_of[t]].push_back(t);
  return result;
}

}  // namespace flb
