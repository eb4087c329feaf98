#include "flb/algos/dsc.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"

namespace flb {

Cost Clustering::schedule_length() const {
  Cost len = 0.0;
  for (Cost f : finish) len = std::max(len, f);
  return len;
}

void Clustering::validate(const TaskGraph& g, ProcId num_procs) const {
  FLB_REQUIRE(num_procs >= 1,
              "Clustering: at least one processor required to map onto");
  FLB_REQUIRE(cluster_of.size() == g.num_tasks(),
              "Clustering: clustering does not match the graph");
  for (const ClusterId c : cluster_of)
    FLB_REQUIRE(c < num_clusters, "Clustering: cluster id out of range");
}

Clustering dsc_cluster(const TaskGraph& g) {
  const TaskId n = g.num_tasks();
  Clustering result;
  result.cluster_of.assign(n, 0);
  result.start.assign(n, 0.0);
  result.finish.assign(n, 0.0);
  if (n == 0) return result;

  std::vector<Cost> bl = bottom_levels(g);

  // Free-task heap by descending priority tlevel + blevel (the dominant
  // sequence runs through the highest-priority free task). tlevel of a free
  // task here is its earliest start on a fresh cluster, i.e. its LMT.
  using Key = std::tuple<Cost, TaskId>;  // (-(tlevel+blevel), id)
  Arena arena;
  DaryIndexedHeap<Key> free_tasks(arena, n);

  std::vector<std::size_t> unexamined_preds(n);
  std::vector<Cost> lmt(n, 0.0);          // arrival max over clustered preds
  std::vector<TaskId> last_pred(n, kInvalidTask);  // pred achieving the max

  // Cluster state: ready time (finish of the cluster's last task).
  std::vector<Cost> cluster_ready;
  std::vector<std::vector<TaskId>> members;

  for (TaskId t = 0; t < n; ++t) {
    unexamined_preds[t] = g.in_degree(t);
    if (unexamined_preds[t] == 0) free_tasks.push(t, {-(0.0 + bl[t]), t});
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!free_tasks.empty());
    TaskId t = static_cast<TaskId>(free_tasks.pop());

    // Candidate 1: a fresh cluster — start at LMT(t).
    Cost est_new = lmt[t];

    // Candidate 2: append to the cluster of the predecessor the last
    // message arrives from, zeroing communication from every predecessor
    // already in that cluster.
    ClusterId dest = 0;
    bool have_dest = last_pred[t] != kInvalidTask;
    Cost est_append = kInfiniteTime;
    if (have_dest) {
      dest = result.cluster_of[last_pred[t]];
      Cost arrivals = 0.0;
      for (const Adj& a : g.predecessors(t)) {
        Cost c = result.cluster_of[a.node] == dest ? 0.0 : a.comm;
        arrivals = std::max(arrivals, result.finish[a.node] + c);
      }
      est_append = std::max(arrivals, cluster_ready[dest]);
    }

    Cost st;
    ClusterId c;
    if (have_dest && est_append <= est_new) {
      c = dest;
      st = est_append;
    } else {
      c = static_cast<ClusterId>(cluster_ready.size());
      cluster_ready.push_back(0.0);
      members.emplace_back();
      st = est_new;
    }
    result.cluster_of[t] = c;
    result.start[t] = st;
    result.finish[t] = st + g.comp(t);
    cluster_ready[c] = result.finish[t];
    members[c].push_back(t);

    // Release successors; track their LMT and enabling predecessor.
    for (const Adj& a : g.successors(t)) {
      TaskId s = a.node;
      Cost arrival = result.finish[t] + a.comm;
      if (arrival > lmt[s] || last_pred[s] == kInvalidTask) {
        lmt[s] = arrival;
        last_pred[s] = t;
      }
      if (--unexamined_preds[s] == 0)
        free_tasks.push(s, {-(lmt[s] + bl[s]), s});
    }
  }

  result.num_clusters = static_cast<ClusterId>(cluster_ready.size());
  result.members = std::move(members);
  return result;
}

}  // namespace flb
