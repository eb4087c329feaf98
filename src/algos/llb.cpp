#include "flb/algos/llb.hpp"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"

namespace flb {

namespace {

// Bottom levels with intra-cluster communication zeroed: after clustering,
// messages inside one cluster are free by construction.
std::vector<Cost> clustered_bottom_levels(const TaskGraph& g,
                                          const Clustering& clustering) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> bl(g.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    Cost best = 0.0;
    for (const Adj& a : g.successors(t)) {
      Cost c = clustering.cluster_of[t] == clustering.cluster_of[a.node]
                   ? 0.0
                   : a.comm;
      best = std::max(best, bl[a.node] + c);
    }
    bl[t] = g.comp(t) + best;
  }
  return bl;
}

}  // namespace

Schedule llb_map(const TaskGraph& g, const Clustering& clustering,
                 ProcId num_procs) {
  clustering.validate(g, num_procs);
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  if (n == 0) return sched;

  std::vector<Cost> bl = clustered_bottom_levels(g, clustering);

  using TaskKey = std::tuple<Cost, TaskId>;  // (-bottom level, id)
  using ProcKey = std::pair<Cost, ProcId>;   // (PRT, id)

  Arena arena;
  // Ready tasks whose cluster is mapped, per destination processor. A task
  // is mapped to at most one processor, so one forest of P heaps sharing
  // the task id space suffices (O(V + P) setup).
  DaryHeapForest<TaskKey> proc_ready(arena, n, num_procs);
  // Ready tasks of still-unmapped clusters.
  DaryIndexedHeap<TaskKey> unmapped_ready(arena, n);
  // All processors by ready time; processors with non-empty proc_ready.
  DaryIndexedHeap<ProcKey> procs_all(arena, num_procs),
      procs_with_ready(arena, num_procs);
  for (ProcId p = 0; p < num_procs; ++p) procs_all.push(p, {0.0, p});

  std::vector<ProcId> cluster_proc(clustering.num_clusters, kInvalidProc);
  // Ready-but-unscheduled tasks of each unmapped cluster, migrated to the
  // destination processor's heap when the cluster gets mapped.
  std::vector<std::vector<TaskId>> cluster_pending(clustering.num_clusters);

  auto sync_ready_proc = [&](ProcId p) {
    if (proc_ready.empty(p)) {
      if (procs_with_ready.contains(p)) procs_with_ready.erase(p);
    } else {
      procs_with_ready.push_or_update(p, {sched.proc_ready_time(p), p});
    }
  };

  auto on_ready = [&](TaskId t) {
    ClusterId c = clustering.cluster_of[t];
    ProcId p = cluster_proc[c];
    if (p == kInvalidProc) {
      unmapped_ready.push(t, {-bl[t], t});
      cluster_pending[c].push_back(t);
    } else {
      proc_ready.push(p, t, {-bl[t], t});
      sync_ready_proc(p);
    }
  };

  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) on_ready(t);
  }

  for (TaskId step = 0; step < n; ++step) {
    // Destination: the processor becoming idle the earliest. If it has no
    // candidate at all (no ready mapped task and no unmapped task exists),
    // fall back to the earliest-idle processor with ready mapped work.
    ProcId p = static_cast<ProcId>(procs_all.top());
    bool have_a = !proc_ready.empty(p);
    bool have_b = !unmapped_ready.empty();
    if (!have_a && !have_b) {
      FLB_ASSERT(!procs_with_ready.empty());
      p = static_cast<ProcId>(procs_with_ready.top());
      have_a = true;
    }

    TaskId ta = have_a ? static_cast<TaskId>(proc_ready.top(p))
                       : kInvalidTask;
    TaskId tb = have_b ? static_cast<TaskId>(unmapped_ready.top())
                       : kInvalidTask;
    Cost est_a = have_a ? est_start(g, sched, ta, p) : kInfiniteTime;
    Cost est_b = have_b ? est_start(g, sched, tb, p) : kInfiniteTime;

    // The earlier-starting candidate wins; ties keep clusters together.
    bool choose_a = have_a && (!have_b || est_a <= est_b);
    TaskId t = choose_a ? ta : tb;
    Cost est = choose_a ? est_a : est_b;

    if (choose_a) {
      proc_ready.erase(t);
    } else {
      unmapped_ready.erase(t);
      // Map the whole cluster to p and migrate its other ready tasks.
      ClusterId c = clustering.cluster_of[t];
      cluster_proc[c] = p;
      for (TaskId pending : cluster_pending[c]) {
        if (pending == t || !unmapped_ready.contains(pending)) continue;
        unmapped_ready.erase(pending);
        proc_ready.push(p, pending, {-bl[pending], pending});
      }
      cluster_pending[c].clear();
    }

    sched.assign(t, p, est, est + g.comp(t));
    procs_all.update(p, {sched.proc_ready_time(p), p});
    sync_ready_proc(p);

    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0) on_ready(a.node);
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

Schedule DscLlbScheduler::run(const TaskGraph& g, ProcId num_procs) {
  Clustering clustering = dsc_cluster(g);
  return llb_map(g, clustering, num_procs);
}

}  // namespace flb
