#include "flb/algos/mapping.hpp"

#include <algorithm>
#include <numeric>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"

namespace flb {

Schedule schedule_with_fixed_assignment(const TaskGraph& g,
                                        const std::vector<ProcId>& proc_of,
                                        ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1,
              "schedule_with_fixed_assignment: at least one processor");
  FLB_REQUIRE(proc_of.size() == g.num_tasks(),
              "schedule_with_fixed_assignment: assignment size mismatch");
  for (ProcId p : proc_of)
    FLB_REQUIRE(p < num_procs,
                "schedule_with_fixed_assignment: processor out of range");

  Schedule sched(num_procs, g.num_tasks());
  const std::vector<Cost> bl = bottom_levels(g);
  for (const TaskId t : priority_order(g, [&](TaskId u) { return -bl[u]; })) {
    ProcId p = proc_of[t];
    Cost est = sched.proc_ready_time(p);
    for (const Adj& a : g.predecessors(t)) {
      Cost c = sched.proc(a.node) == p ? 0.0 : a.comm;
      est = std::max(est, sched.finish(a.node) + c);
    }
    sched.assign(t, p, est, est + g.comp(t));
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

Schedule wrap_map(const TaskGraph& g, const Clustering& clustering,
                  ProcId num_procs) {
  clustering.validate(g, num_procs);
  std::vector<ProcId> proc_of(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    proc_of[t] = static_cast<ProcId>(clustering.cluster_of[t] % num_procs);
  return schedule_with_fixed_assignment(g, proc_of, num_procs);
}

Schedule work_map(const TaskGraph& g, const Clustering& clustering,
                  ProcId num_procs) {
  clustering.validate(g, num_procs);

  // Total computation per cluster.
  std::vector<Cost> work(clustering.num_clusters, 0.0);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    work[clustering.cluster_of[t]] += g.comp(t);

  // Heaviest cluster first onto the least-loaded processor (LPT).
  std::vector<ClusterId> order(clustering.num_clusters);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ClusterId a, ClusterId b) {
    return work[a] != work[b] ? work[a] > work[b] : a < b;
  });
  std::vector<Cost> load(num_procs, 0.0);
  std::vector<ProcId> proc_of_cluster(clustering.num_clusters, 0);
  for (ClusterId c : order) {
    ProcId best = 0;
    for (ProcId p = 1; p < num_procs; ++p)
      if (load[p] < load[best]) best = p;
    proc_of_cluster[c] = best;
    load[best] += work[c];
  }

  std::vector<ProcId> proc_of(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    proc_of[t] = proc_of_cluster[clustering.cluster_of[t]];
  return schedule_with_fixed_assignment(g, proc_of, num_procs);
}

}  // namespace flb
