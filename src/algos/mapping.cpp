#include "flb/algos/mapping.hpp"

#include <algorithm>
#include <numeric>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"

namespace flb {

FixedAssignmentRetimer::FixedAssignmentRetimer(const TaskGraph& g)
    : g_(g), order_(priority_order(g, [bl = g.bottom_levels()](TaskId u) {
        return -bl[u];
      })) {}

void FixedAssignmentRetimer::retime_into(const std::vector<ProcId>& proc_of,
                                         ProcId num_procs,
                                         Schedule& out) const {
  FLB_REQUIRE(num_procs >= 1,
              "schedule_with_fixed_assignment: at least one processor");
  FLB_REQUIRE(proc_of.size() == g_.num_tasks(),
              "schedule_with_fixed_assignment: assignment size mismatch");
  for (ProcId p : proc_of)
    FLB_REQUIRE(p < num_procs,
                "schedule_with_fixed_assignment: processor out of range");

  out.reset(num_procs, g_.num_tasks());
  for (const TaskId t : order_) {
    ProcId p = proc_of[t];
    Cost est = out.proc_ready_time(p);
    for (const Adj& a : g_.predecessors(t)) {
      Cost c = out.proc(a.node) == p ? 0.0 : a.comm;
      est = std::max(est, out.finish(a.node) + c);
    }
    out.assign(t, p, est, est + g_.comp(t));
  }

  FLB_ASSERT(out.complete());
}

Schedule schedule_with_fixed_assignment(const TaskGraph& g,
                                        const std::vector<ProcId>& proc_of,
                                        ProcId num_procs) {
  // A placeholder shape: retime_into checks the inputs, then re-dimensions.
  Schedule sched(1, 0);
  FixedAssignmentRetimer(g).retime_into(proc_of, num_procs, sched);
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
