#include "flb/algos/hlfet.hpp"

#include <tuple>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"

namespace flb {

Schedule HlfetScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, name() + ": at least one processor required");
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  std::vector<Cost> sl = computation_bottom_levels(g);

  using Key = std::tuple<Cost, TaskId>;  // (-static level, id)
  Arena arena;
  DaryIndexedHeap<Key> ready(arena, n);
  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push(t, {-sl[t], t});
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    TaskId t = static_cast<TaskId>(ready.pop());
    // Earliest start with or without idle gaps; lower proc ids win ties.
    const auto [p, est] = insertion_ ? best_proc_insertion(g, sched, t)
                                     : best_proc_exhaustive(g, sched, t);
    sched.assign(t, p, est, est + g.comp(t));
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {-sl[a.node], a.node});
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace flb
