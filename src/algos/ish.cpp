#include "flb/algos/ish.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"

namespace flb {

Schedule IshScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "ISH: at least one processor required");
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
    ProcId best_p = 0;
    Cost best_start = kInfiniteTime;
    for (ProcId p = 0; p < num_procs; ++p) {
      Cost data_ready = 0.0;
      for (const Adj& a : g.predecessors(t)) {
        Cost c = sched.proc(a.node) == p ? 0.0 : a.comm;
        data_ready = std::max(data_ready, sched.finish(a.node) + c);
      }
      Cost start = sched.earliest_gap(p, data_ready, g.comp(t));
      if (start < best_start) {
        best_start = start;
        best_p = p;
      }
    }
    sched.assign(t, best_p, best_start, best_start + g.comp(t));
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {-sl[a.node], a.node});
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace flb
