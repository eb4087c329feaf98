#include "flb/algos/mcp.hpp"

#include <tuple>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb {

Schedule McpScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "MCP: at least one processor required");
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);

  std::vector<Cost> alap = alap_times(g);
  Rng rng(seed_);
  std::vector<double> tie(n);
  for (double& v : tie) v = rng.next_double();

  // Ready list keyed by (ALAP, random tie key, id).
  using Key = std::tuple<Cost, double, TaskId>;
  Arena arena;
  DaryIndexedHeap<Key> ready(arena, n);
  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push(t, {alap[t], tie[t], t});
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    TaskId t = static_cast<TaskId>(ready.pop());
    // Earliest start with or without idle gaps; lower proc ids win ties.
    const auto [p, est] = insertion_ ? best_proc_insertion(g, sched, t)
                                     : best_proc_exhaustive(g, sched, t);
    sched.assign(t, p, est, est + g.comp(t));
    for (const Adj& a : g.successors(t)) {
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {alap[a.node], tie[a.node], a.node});
    }
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace flb
