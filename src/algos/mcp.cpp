#include "flb/algos/mcp.hpp"

#include <algorithm>
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
    ProcId p;
    Cost est;
    if (insertion_) {
      // Earliest feasible start on each processor, idle gaps included. The
      // gap search is bounded below by the data-ready time on q: local
      // predecessors must have finished (their messages are free but their
      // results must exist), remote ones pay the edge cost.
      p = 0;
      est = kInfiniteTime;
      for (ProcId q = 0; q < num_procs; ++q) {
        Cost data_ready = 0.0;
        for (const Adj& a : g.predecessors(t)) {
          Cost c = sched.proc(a.node) == q ? 0.0 : a.comm;
          data_ready = std::max(data_ready, sched.finish(a.node) + c);
        }
        Cost candidate = sched.earliest_gap(q, data_ready, g.comp(t));
        if (candidate < est) {
          est = candidate;
          p = q;
        }
      }
    } else {
      // End-of-timeline placement: exhaustive earliest-start scan (lower
      // proc id wins ties inside best_proc_exhaustive).
      std::tie(p, est) = best_proc_exhaustive(g, sched, t);
    }
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
