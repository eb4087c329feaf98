#include "flb/algos/fcp.hpp"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"

namespace flb {

Schedule FcpScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "FCP: at least one processor required");
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  std::vector<Cost> bl = bottom_levels(g);

  Arena arena;
  // Ready tasks by descending static priority (bottom level).
  using TaskKey = std::tuple<Cost, TaskId>;  // (-bottom level, id)
  DaryIndexedHeap<TaskKey> ready(arena, n);
  // Processors by ascending ready time.
  using ProcKey = std::pair<Cost, ProcId>;
  DaryIndexedHeap<ProcKey> procs(arena, num_procs);
  for (ProcId p = 0; p < num_procs; ++p) procs.push(p, {0.0, p});

  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push(t, {-bl[t], t});
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    TaskId t = static_cast<TaskId>(ready.pop());

    // The two-processor rule: the task's minimum start time is attained
    // either on its enabling processor or on the earliest-idle processor.
    Cost lmt = 0.0, emt_on_ep = 0.0;
    ProcId ep = kInvalidProc;
    for (const Adj& a : g.predecessors(t)) {
      Cost arrival = sched.finish(a.node) + a.comm;
      if (arrival > lmt || ep == kInvalidProc) {
        lmt = arrival;
        ep = sched.proc(a.node);
      }
    }
    for (const Adj& a : g.predecessors(t)) {
      if (sched.proc(a.node) == ep) continue;
      emt_on_ep = std::max(emt_on_ep, sched.finish(a.node) + a.comm);
    }

    // EST on a candidate processor: messages from the enabling processor
    // are free only there (EMT(t,q) = LMT(t) for every q != EP).
    auto est_on = [&](ProcId q) {
      Cost emt = (q == ep) ? emt_on_ep : lmt;
      return std::max(emt, sched.proc_ready_time(q));
    };

    ProcId idle = static_cast<ProcId>(procs.top());
    ProcId p = idle;
    Cost est = est_on(idle);
    if (ep != kInvalidProc && ep != idle) {
      Cost est_ep = est_on(ep);
      // Strict '<': prefer the idle processor on ties (the communication
      // from the enabling processor is then already overlapped).
      if (est_ep < est) {
        p = ep;
        est = est_ep;
      }
    }

    sched.assign(t, p, est, est + g.comp(t));
    procs.update(p, {sched.proc_ready_time(p), p});
    for (const Adj& a : g.successors(t)) {
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {-bl[a.node], a.node});
    }
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace flb
