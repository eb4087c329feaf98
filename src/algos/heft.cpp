#include "flb/algos/heft.hpp"

#include <algorithm>
#include <span>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"

namespace flb {

std::vector<Cost> upward_ranks(const TaskGraph& g,
                               const platform::CostModel& model) {
  model.validate(g);
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> rank(g.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    Cost best = 0.0;
    for (const Adj& a : g.successors(t))
      best = std::max(best, a.comm + rank[a.node]);
    rank[t] = model.mean_exec_work(model.work_of(g, t)) + best;
  }
  return rank;
}

std::vector<Cost> downward_ranks(const TaskGraph& g,
                                 const platform::CostModel& model) {
  model.validate(g);
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> rank(g.num_tasks(), 0.0);
  for (TaskId t : order) {
    Cost best = 0.0;
    for (const Adj& a : g.predecessors(t))
      best = std::max(best, rank[a.node] +
                                model.mean_exec_work(model.work_of(g, a.node)) +
                                a.comm);
    rank[t] = best;
  }
  return rank;
}

namespace {

/// The alive processor that finishes t the earliest, idle gaps included
/// (the smaller id on a tie). Data is ready on p at the model's
/// inputs-ready instant floored at p's admission — priced for every
/// processor at once into `ready` (`row` is scratch) — and t starts in the
/// earliest gap that fits its execution time from there.
ProcId min_eft_proc(const TaskGraph& g, const platform::CostModel& model,
                    const Schedule& s, TaskId t, std::span<Cost> ready,
                    std::span<Cost> row) {
  for (ProcId p = 0; p < model.num_procs(); ++p) ready[p] = model.admission(p);
  model.inputs_ready_row(g, s, t, ready, row);
  ProcId best_p = kInvalidProc;
  Cost best_eft = kInfiniteTime;
  for (ProcId p = 0; p < model.num_procs(); ++p) {
    if (!model.alive(p)) continue;
    const Cost exec = model.exec(g, t, p);
    const Cost eft = s.earliest_gap(p, ready[p], exec) + exec;
    if (eft < best_eft || best_p == kInvalidProc) {
      best_eft = eft;
      best_p = p;
    }
  }
  return best_p;
}

/// The list loop HEFT and CPOP share: take tasks in descending `priority`
/// order (priority_order), place each on the processor `choose` returns at
/// its earliest gap after its inputs are ready. The inputs are priced by
/// commit_inputs(), which under link-busy pricing reserves their routes;
/// commits serialize transfers that share a link, so the data-ready time
/// can be later than the one `choose` probed.
template <typename ChooseProc>
Schedule run_list(const TaskGraph& g, platform::CostModel& model,
                  const std::vector<Cost>& priority, ChooseProc&& choose) {
  Schedule sched(model.num_procs(), g.num_tasks());
  for (const TaskId t :
       priority_order(g, [&](TaskId u) { return -priority[u]; })) {
    const ProcId p = choose(sched, t);
    FLB_ASSERT(p != kInvalidProc);
    const Cost ready_at =
        model.commit_inputs(g, sched, t, p, model.admission(p));
    const Cost exec = model.exec(g, t, p);
    const Cost start = sched.earliest_gap(p, ready_at, exec);
    sched.assign(t, p, start, start + exec);
  }
  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace

Schedule heft(const TaskGraph& g, platform::CostModel& model) {
  model.validate(g);
  std::vector<Cost> ready(model.num_procs()), row(model.num_procs());
  return run_list(g, model, upward_ranks(g, model),
                  [&](const Schedule& s, TaskId t) {
                    return min_eft_proc(g, model, s, t, ready, row);
                  });
}

Schedule cpop(const TaskGraph& g, platform::CostModel& model) {
  model.validate(g);
  std::vector<Cost> up = upward_ranks(g, model);
  std::vector<Cost> down = downward_ranks(g, model);
  const TaskId n = g.num_tasks();
  std::vector<Cost> priority(n);
  for (TaskId t = 0; t < n; ++t) priority[t] = up[t] + down[t];

  // The critical path: walk from the highest-priority entry task, always
  // stepping to the highest-priority successor.
  std::vector<bool> on_cp(n, false);
  if (n > 0) {
    TaskId cur = kInvalidTask;
    for (TaskId t = 0; t < n; ++t)
      if (g.is_entry(t) && (cur == kInvalidTask || priority[t] > priority[cur]))
        cur = t;
    while (cur != kInvalidTask) {
      on_cp[cur] = true;
      TaskId next = kInvalidTask;
      for (const Adj& a : g.successors(cur))
        if (next == kInvalidTask || priority[a.node] > priority[next])
          next = a.node;
      cur = next;
    }
  }

  // The critical-path processor: the alive one executing the whole path
  // fastest (the smaller id on a tie).
  Cost cp_work = 0.0;
  for (TaskId t = 0; t < n; ++t)
    if (on_cp[t]) cp_work += model.work_of(g, t);
  ProcId cp_proc = kInvalidProc;
  for (ProcId p = 0; p < model.num_procs(); ++p)
    if (model.alive(p) &&
        (cp_proc == kInvalidProc ||
         model.exec_work(cp_work, p) < model.exec_work(cp_work, cp_proc)))
      cp_proc = p;

  std::vector<Cost> ready(model.num_procs()), row(model.num_procs());
  return run_list(g, model, priority, [&](const Schedule& s, TaskId t) {
    return on_cp[t] ? cp_proc : min_eft_proc(g, model, s, t, ready, row);
  });
}

}  // namespace flb
