#include "flb/algos/heft.hpp"

#include <algorithm>
#include <tuple>

#include "flb/graph/properties.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"

namespace flb {

std::vector<Cost> upward_ranks(const TaskGraph& g,
                               const HeteroMachine& machine) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> rank(g.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    Cost best = 0.0;
    for (const Adj& a : g.successors(t))
      best = std::max(best, a.comm + rank[a.node]);
    rank[t] = machine.mean_exec_time(g.comp(t)) + best;
  }
  return rank;
}

std::vector<Cost> upward_ranks(const TaskGraph& g,
                               const platform::CostModel& model) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> rank(g.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    Cost best = 0.0;
    for (const Adj& a : g.successors(t))
      best = std::max(best, model.message_cost(a.comm) + rank[a.node]);
    rank[t] = model.mean_exec_work(model.work_of(g, t)) + best;
  }
  return rank;
}

std::vector<Cost> downward_ranks(const TaskGraph& g,
                                 const HeteroMachine& machine) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> rank(g.num_tasks(), 0.0);
  for (TaskId t : order) {
    Cost best = 0.0;
    for (const Adj& a : g.predecessors(t))
      best = std::max(best,
                      rank[a.node] + machine.mean_exec_time(g.comp(a.node)) +
                          a.comm);
    rank[t] = best;
  }
  return rank;
}

namespace {

/// Earliest finish of t on p against the partial schedule, idle gaps
/// included: start = earliest gap >= data-ready time, finish = start +
/// speed-scaled execution time.
std::pair<Cost, Cost> eft_on(const TaskGraph& g, const HeteroMachine& machine,
                             const Schedule& s, TaskId t, ProcId p) {
  Cost ready = 0.0;
  for (const Adj& a : g.predecessors(t)) {
    Cost c = s.proc(a.node) == p ? 0.0 : a.comm;
    ready = std::max(ready, s.finish(a.node) + c);
  }
  Cost exec = machine.exec_time(g.comp(t), p);
  Cost start = s.earliest_gap(p, ready, exec);
  return {start, start + exec};
}

/// As eft_on, but priced through the platform cost model: the data-ready
/// time is the model's cold-aware arrival max clamped to the processor's
/// admission instant, execution uses the model's speeds/overrides.
std::pair<Cost, Cost> eft_on_model(const TaskGraph& g,
                                   const platform::CostModel& model,
                                   const Schedule& s, TaskId t, ProcId p) {
  Cost ready = model.admission(p);
  for (const Adj& a : g.predecessors(t))
    ready = std::max(ready,
                     model.arrival(s.proc(a.node), p, a.comm, s.finish(a.node)));
  Cost exec = model.exec(g, t, p, 0.0);
  Cost start = s.earliest_gap(p, ready, exec);
  return {start, start + exec};
}

/// Shared driver: consume ready tasks in descending `priority` order,
/// placing each with `choose` (returns the processor).
template <typename ChooseProc>
Schedule run_list(const TaskGraph& g, const HeteroMachine& machine,
                  const std::vector<Cost>& priority, ChooseProc&& choose) {
  const TaskId n = g.num_tasks();
  Schedule sched(machine.num_procs(), n);
  using Key = std::tuple<Cost, TaskId>;  // (-priority, id)
  Arena arena;
  DaryIndexedHeap<Key> ready(arena, n);
  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push(t, {-priority[t], t});
  }
  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    TaskId t = static_cast<TaskId>(ready.pop());
    ProcId p = choose(sched, t);
    auto [start, finish] = eft_on(g, machine, sched, t, p);
    sched.assign(t, p, start, finish);
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {-priority[a.node], a.node});
  }
  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace

Schedule heft(const TaskGraph& g, const HeteroMachine& machine) {
  std::vector<Cost> rank = upward_ranks(g, machine);
  return run_list(g, machine, rank, [&](const Schedule& s, TaskId t) {
    ProcId best_p = 0;
    Cost best_eft = kInfiniteTime;
    for (ProcId p = 0; p < machine.num_procs(); ++p) {
      Cost eft = eft_on(g, machine, s, t, p).second;
      if (eft < best_eft) {
        best_eft = eft;
        best_p = p;
      }
    }
    return best_p;
  });
}

Schedule heft(const TaskGraph& g, platform::CostModel& model) {
  const TaskId n = g.num_tasks();
  std::vector<Cost> priority = upward_ranks(g, model);
  Schedule sched(model.num_procs(), n);
  using Key = std::tuple<Cost, TaskId>;  // (-priority, id)
  Arena arena;
  DaryIndexedHeap<Key> ready(arena, n);
  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push(t, {-priority[t], t});
  }
  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    TaskId t = static_cast<TaskId>(ready.pop());
    ProcId best_p = kInvalidProc;
    Cost best_eft = kInfiniteTime;
    for (ProcId p = 0; p < model.num_procs(); ++p) {
      if (!model.alive(p)) continue;
      Cost eft = eft_on_model(g, model, sched, t, p).second;
      if (eft < best_eft || best_p == kInvalidProc) {
        best_eft = eft;
        best_p = p;
      }
    }
    FLB_ASSERT(best_p != kInvalidProc);
    auto [start, finish] = eft_on_model(g, model, sched, t, best_p);
    if (model.mode() == platform::CommMode::kLinkBusy) {
      // Reserve the incoming routes; commits serialize transfers that
      // share a link, so the data-ready time (and hence the insertion
      // search) is recomputed from the committed arrivals.
      Cost ready_at = model.admission(best_p);
      for (const Adj& a : g.predecessors(t))
        ready_at = std::max(ready_at,
                            model.commit_arrival(sched.proc(a.node), best_p,
                                                 a.comm, sched.finish(a.node)));
      const Cost exec = model.exec(g, t, best_p, 0.0);
      start = sched.earliest_gap(best_p, ready_at, exec);
      finish = start + exec;
    }
    sched.assign(t, best_p, start, finish);
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {-priority[a.node], a.node});
  }
  FLB_ASSERT(sched.complete());
  return sched;
}

Schedule cpop(const TaskGraph& g, const HeteroMachine& machine) {
  std::vector<Cost> up = upward_ranks(g, machine);
  std::vector<Cost> down = downward_ranks(g, machine);
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

  // The critical-path processor executes the whole path fastest.
  Cost cp_comp = 0.0;
  for (TaskId t = 0; t < n; ++t)
    if (on_cp[t]) cp_comp += g.comp(t);
  ProcId cp_proc = 0;
  for (ProcId p = 1; p < machine.num_procs(); ++p)
    if (machine.exec_time(cp_comp, p) <
        machine.exec_time(cp_comp, cp_proc))
      cp_proc = p;

  return run_list(g, machine, priority, [&](const Schedule& s, TaskId t) {
    if (on_cp[t]) return cp_proc;
    ProcId best_p = 0;
    Cost best_eft = kInfiniteTime;
    for (ProcId p = 0; p < machine.num_procs(); ++p) {
      Cost eft = eft_on(g, machine, s, t, p).second;
      if (eft < best_eft) {
        best_eft = eft;
        best_p = p;
      }
    }
    return best_p;
  });
}

}  // namespace flb
