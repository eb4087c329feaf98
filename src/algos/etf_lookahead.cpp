#include "flb/algos/etf_lookahead.hpp"

#include <algorithm>
#include <vector>

#include "exhaustive.hpp"
#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"

namespace flb {

Schedule EtfLookaheadScheduler::run(const TaskGraph& g, ProcId num_procs) {
  platform::CostModel model = platform::CostModel::clique(num_procs);
  const TaskId n = g.num_tasks();
  std::vector<Cost> bl = bottom_levels(g);

  // Static critical child per task: the successor whose edge + bottom
  // level dominates the remaining work below the task.
  std::vector<TaskId> critical_child(n, kInvalidTask);
  std::vector<Cost> child_comm(n, 0.0);
  for (TaskId t = 0; t < n; ++t) {
    Cost best = -1.0;
    for (const Adj& a : g.successors(t)) {
      Cost weight = a.comm + bl[a.node];
      if (weight > best) {
        best = weight;
        critical_child[t] = a.node;
        child_comm[t] = a.comm;
      }
    }
  }

  return detail::run_exhaustive(g, model, [&](const detail::ReadyRows& ready,
                                              const Schedule& sched) {
    // Phase 1 — ETF's criterion: the global minimum EST over all
    // (ready task, processor) pairs.
    Cost best_est = kInfiniteTime;
    for (std::size_t i = 0; i < ready.size(); ++i)
      for (ProcId p : ready.procs())
        best_est = std::min(best_est, ready.est(i, p));

    // Phase 2 — lookahead tie-break: every pair achieving that minimum is
    // scored by the estimated start of the task's critical child; the
    // smallest projected child start wins (remaining ties: larger bottom
    // level, then ids). This is exactly the degree of freedom in which
    // ETF, FLB and this variant differ (paper Sections 4/6.2).
    ProcId idle = 0;
    for (ProcId q = 1; q < num_procs; ++q)
      if (sched.proc_ready_time(q) < sched.proc_ready_time(idle)) idle = q;

    detail::Pick best;
    Cost best_score = kInfiniteTime;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready.task(i);
      // Arrival at the earliest-idle processor from the critical child's
      // other scheduled parents, shared across this task's pairs.
      const TaskId c = critical_child[t];
      Cost other_arr_idle = 0.0;
      bool other_computed = false;

      for (ProcId p : ready.procs()) {
        const Cost est = ready.est(i, p);
        if (est > best_est) continue;  // not an earliest-start pair
        Cost ft = est + g.comp(t);

        Cost score;
        if (c == kInvalidTask) {
          score = ft;
        } else {
          if (!other_computed) {
            for (const Adj& in : g.predecessors(c)) {
              if (in.node == t || !sched.is_scheduled(in.node)) continue;
              other_arr_idle = std::max(
                  other_arr_idle,
                  sched.finish(in.node) +
                      (sched.proc(in.node) == idle ? 0.0 : in.comm));
            }
            other_computed = true;
          }
          Cost arr_other_p = 0.0;
          for (const Adj& in : g.predecessors(c)) {
            if (in.node == t || !sched.is_scheduled(in.node)) continue;
            arr_other_p = std::max(
                arr_other_p, sched.finish(in.node) +
                                 (sched.proc(in.node) == p ? 0.0 : in.comm));
          }
          Cost child_on_p =
              std::max({ft, arr_other_p, sched.proc_ready_time(p)});
          Cost t_arrival_idle = ft + (idle == p ? 0.0 : child_comm[t]);
          Cost child_on_idle = std::max(
              {t_arrival_idle, other_arr_idle, sched.proc_ready_time(idle)});
          score = std::min(child_on_p, child_on_idle);
        }

        bool better = best.proc == kInvalidProc || score < best_score;
        if (!better && score == best_score) {
          const TaskId b = ready.task(best.index);
          better = bl[t] > bl[b] || (bl[t] == bl[b] && t < b);
        }
        if (better) {
          best_score = score;
          best = {i, p, est};
        }
      }
    }
    return best;
  });
}

}  // namespace flb
