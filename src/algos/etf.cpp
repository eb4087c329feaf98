#include "flb/algos/etf.hpp"

#include <algorithm>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/util/error.hpp"

namespace flb {

namespace {

/// Per-ready-task cache so each iteration costs O(P) per task rather than
/// O(in-degree * P): the minimum EST over processors only needs LMT, the
/// enabling processor, and the arrival max excluding the enabling
/// processor's messages (EMT on EP). For p != EP, EMT(t,p) = LMT(t).
struct ReadyTask {
  TaskId task;
  Cost lmt;         // last message arrival time
  Cost emt_on_ep;   // arrival max over predecessors not on EP
  ProcId ep;        // enabling processor (kInvalidProc for entry tasks)
};

}  // namespace

Schedule EtfScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "ETF: at least one processor required");
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  std::vector<Cost> bl = bottom_levels(g);

  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<ReadyTask> ready;
  ready.reserve(n);

  auto make_ready = [&](TaskId t) {
    ReadyTask r{t, 0.0, 0.0, kInvalidProc};
    for (const Adj& a : g.predecessors(t)) {
      Cost arrival = sched.finish(a.node) + a.comm;
      if (arrival > r.lmt || r.ep == kInvalidProc) {
        r.lmt = arrival;
        r.ep = sched.proc(a.node);
      }
    }
    for (const Adj& a : g.predecessors(t)) {
      if (sched.proc(a.node) == r.ep) continue;
      r.emt_on_ep = std::max(r.emt_on_ep, sched.finish(a.node) + a.comm);
    }
    ready.push_back(r);
  };

  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) make_ready(t);
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    // Exhaustive tentative scheduling: every ready task on every processor.
    std::size_t best_idx = 0;
    ProcId best_proc = 0;
    Cost best_est = kInfiniteTime;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const ReadyTask& r = ready[i];
      for (ProcId p = 0; p < num_procs; ++p) {
        Cost emt = (p == r.ep) ? r.emt_on_ep : r.lmt;
        Cost est = std::max(emt, sched.proc_ready_time(p));
        bool better = est < best_est;
        if (!better && est == best_est) {
          const ReadyTask& b = ready[best_idx];
          // Static-priority tie-break: larger bottom level, then smaller
          // task id, then smaller processor id.
          better = bl[r.task] > bl[b.task] ||
                   (bl[r.task] == bl[b.task] &&
                    (r.task < b.task || (r.task == b.task && p < best_proc)));
        }
        if (better) {
          best_est = est;
          best_idx = i;
          best_proc = p;
        }
      }
    }

    TaskId t = ready[best_idx].task;
    sched.assign(t, best_proc, best_est, best_est + g.comp(t));
    ready[best_idx] = ready.back();
    ready.pop_back();
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0) make_ready(a.node);
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

Schedule EtfScheduler::run_on(const TaskGraph& g, platform::CostModel& model) {
  model.validate(g);
  const ProcId num_procs = model.num_procs();
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  std::vector<Cost> bl = bottom_levels(g);
  const bool link_busy = model.mode() == platform::CommMode::kLinkBusy;

  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<TaskId> ready;
  ready.reserve(n);

  // Exhaustive pricing replaces the clique-only EMT/LMT cache of run():
  // every (ready task, alive processor) pair is priced fresh through the
  // model, so routed hops, link reservations, cold caches and admission
  // windows all steer the selection. On a plain clique the values coincide
  // with the cached ones (Corollary 2), so the selection is identical.
  auto est_on = [&](TaskId t, ProcId p) -> Cost {
    Cost est = std::max(sched.proc_ready_time(p), model.admission(p));
    for (const Adj& a : g.predecessors(t))
      est = std::max(est, model.arrival(sched.proc(a.node), p, a.comm,
                                        sched.finish(a.node)));
    return est;
  };

  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push_back(t);
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    std::size_t best_idx = 0;
    ProcId best_proc = kInvalidProc;
    Cost best_est = kInfiniteTime;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready[i];
      for (ProcId p = 0; p < num_procs; ++p) {
        if (!model.alive(p)) continue;
        const Cost est = est_on(t, p);
        bool better = est < best_est || best_proc == kInvalidProc;
        if (!better && est == best_est) {
          const TaskId b = ready[best_idx];
          better = bl[t] > bl[b] ||
                   (bl[t] == bl[b] &&
                    (t < b || (t == b && p < best_proc)));
        }
        if (better) {
          best_est = est;
          best_idx = i;
          best_proc = p;
        }
      }
    }
    FLB_ASSERT(best_proc != kInvalidProc);

    const TaskId t = ready[best_idx];
    Cost start = best_est;
    if (link_busy) {
      // Reserve the chosen task's incoming routes; identical arithmetic to
      // the probe just above, so start == best_est.
      start = std::max(sched.proc_ready_time(best_proc),
                       model.admission(best_proc));
      for (const Adj& a : g.predecessors(t))
        start = std::max(start,
                         model.commit_arrival(sched.proc(a.node), best_proc,
                                              a.comm, sched.finish(a.node)));
    }
    sched.assign(t, best_proc, start, start + model.exec(g, t, best_proc));
    ready[best_idx] = ready.back();
    ready.pop_back();
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0) ready.push_back(a.node);
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace flb
