#include "flb/algos/dls.hpp"

#include <algorithm>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/util/error.hpp"

namespace flb {

namespace {

// Same cached ready-task quantities as ETF (see etf.cpp): EMT(t,p) equals
// LMT(t) on every processor except the enabling one.
struct ReadyTask {
  TaskId task;
  Cost lmt;
  Cost emt_on_ep;
  ProcId ep;
};

}  // namespace

Schedule DlsScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "DLS: at least one processor required");
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  std::vector<Cost> sl = computation_bottom_levels(g);

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
    std::size_t best_idx = 0;
    ProcId best_proc = 0;
    Cost best_dl = -kInfiniteTime;
    Cost best_est = 0.0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const ReadyTask& r = ready[i];
      for (ProcId p = 0; p < num_procs; ++p) {
        Cost emt = (p == r.ep) ? r.emt_on_ep : r.lmt;
        Cost est = std::max(emt, sched.proc_ready_time(p));
        Cost dl = sl[r.task] - est;
        bool better = dl > best_dl;
        if (!better && dl == best_dl) {
          const ReadyTask& b = ready[best_idx];
          better = r.task < b.task || (r.task == b.task && p < best_proc);
        }
        if (better) {
          best_dl = dl;
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

Schedule DlsScheduler::run_on(const TaskGraph& g, platform::CostModel& model) {
  model.validate(g);
  const ProcId num_procs = model.num_procs();
  const TaskId n = g.num_tasks();
  Schedule sched(num_procs, n);
  std::vector<Cost> sl = computation_bottom_levels(g);
  const bool link_busy = model.mode() == platform::CommMode::kLinkBusy;

  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<TaskId> ready;
  ready.reserve(n);

  // Exhaustive model pricing, as in EtfScheduler::run_on; the dynamic
  // level trades the model-priced EST against the task's static level.
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
    Cost best_dl = -kInfiniteTime;
    Cost best_est = 0.0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready[i];
      for (ProcId p = 0; p < num_procs; ++p) {
        if (!model.alive(p)) continue;
        const Cost est = est_on(t, p);
        const Cost dl = sl[t] - est;
        bool better = dl > best_dl || best_proc == kInvalidProc;
        if (!better && dl == best_dl) {
          const TaskId b = ready[best_idx];
          better = t < b || (t == b && p < best_proc);
        }
        if (better) {
          best_dl = dl;
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
