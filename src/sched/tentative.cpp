#include "flb/sched/tentative.hpp"

#include <algorithm>

#include "flb/util/error.hpp"

namespace flb {

Cost last_message_time(const TaskGraph& g, const Schedule& s, TaskId t) {
  Cost lmt = 0.0;
  for (const Adj& a : g.predecessors(t)) {
    FLB_ASSERT(s.is_scheduled(a.node));
    lmt = std::max(lmt, s.finish(a.node) + a.comm);
  }
  return lmt;
}

ProcId enabling_proc(const TaskGraph& g, const Schedule& s, TaskId t) {
  Cost lmt = -1.0;
  ProcId ep = kInvalidProc;
  for (const Adj& a : g.predecessors(t)) {
    FLB_ASSERT(s.is_scheduled(a.node));
    Cost arrival = s.finish(a.node) + a.comm;
    if (arrival > lmt) {
      lmt = arrival;
      ep = s.proc(a.node);
    }
  }
  return ep;
}

Cost effective_message_time(const TaskGraph& g, const Schedule& s, TaskId t,
                            ProcId p) {
  Cost emt = 0.0;
  for (const Adj& a : g.predecessors(t)) {
    FLB_ASSERT(s.is_scheduled(a.node));
    if (s.proc(a.node) == p) continue;
    emt = std::max(emt, s.finish(a.node) + a.comm);
  }
  return emt;
}

Cost est_start(const TaskGraph& g, const Schedule& s, TaskId t, ProcId p) {
  return std::max(effective_message_time(g, s, t, p), s.proc_ready_time(p));
}

bool is_ready(const TaskGraph& g, const Schedule& s, TaskId t) {
  if (s.is_scheduled(t)) return false;
  for (const Adj& a : g.predecessors(t))
    if (!s.is_scheduled(a.node)) return false;
  return true;
}

std::pair<ProcId, Cost> best_proc_exhaustive(const TaskGraph& g,
                                             const Schedule& s, TaskId t) {
  ProcId best_p = 0;
  Cost best_est = kInfiniteTime;
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    Cost e = est_start(g, s, t, p);
    if (e < best_est) {
      best_est = e;
      best_p = p;
    }
  }
  return {best_p, best_est};
}

std::pair<ProcId, Cost> best_proc_insertion(const TaskGraph& g,
                                            const Schedule& s, TaskId t) {
  ProcId best_p = 0;
  Cost best_start = kInfiniteTime;
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    Cost data_ready = 0.0;
    for (const Adj& a : g.predecessors(t)) {
      const Cost c = s.proc(a.node) == p ? 0.0 : a.comm;
      data_ready = std::max(data_ready, s.finish(a.node) + c);
    }
    const Cost start = s.earliest_gap(p, data_ready, g.comp(t));
    if (start < best_start) {
      best_start = start;
      best_p = p;
    }
  }
  return {best_p, best_start};
}

}  // namespace flb
