#include "flb/sched/schedule_analysis.hpp"

#include <algorithm>

#include "flb/util/error.hpp"

namespace flb {

std::vector<TaskBinding> classify_bindings(const TaskGraph& g,
                                           const Schedule& s) {
  FLB_REQUIRE(s.complete(), "classify_bindings: schedule is incomplete");
  const TaskId n = g.num_tasks();
  std::vector<TaskBinding> out(n);

  // Previous task on each processor's timeline.
  std::vector<TaskId> prev_on_proc(n, kInvalidTask);
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    auto tasks = s.tasks_on(p);
    for (std::size_t i = 1; i < tasks.size(); ++i)
      prev_on_proc[tasks[i]] = tasks[i - 1];
  }

  for (TaskId t = 0; t < n; ++t) {
    const ProcId p = s.proc(t);

    Cost proc_avail = 0.0;
    TaskId prev = prev_on_proc[t];
    if (prev != kInvalidTask) proc_avail = s.finish(prev);

    Cost data_ready = 0.0;
    TaskId data_blocker = kInvalidTask;
    bool data_remote = false;
    for (const Adj& a : g.predecessors(t)) {
      bool remote = s.proc(a.node) != p;
      Cost arrival = s.finish(a.node) + (remote ? a.comm : 0.0);
      // '>=' so ties prefer remote blockers reported last... keep first
      // maximal arrival deterministically, preferring the remote one when
      // arrivals tie (the message is the costlier constraint).
      if (arrival > data_ready + kTimeTolerance ||
          (arrival > data_ready - kTimeTolerance && remote && !data_remote)) {
        data_ready = std::max(data_ready, arrival);
        data_blocker = a.node;
        data_remote = remote;
      }
    }

    Cost bound = std::max(proc_avail, data_ready);
    if (s.start(t) > bound + kTimeTolerance) {
      out[t] = {Binding::kSlack, kInvalidTask};
    } else if (bound <= kTimeTolerance) {
      out[t] = {Binding::kEntry, kInvalidTask};
    } else if (data_ready >= proc_avail - kTimeTolerance &&
               data_blocker != kInvalidTask &&
               data_ready >= bound - kTimeTolerance) {
      out[t] = {data_remote ? Binding::kRemoteData : Binding::kLocalData,
                data_blocker};
    } else {
      out[t] = {Binding::kProcessor, prev};
    }
  }
  return out;
}

std::vector<TaskId> critical_chain(const TaskGraph& g, const Schedule& s) {
  std::vector<TaskBinding> bindings = classify_bindings(g, s);
  // Latest-finishing task (smallest id on ties for determinism).
  TaskId cur = kInvalidTask;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (cur == kInvalidTask || s.finish(t) > s.finish(cur)) cur = t;

  std::vector<TaskId> chain;
  while (cur != kInvalidTask) {
    chain.push_back(cur);
    cur = bindings[cur].blocker;
    FLB_ASSERT(chain.size() <= g.num_tasks());  // blockers cannot cycle
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

UtilizationReport analyze_utilization(const TaskGraph& g,
                                      const Schedule& s) {
  UtilizationReport r;
  r.makespan = s.makespan();
  r.busy_per_proc.assign(s.num_procs(), 0.0);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    r.busy_per_proc[s.proc(t)] += g.comp(t);
  if (r.makespan > 0.0) {
    double sum = 0.0;
    for (Cost b : r.busy_per_proc) sum += b / r.makespan;
    r.mean_utilization = sum / static_cast<double>(s.num_procs());
  }

  std::vector<TaskBinding> bindings = classify_bindings(g, s);
  std::size_t counted = 0, proc = 0, local = 0, remote = 0, slack = 0;
  for (const TaskBinding& b : bindings) {
    if (b.binding == Binding::kEntry) continue;
    ++counted;
    switch (b.binding) {
      case Binding::kProcessor: ++proc; break;
      case Binding::kLocalData: ++local; break;
      case Binding::kRemoteData: ++remote; break;
      case Binding::kSlack: ++slack; break;
      case Binding::kEntry: break;
    }
  }
  if (counted > 0) {
    double denom = static_cast<double>(counted);
    r.processor_bound = static_cast<double>(proc) / denom;
    r.local_data_bound = static_cast<double>(local) / denom;
    r.remote_data_bound = static_cast<double>(remote) / denom;
    r.slack_bound = static_cast<double>(slack) / denom;
  }
  return r;
}

const char* to_string(Binding binding) {
  switch (binding) {
    case Binding::kEntry: return "entry";
    case Binding::kProcessor: return "processor";
    case Binding::kLocalData: return "local-data";
    case Binding::kRemoteData: return "remote-data";
    case Binding::kSlack: return "slack";
  }
  return "?";
}

}  // namespace flb
