#pragma once

#include "flb/graph/properties.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"

/// \file tentative.hpp
/// Tentative-scheduling quantities from Section 2 of the paper, computed
/// against a partial schedule. These are the shared vocabulary of every
/// list scheduler here:
///
///   LMT(t)    last message arrival time  = max over preds (FT + comm)
///   EP(t)     enabling processor         = processor of the argmax above
///   EMT(t,p)  effective message arrival  = max over preds NOT on p
///   EST(t,p)  estimated start time       = max(EMT(t,p), PRT(p))
///
/// All functions require every predecessor of t to be scheduled (t ready).
/// Each costs O(in-degree(t)); the reference schedulers (MCP, HLFET, ISH,
/// LLB) call them directly, while FLB maintains the same quantities
/// incrementally. list_schedule() is the placement loop HLFET, ISH, MCP
/// and MCP-I share: their tasks come in priority_order() and each goes
/// where best_proc_exhaustive() or best_proc_insertion() puts it.

namespace flb {

/// Last message arrival time of ready task t. Zero for entry tasks.
Cost last_message_time(const TaskGraph& g, const Schedule& s, TaskId t);

/// Enabling processor of ready task t: the processor the latest-arriving
/// message is sent from. kInvalidProc for entry tasks. Ties between equally
/// late messages resolve to the predecessor occurring first in the graph's
/// adjacency (deterministic).
ProcId enabling_proc(const TaskGraph& g, const Schedule& s, TaskId t);

/// Effective message arrival time of ready task t on processor p: messages
/// from predecessors already on p are free. Zero for entry tasks.
Cost effective_message_time(const TaskGraph& g, const Schedule& s, TaskId t,
                            ProcId p);

/// Estimated start time of ready task t on processor p:
/// max(EMT(t,p), PRT(p)).
Cost est_start(const TaskGraph& g, const Schedule& s, TaskId t, ProcId p);

/// True iff every predecessor of t is scheduled.
bool is_ready(const TaskGraph& g, const Schedule& s, TaskId t);

/// Minimum EST over all processors, scanning every processor exhaustively.
/// Returns the (processor, est) pair; lower-numbered processors win ties.
/// O(in-degree + P); the brute-force oracle against which FLB's two-pair
/// selection rule (Theorem 3) is verified.
std::pair<ProcId, Cost> best_proc_exhaustive(const TaskGraph& g,
                                             const Schedule& s, TaskId t);

/// As best_proc_exhaustive(), but t may also start inside an idle gap of a
/// processor's timeline (insertion scheduling, ISH and MCP-I): on each p,
/// the earliest gap that holds comp(t) and opens once every input is on p.
/// Local inputs are free but must have finished. Returns the (processor,
/// start) pair; lower-numbered processors win ties.
std::pair<ProcId, Cost> best_proc_insertion(const TaskGraph& g,
                                            const Schedule& s, TaskId t);

/// List-schedule g on num_procs processors with static priorities: take
/// the tasks in priority_order(g, key_of) and start each at its earliest
/// start, on the processor best_proc_exhaustive() picks, or
/// best_proc_insertion() with `insertion`. O(V log W + (E + V)P), plus the
/// gap searches with `insertion`.
template <typename KeyOf>
Schedule list_schedule(const TaskGraph& g, ProcId num_procs, bool insertion,
                       KeyOf&& key_of) {
  Schedule sched(num_procs, g.num_tasks());
  for (const TaskId t : priority_order(g, key_of)) {
    const auto [p, est] = insertion ? best_proc_insertion(g, sched, t)
                                    : best_proc_exhaustive(g, sched, t);
    sched.assign(t, p, est, est + g.comp(t));
  }
  return sched;
}

}  // namespace flb
