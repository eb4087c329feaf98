#pragma once

#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"

/// \file schedule_analysis.hpp
/// Post-hoc diagnostics of complete schedules: what bound each task's
/// start time, the binding chain that determines the makespan, and
/// per-processor utilization. Used by flb_sched --analyze and handy when
/// judging *why* one algorithm's schedule is longer than another's
/// (processor-starved vs communication-bound).

namespace flb {

/// What determined a task's start time.
enum class Binding {
  kEntry,      ///< started at time 0 with nothing to wait for
  kProcessor,  ///< waited for the previous task on its processor
  kLocalData,  ///< waited for a same-processor predecessor's result
  kRemoteData, ///< waited for a message from another processor
  /// Started strictly later than every constraint (idle gap chosen by an
  /// insertion scheduler, or scheduler-imposed order).
  kSlack,
};

/// Binding classification of one task.
struct TaskBinding {
  Binding binding = Binding::kEntry;
  /// The task that imposed the binding constraint (the previous task on
  /// the processor, or the predecessor whose data arrived last);
  /// kInvalidTask for kEntry and kSlack.
  TaskId blocker = kInvalidTask;
};

/// Classify every task of a complete schedule. Ties between processor and
/// data constraints (within kTimeTolerance) resolve to the data side (the
/// message was the *reason* the processor could not be released earlier
/// elsewhere).
std::vector<TaskBinding> classify_bindings(const TaskGraph& g,
                                           const Schedule& s);

/// The binding chain of the makespan: starting from the latest-finishing
/// task, repeatedly step to the blocker until an entry/slack-bound task.
/// Returned in execution order (first element starts the chain). Its
/// total computation plus gaps spans the whole makespan.
std::vector<TaskId> critical_chain(const TaskGraph& g, const Schedule& s);

/// Utilization summary of a complete schedule.
struct UtilizationReport {
  std::vector<Cost> busy_per_proc;   ///< computation time per processor
  Cost makespan = 0.0;
  double mean_utilization = 0.0;     ///< mean busy / makespan over procs
  /// Fraction of tasks (excluding entry-bound) bound by each cause.
  double processor_bound = 0.0;
  double local_data_bound = 0.0;
  double remote_data_bound = 0.0;
  double slack_bound = 0.0;
};

/// Compute the report (classify_bindings included).
UtilizationReport analyze_utilization(const TaskGraph& g,
                                      const Schedule& s);

/// Short human-readable name of a binding kind.
const char* to_string(Binding binding);

}  // namespace flb
