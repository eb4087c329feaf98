#pragma once

#include <span>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sched/validator.hpp"

/// \file duplication.hpp
/// Task-duplication scheduling. The paper's introduction contrasts the
/// non-duplicating heuristics it studies (MCP, ETF, DLS, FCP, FLB) with
/// duplication-based ones (DSH, BTDH, CPFD): "Duplicating tasks results in
/// better scheduling performance but significantly increases scheduling
/// cost." This module makes that trade-off measurable in the ablation
/// benches. The heuristic implemented here follows DSH's idea (Kruatrachue
/// & Lewis 1988): place each task on its best processor and greedily copy
/// the *critical parent* — the predecessor whose message dictates the
/// task's start — into the processor's idle time whenever the copy lets
/// the task start earlier.

namespace flb {

/// A schedule in which a task may execute on several processors (each
/// execution is an *instance*). Per-processor timelines stay sorted and
/// overlap-free, exactly as in Schedule.
class DupSchedule {
 public:
  DupSchedule(ProcId num_procs, TaskId num_tasks);

  /// Add an instance of t on p over [start, finish). Throws on overlap,
  /// negative times or inverted intervals. A task may gain any number of
  /// instances, at most one per processor.
  void place(TaskId t, ProcId p, Cost start, Cost finish);

  /// All instances of t (possibly empty), in placement order.
  [[nodiscard]] std::span<const Placement> instances(TaskId t) const {
    return instances_[t];
  }

  /// True iff t has at least one instance.
  [[nodiscard]] bool has_instance(TaskId t) const {
    return !instances_[t].empty();
  }

  /// The instance of t on p, or nullptr if none.
  [[nodiscard]] const Placement* instance_on(TaskId t, ProcId p) const;

  /// Earliest finish over t's instances. t must have an instance.
  [[nodiscard]] Cost earliest_finish(TaskId t) const;

  /// Tasks on processor p in execution order (tasks may repeat across
  /// processors, never within one).
  [[nodiscard]] std::span<const TaskId> tasks_on(ProcId p) const {
    return timelines_[p];
  }

  /// Start/finish of the instance of `t` on `p` (must exist).
  [[nodiscard]] const Placement& placement_on(TaskId t, ProcId p) const;

  /// Earliest start >= `earliest` fitting `duration` on p (idle gaps
  /// included), as Schedule::earliest_gap.
  [[nodiscard]] Cost earliest_gap(ProcId p, Cost earliest,
                                  Cost duration) const;

  /// Earliest moment t's data can be complete on p: for every predecessor,
  /// the best arrival over its instances (same-processor instances are
  /// free, remote ones pay the edge cost). Every predecessor must have an
  /// instance. Entry tasks yield 0.
  [[nodiscard]] Cost data_ready(const TaskGraph& g, TaskId t, ProcId p) const;

  [[nodiscard]] ProcId num_procs() const {
    return static_cast<ProcId>(timelines_.size());
  }
  [[nodiscard]] TaskId num_tasks() const {
    return static_cast<TaskId>(instances_.size());
  }

  /// Number of instances in total (>= num_tasks for a complete schedule;
  /// the excess is the duplication volume).
  [[nodiscard]] std::size_t num_instances() const { return num_instances_; }

  /// Makespan: the latest finish over all instances.
  [[nodiscard]] Cost makespan() const;

 private:
  std::vector<std::vector<Placement>> instances_;  // per task
  std::vector<std::vector<TaskId>> timelines_;     // per proc, start order
  std::vector<std::vector<Placement>> slots_;      // parallel to timelines_
  std::size_t num_instances_ = 0;
};

/// Feasibility check for duplication schedules: every task has at least
/// one instance; instances have the right duration and never overlap on a
/// processor; every instance starts no earlier than the best possible
/// arrival from each predecessor (over that predecessor's instances), each
/// within kTimeTolerance.
std::vector<Violation> validate_dup_schedule(const TaskGraph& g,
                                             const DupSchedule& s);

/// True iff validate_dup_schedule reports nothing.
bool is_valid_dup_schedule(const TaskGraph& g, const DupSchedule& s);

/// DSH-style duplication scheduler. Tasks are taken in descending
/// bottom-level order (ready tasks only); each is evaluated on every
/// processor with greedy critical-parent duplication (one level deep — a
/// duplicate is fed by existing instances only) and committed where it
/// starts earliest. Complexity roughly O(V P (d + log V)) with d the
/// maximum in-degree, i.e. well above every non-duplicating algorithm in
/// this library — the cost side of the paper's trade-off.
class DupScheduler {
 public:
  /// Schedule g on num_procs processors with duplication.
  [[nodiscard]] DupSchedule run(const TaskGraph& g, ProcId num_procs);

  [[nodiscard]] std::string name() const { return "DUP"; }
};

}  // namespace flb
