#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flb/util/types.hpp"

/// \file schedule.hpp
/// The schedule produced by every algorithm in this library: for each task a
/// processor PROC(t), start time ST(t) and finish time FT(t) (paper
/// Section 2), plus per-processor timelines and ready times PRT(p).

namespace flb {

/// Where and when one task executes.
struct Placement {
  ProcId proc = kInvalidProc;
  Cost start = kUndefinedTime;
  Cost finish = kUndefinedTime;
};

/// A (partial or complete) non-preemptive schedule. Each processor's
/// timeline is kept sorted by start time; assign() rejects any placement
/// that would overlap an existing task, so by construction the timeline is
/// always feasible per-processor. Placements may land in idle gaps between
/// already-assigned tasks (insertion-based schedulers rely on this; plain
/// list schedulers only ever append). Precedence and communication
/// feasibility are the scheduler's responsibility and are re-checked
/// independently by validate_schedule().
class Schedule {
 public:
  /// An empty schedule over `num_procs` processors for `num_tasks` tasks.
  Schedule(ProcId num_procs, TaskId num_tasks);

  /// Re-dimension to an empty schedule over `num_procs` processors for
  /// `num_tasks` tasks, keeping all storage capacity (including each
  /// per-processor timeline's). Re-running a same-shape workload through a
  /// reset schedule therefore allocates nothing — the batch-serving hot
  /// path (flb::serve) depends on this.
  void reset(ProcId num_procs, TaskId num_tasks);

  /// Record that task t runs on processor p during [start, finish).
  /// Requirements: t unscheduled, p in range, start >= 0,
  /// finish >= start, and [start, finish) overlaps no task already on p.
  /// Appends are O(1) amortized; mid-timeline insertion costs O(k) for the
  /// k tasks already on p.
  void assign(TaskId t, ProcId p, Cost start, Cost finish);

  /// The earliest start >= `earliest` at which an execution of `duration`
  /// fits on p — either inside an idle gap between assigned tasks or after
  /// the last one. With duration 0 this is simply the earliest idle
  /// instant >= `earliest`. O(k) for the k tasks on p.
  [[nodiscard]] Cost earliest_gap(ProcId p, Cost earliest,
                                  Cost duration) const;

  /// True iff t has been assigned.
  [[nodiscard]] bool is_scheduled(TaskId t) const {
    return placements_[t].proc != kInvalidProc;
  }

  /// Full placement record of a scheduled task.
  [[nodiscard]] const Placement& placement(TaskId t) const {
    return placements_[t];
  }

  /// PROC(t). Task must be scheduled.
  [[nodiscard]] ProcId proc(TaskId t) const { return placements_[t].proc; }

  /// ST(t). Task must be scheduled.
  [[nodiscard]] Cost start(TaskId t) const { return placements_[t].start; }

  /// FT(t). Task must be scheduled.
  [[nodiscard]] Cost finish(TaskId t) const { return placements_[t].finish; }

  /// Processor ready time PRT(p): finish time of the last task on p, or 0
  /// for an empty processor.
  [[nodiscard]] Cost proc_ready_time(ProcId p) const { return prt_[p]; }

  /// Tasks on processor p in execution order.
  [[nodiscard]] std::span<const TaskId> tasks_on(ProcId p) const {
    return timelines_[p];
  }

  /// Number of processors this schedule spans.
  [[nodiscard]] ProcId num_procs() const {
    return static_cast<ProcId>(timelines_.size());
  }

  /// Number of tasks this schedule was sized for.
  [[nodiscard]] TaskId num_tasks() const {
    return static_cast<TaskId>(placements_.size());
  }

  /// Number of tasks assigned so far.
  [[nodiscard]] TaskId num_scheduled() const { return num_scheduled_; }

  /// True iff every task has been assigned.
  [[nodiscard]] bool complete() const {
    return num_scheduled_ == num_tasks();
  }

  /// Schedule length T_par = max_p PRT(p) (paper Section 2).
  [[nodiscard]] Cost makespan() const;

 private:
  std::vector<Placement> placements_;
  std::vector<std::vector<TaskId>> timelines_;
  std::vector<Cost> prt_;
  TaskId num_scheduled_ = 0;
};

/// FNV-1a digest (util/fnv1a.hpp) of a schedule's placements: for every
/// task, the processor and the exact bit patterns of start and finish, each
/// folded in as eight bytes. This is the one schedule identity: the golden
/// tests, the serving layer, the recovery runtime and its auditor all pin
/// schedules through it.
[[nodiscard]] std::uint64_t schedule_digest(const Schedule& s);

}  // namespace flb
