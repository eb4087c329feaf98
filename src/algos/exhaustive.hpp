#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/util/error.hpp"

/// \file exhaustive.hpp
/// Internal loop shared by the exhaustive list schedulers (ETF, DLS,
/// ETF-LA): each step weighs every ready task on every alive processor, and
/// the algorithm's selection rule picks one (task, processor) pair.
///
/// EST(t, p) = max(PRT(p), admission(p), inputs ready on p) (paper
/// Section 2). The loop caches the last term as one row per ready task,
/// priced by CostModel::inputs_ready_row when the task becomes ready:
/// O(indeg · P) per task, O(E · P) over a run. The inputs of a ready task
/// are all placed, so its row changes only when link reservations do: after
/// each link-busy commit every row is re-priced, O(W · indeg · P) per step.
/// Otherwise a step costs one O(W · P) scan of the rows.

namespace flb::detail {

/// The ready list a selection rule scans.
class ReadyRows {
 public:
  ReadyRows(std::span<const TaskId> tasks, std::span<const Cost> rows,
            std::span<const Cost> floor, std::span<const ProcId> procs)
      : tasks_(tasks), rows_(rows), floor_(floor), procs_(procs) {}

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] TaskId task(std::size_t i) const { return tasks_[i]; }
  /// The alive processors, ascending.
  [[nodiscard]] std::span<const ProcId> procs() const { return procs_; }
  /// EST of ready task i on processor p.
  [[nodiscard]] Cost est(std::size_t i, ProcId p) const {
    return std::max(floor_[p], rows_[i * floor_.size() + p]);
  }

 private:
  std::span<const TaskId> tasks_;
  std::span<const Cost> rows_;   // size() rows of one instant per processor
  std::span<const Cost> floor_;  // max(PRT(p), admission(p))
  std::span<const ProcId> procs_;
};

/// A selection: ready task `index` on `proc`, starting at `est`.
struct Pick {
  std::size_t index = 0;
  ProcId proc = kInvalidProc;
  Cost est = kInfiniteTime;
};

/// List-schedule g on `model`: while tasks remain, `select(ready, sched)`
/// picks a pair from the ready list and the loop places it, committing its
/// input routes under link-busy pricing. Throws flb::Error unless the model
/// fits g (CostModel::validate).
template <typename Select>
Schedule run_exhaustive(const TaskGraph& g, platform::CostModel& model,
                        Select&& select) {
  model.validate(g);
  const ProcId num_procs = model.num_procs();
  const TaskId n = g.num_tasks();
  const bool link_busy = model.mode() == platform::CommMode::kLinkBusy;
  Schedule sched(num_procs, n);

  std::vector<Cost> floor(num_procs);
  std::vector<ProcId> procs;
  const auto refloor = [&](ProcId p) {
    floor[p] = std::max(sched.proc_ready_time(p), model.admission(p));
  };
  for (ProcId p = 0; p < num_procs; ++p) {
    refloor(p);
    if (model.alive(p)) procs.push_back(p);
  }

  // The ready list and its rows: rows[i * P, (i + 1) * P) belongs to
  // ready[i]. A placed task's entry is swap-removed.
  std::vector<TaskId> ready;
  std::vector<Cost> rows;
  std::vector<Cost> scratch(num_procs);
  const auto row_of = [&](std::size_t i) {
    return std::span<Cost>(rows).subspan(i * num_procs, num_procs);
  };
  const auto price = [&](std::size_t i) {
    const std::span<Cost> row = row_of(i);
    std::fill(row.begin(), row.end(), 0.0);
    model.inputs_ready_row(g, sched, ready[i], row, scratch);
  };
  const auto make_ready = [&](TaskId t) {
    ready.push_back(t);
    rows.resize(rows.size() + num_procs);
    price(ready.size() - 1);
  };

  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) make_ready(t);
  }

  for (TaskId step = 0; step < n; ++step) {
    FLB_ASSERT(!ready.empty());
    const Pick pick = select(ReadyRows(ready, rows, floor, procs), sched);
    FLB_ASSERT(pick.proc != kInvalidProc && pick.index < ready.size());
    const TaskId t = ready[pick.index];
    const ProcId p = pick.proc;
    const Cost start =
        link_busy ? model.commit_inputs(g, sched, t, p, floor[p]) : pick.est;
    sched.assign(t, p, start, start + model.exec(g, t, p));
    refloor(p);

    const std::size_t last = ready.size() - 1;
    if (pick.index != last) {
      ready[pick.index] = ready[last];
      std::ranges::copy(row_of(last), row_of(pick.index).begin());
    }
    ready.pop_back();
    rows.resize(rows.size() - num_procs);
    if (link_busy)
      for (std::size_t i = 0; i < ready.size(); ++i) price(i);
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0) make_ready(a.node);
  }

  FLB_ASSERT(sched.complete());
  return sched;
}

}  // namespace flb::detail
