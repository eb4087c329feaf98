#pragma once

#include "flb/sched/scheduler.hpp"

/// \file dls.hpp
/// DLS — Dynamic Level Scheduling (Sih & Lee, IEEE TPDS 1993), one of the
/// non-duplicating one-step algorithms the paper's introduction compares
/// against. At each iteration DLS picks the (ready task, processor) pair
/// with the largest *dynamic level*
///
///     DL(t, p) = SL(t) - max(EMT(t, p), PRT(p))
///
/// where SL is the static level (the computation-only bottom level). Unlike
/// ETF, which greedily minimizes the start time alone, DLS trades start
/// time against the task's remaining critical work. Like ETF it examines
/// every ready task on every processor: O(W(E+V)P) — the cost class FLB
/// eliminates. It shares ETF's ready-list loop and its cached inputs-ready
/// rows (see etf.hpp); only the selection rule differs.
///
/// Ties break toward the smaller task id, then the smaller processor id.

namespace flb {

namespace platform {
class CostModel;  // platform/cost_model.hpp
}  // namespace platform

class DlsScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "DLS"; }

  /// run_on() on the paper's machine, CostModel::clique(num_procs).
  [[nodiscard]] Schedule run(const TaskGraph& g, ProcId num_procs) override;

  /// DLS priced through the platform cost model (see EtfScheduler::run_on
  /// for the conventions).
  [[nodiscard]] Schedule run_on(const TaskGraph& g, platform::CostModel& model);
};

}  // namespace flb
