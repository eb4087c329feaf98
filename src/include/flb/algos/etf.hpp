#pragma once

#include "flb/sched/scheduler.hpp"

/// \file etf.hpp
/// ETF — Earliest Task First (Hwang, Chow, Anger & Lee, SIAM J. Computing
/// 1989). At every iteration the ready task that can start the earliest is
/// scheduled on the processor achieving that start time, found by
/// tentatively scheduling every ready task on every processor —
/// O(W(E+V)P) overall. FLB provably selects a pair with the same (minimal)
/// start time at O(V(log W + log P) + E) total cost; the two differ only in
/// tie-breaking (paper Sections 4 and 6.2).
///
/// Tie-breaking here follows the paper's characterization of ETF: among
/// equally early (task, processor) pairs the task with the larger *static*
/// priority — the bottom level — wins; remaining ties resolve to the
/// smaller task id, then the smaller processor id.
///
/// Each ready task keeps one inputs-ready row (its inputs' arrival on every
/// processor, CostModel::inputs_ready_row), priced once when the task
/// becomes ready — O(E·P) over a run — so a step is one O(W·P) scan of
/// max(PRT(p), row[p]). Under link-busy pricing every row is re-priced
/// after each commit.

namespace flb {

namespace platform {
class CostModel;  // platform/cost_model.hpp
}  // namespace platform

class EtfScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "ETF"; }

  /// run_on() on the paper's machine, CostModel::clique(num_procs).
  [[nodiscard]] Schedule run(const TaskGraph& g, ProcId num_procs) override;

  /// ETF priced through the platform cost model: admission windows, dead
  /// processors, speeds, and the model's communication mode (clique /
  /// routed hops / link-busy reservations, which are committed for every
  /// placement). Throws flb::Error unless the model fits g
  /// (CostModel::validate). The model is mutated (link reservations) under
  /// link-busy pricing.
  [[nodiscard]] Schedule run_on(const TaskGraph& g, platform::CostModel& model);
};

}  // namespace flb
