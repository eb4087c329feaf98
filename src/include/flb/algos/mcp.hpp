#pragma once

#include <cstdint>

#include "flb/sched/scheduler.hpp"

/// \file mcp.hpp
/// MCP — Modified Critical Path (Wu & Gajski, IEEE TPDS 1990). A list
/// scheduler whose task priorities are the *latest possible start times*
/// (ALAP): the critical path length minus the task's bottom level; smaller
/// ALAP means higher priority. Tasks are taken in priority order and placed
/// on the processor where they start the earliest.
///
/// This is the paper's lower-cost MCP variant: ties between equal ALAP
/// values are broken randomly (instead of by descendant-priority
/// comparison), reducing the complexity to O(V log V + (E+V)P). The random
/// tie-break keys are drawn once per run from the construction seed, so a
/// given (seed, graph, P) is fully deterministic.
///
/// Tasks are taken in the priority_order of (ALAP, random key): whenever
/// every task has positive computation cost this coincides with a straight
/// sweep of the priority-sorted task list, because then ALAP strictly
/// increases along every edge; the ready list behind priority_order
/// additionally keeps the schedule feasible for degenerate zero-cost
/// tasks. Placement is list_schedule() (sched/tentative.hpp), shared with
/// HLFET and ISH.

namespace flb {

class McpScheduler final : public Scheduler {
 public:
  /// `insertion` selects the processor-assignment rule: false (default)
  /// places each task at the end of the chosen processor's timeline (the
  /// rule this paper's Section 3.1 describes); true additionally considers
  /// idle gaps between already-scheduled tasks (the original Wu & Gajski
  /// formulation — better schedules, higher cost). The insertion variant
  /// registers as "MCP-I".
  explicit McpScheduler(std::uint64_t seed = 1, bool insertion = false)
      : seed_(seed), insertion_(insertion) {}

  [[nodiscard]] std::string name() const override {
    return insertion_ ? "MCP-I" : "MCP";
  }

  [[nodiscard]] Schedule run(const TaskGraph& g, ProcId num_procs) override;

 private:
  std::uint64_t seed_;
  bool insertion_;
};

}  // namespace flb
