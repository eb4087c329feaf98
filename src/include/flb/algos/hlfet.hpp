#pragma once

#include "flb/sched/scheduler.hpp"

/// \file hlfet.hpp
/// HLFET — Highest Level First with Estimated Times (Adam, Chandy & Dickson
/// 1974), the archetypal static list scheduler and the simplest credible
/// baseline in this library. Ready tasks are ordered by static level (the
/// computation-only bottom level, larger first); the selected task goes to
/// the processor on which it starts the earliest: list_schedule()
/// (sched/tentative.hpp) over the levels' priority_order, the loop MCP and
/// MCP-I share. O(V log W + (E+V)P).
///
/// HLFET predates communication-aware priorities: its level ignores edge
/// costs entirely, which is exactly the weakness MCP (communication-aware
/// ALAP) and the earliest-start family (ETF/FCP/FLB) address. Included as
/// the historical control for the benchmark ablations.
///
/// ISH — Insertion Scheduling Heuristic (Kruatrachue & Lewis 1988, the
/// non-duplicating companion of DSH) — is HLFET with insertion: the same
/// static-level list, but each task may start inside an idle gap of its
/// processor (communication delays carve such holes). The cheapest
/// insertion-based algorithm in the library; contrast with MCP-I, which
/// pairs insertion with ALAP priorities. O(V log W + (E+V)P + gap search).

namespace flb {

class HlfetScheduler final : public Scheduler {
 public:
  /// `insertion` selects the processor-assignment rule: false (default)
  /// places each task at the end of the chosen processor's timeline
  /// (HLFET); true also considers idle gaps between already-scheduled tasks
  /// (ISH). The insertion variant registers as "ISH".
  explicit HlfetScheduler(bool insertion = false) : insertion_(insertion) {}

  [[nodiscard]] std::string name() const override {
    return insertion_ ? "ISH" : "HLFET";
  }

  [[nodiscard]] Schedule run(const TaskGraph& g, ProcId num_procs) override;

 private:
  bool insertion_;
};

}  // namespace flb
