#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "flb/core/trace.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sim/faults.hpp"

/// \file lint.hpp
/// The semantic schedule linter (flb::analysis): a rule engine that checks
/// a schedule — and, when available, the FLB execution trace that produced
/// it — against the paper's *selection invariants*, not just feasibility.
///
/// validate_schedule() proves a schedule is executable (no overlap, no
/// precedence violation); it cannot tell whether the scheduler still
/// implements the paper. A refactor of the hot path can keep every schedule
/// feasible while silently abandoning the ETF criterion ("schedule the
/// ready task that can start the earliest", Section 3) or the EP-type
/// classification theorem of the appendix — exactly the regressions the
/// golden-digest tests catch only as a bare hash mismatch. The linter
/// re-derives those invariants from scratch, step by step, and reports
/// *explainable* diagnostics: which rule, which step, which task, the
/// expected and the observed value, and a hint.
///
/// Three rule tiers (see docs/analysis.md for the rule catalogue with
/// paper citations):
///
///  * **feasibility** (error, always run) — the validator's constraints
///    lifted into diagnostics, so any scheduler's output can be linted;
///  * **theorems** (error) — FLB/ETF selection invariants, decidable from
///    the execution trace: etf-conformance, ep-classification,
///    prt-monotone, trace-schedule-consistency;
///  * **quality** (warn/info) — legal but suspicious placements:
///    avoidable idle gaps, remote placement when a zero-comm local slot
///    existed, plus an info summary of the makespan against its lower
///    bound.
///
/// The linter is a checker, not a scheduler: it prices everything through
/// the platform CostModel with deliberate O(V * W * P * deg) replay cost,
/// sharing no state with the engine it audits.

namespace flb::analysis {

/// Diagnostic severity, ordered: info < warn < error.
enum class Severity { kInfo, kWarn, kError };

/// Sentinel for "no step" in diagnostics that are not tied to one trace row.
inline constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

/// One structured finding of the rule engine.
struct Diagnostic {
  std::string rule;                ///< rule id, e.g. "etf-conformance"
  Severity severity = Severity::kError;
  TaskId task = kInvalidTask;      ///< offending task, if any
  ProcId proc = kInvalidProc;      ///< offending processor, if any
  std::size_t step = kNoStep;      ///< trace row index, if any
  Cost expected = kUndefinedTime;  ///< value the invariant requires
  Cost actual = kUndefinedTime;    ///< value observed in the schedule/trace
  std::string message;             ///< what is wrong
  std::string hint;                ///< how to fix or where to look
};

/// Which rule tiers run beside the feasibility tier, which always does.
/// Time comparisons allow kTimeTolerance (util/types.hpp) of slack.
struct LintOptions {
  bool theorems = true;  ///< FLB selection-invariant rules (needs a trace)
  bool quality = true;   ///< warn/info rules
  /// Optional fault plan (not owned; must outlive the call). When set and
  /// it declares partial partitions, the feasibility tier additionally runs
  /// rule `partitioned-link`: no remote message may be scheduled across a
  /// link that is partitioned at its send instant (the producer's finish) —
  /// such a schedule silently assumes bandwidth the machine does not have
  /// at that moment (the simulator would reroute, delay or drop the
  /// transfer).
  const FaultPlan* faults = nullptr;
};

/// The linter's result: all diagnostics in detection order plus summaries.
/// The schedule linter and the episode auditor both report through it.
struct LintReport {
  std::vector<Diagnostic> diagnostics;

  /// Append a finding of `rule` at `severity` and return it for the rule
  /// to fill in (the reference is valid until the next emit).
  Diagnostic& emit(const char* rule, Severity severity);

  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] std::size_t errors() const { return count(Severity::kError); }
  [[nodiscard]] std::size_t warnings() const { return count(Severity::kWarn); }

  /// Highest severity present; kInfo when the report is empty.
  [[nodiscard]] Severity max_severity() const;

  /// True iff no error-severity diagnostic was produced.
  [[nodiscard]] bool clean() const { return errors() == 0; }
};

/// Static description of one rule, for documentation and CLI listings.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// The full rule catalogue (stable ids; documented in docs/analysis.md).
const std::vector<RuleInfo>& rule_catalogue();

/// Lint any scheduler's output: feasibility-tier error rules plus the
/// quality tier. `model` prices communication and admission — pass
/// platform::CostModel::clique(s.num_procs()) for the paper's machine.
/// Throws flb::Error when `s` is sized for a different number of tasks
/// than `g` has (as do the two entry points below).
LintReport lint_schedule(const TaskGraph& g, const Schedule& s,
                         const platform::CostModel& model,
                         const LintOptions& options = {});

/// Lint a *continuation* schedule (sched/repair.hpp) whose per-task wall
/// times legitimately differ from comp(t): the feasibility tier runs the
/// durations-aware validate_schedule overload against `durations`
/// (slowdown-stretched remainders, checkpoint-write pauses, perturbed
/// runtimes; an entry of kUndefinedTime skips the duration check for that
/// task). Everything else matches lint_schedule above. This is how online
/// repair regressions surface as lint errors rather than silent infeasible
/// continuations — the flb::runtime loop and flb_lint --repair-at both
/// funnel every repaired schedule through here. `durations` must have one
/// entry per task.
LintReport lint_schedule(const TaskGraph& g, const Schedule& s,
                         const std::vector<Cost>& durations,
                         const platform::CostModel& model,
                         const LintOptions& options = {});

/// Lint an FLB run: everything lint_schedule checks plus the theorem tier,
/// replaying `rows` (from trace_flb) step by step against `s`. The trace
/// must describe the same run that produced `s`; rule
/// trace-schedule-consistency enforces exactly that. Only the paper's
/// clique machine is supported for the theorem tier (trace_flb never runs
/// routed); `model` must be a clique model over s.num_procs() processors.
LintReport lint_flb(const TaskGraph& g, const Schedule& s,
                    const std::vector<FlbTraceRow>& rows,
                    const platform::CostModel& model,
                    const LintOptions& options = {});

/// "info" / "warn" / "error".
const char* to_string(Severity s);

/// Human-readable report, one line per diagnostic plus a summary line.
void write_report(std::ostream& os, const LintReport& report);

/// Machine-readable report: {"diagnostics": [...], "counts": {...},
/// "max_severity": "..."}.
void write_report_json(std::ostream& os, const LintReport& report);

}  // namespace flb::analysis
