#include "flb/analysis/lint.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "flb/sched/metrics.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/table.hpp"

namespace flb::analysis {

namespace {

// JSON-safe number formatting: plain decimal with enough precision to
// round-trip a double (same convention as sched/export.cpp).
void number(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* feasibility_rule(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kUnscheduledTask: return "unscheduled-task";
    case Violation::Kind::kNonFiniteTime: return "non-finite-time";
    case Violation::Kind::kWrongDuration: return "wrong-duration";
    case Violation::Kind::kNegativeStart: return "negative-start";
    case Violation::Kind::kProcessorOverlap: return "processor-overlap";
    case Violation::Kind::kPrecedence: return "precedence";
    case Violation::Kind::kLinkBusyViolation: return "link-busy";
  }
  return "feasibility";
}

// --- Feasibility tier ------------------------------------------------------

void emit_violations(const std::vector<Violation>& violations,
                     const Schedule& s, LintReport& report) {
  for (const Violation& v : violations) {
    Diagnostic& d = report.emit(feasibility_rule(v.kind), Severity::kError);
    d.task = v.task;
    if (v.task != kInvalidTask && v.task < s.num_tasks() &&
        s.is_scheduled(v.task))
      d.proc = s.proc(v.task);
    d.message = v.detail;
    d.hint = "the schedule is not executable on the paper's machine model; "
             "re-derive it or fix the producing scheduler";
  }
}

// partitioned-link: a remote message scheduled across a link that the fault
// plan partitions at its send instant. The schedule claims point-to-point
// bandwidth that does not exist at that moment; the executing machine would
// reroute, delay or drop the transfer instead.
void partition_rules(const TaskGraph& g, const Schedule& s,
                     const LintOptions& opt, LintReport& report) {
  if (opt.faults == nullptr || opt.faults->partitions.empty()) return;
  const std::vector<LinkOutage> outages = resolve_partitions(*opt.faults);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_scheduled(t)) continue;
    const ProcId from = s.proc(t);
    const Cost send = s.finish(t);
    for (const Adj& out : g.successors(t)) {
      if (!s.is_scheduled(out.node)) continue;
      const ProcId to = s.proc(out.node);
      if (to == from) continue;
      if (!link_partitioned(outages, from, to, send)) continue;
      Diagnostic& d = report.emit("partitioned-link", Severity::kError);
      d.task = out.node;
      d.proc = to;
      d.actual = send;
      d.message = "message t" + std::to_string(t) + " -> t" +
                  std::to_string(out.node) + " is sent over p" +
                  std::to_string(from) + " ~ p" + std::to_string(to) +
                  " at " + format_compact(send) +
                  ", while the plan partitions that link";
      d.hint = "place producer and consumer on the same side of the "
               "partition, or delay the send past the heal instant";
    }
  }
}

// --- Quality tier ----------------------------------------------------------

// Earliest instant every predecessor output of t is usable on p, through
// the platform model's (cold-aware) arrival pricing. Returns kUndefinedTime
// when a predecessor is unscheduled (nothing to say then).
Cost data_ready(const TaskGraph& g, const Schedule& s,
                const platform::CostModel& model, TaskId t, ProcId p) {
  Cost ready = 0.0;
  for (const Adj& in : g.predecessors(t)) {
    if (!s.is_scheduled(in.node)) return kUndefinedTime;
    ready = std::max(ready,
                     model.arrival(s.proc(in.node), p, in.comm,
                                   s.finish(in.node)));
  }
  return ready;
}

void quality_rules(const TaskGraph& g, const Schedule& s,
                   const platform::CostModel& model, LintReport& report) {
  // idle-gap: a processor sits idle in front of a task whose inputs were
  // already usable there — a list scheduler respecting the ETF criterion
  // never leaves such a gap.
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    Cost prev = model.admission(p);
    for (TaskId t : s.tasks_on(p)) {
      const Cost start = s.start(t);
      if (start > prev + kTimeTolerance) {
        const Cost ready = data_ready(g, s, model, t, p);
        const Cost earliest = ready == kUndefinedTime
                                  ? kUndefinedTime
                                  : std::max(ready, prev);
        if (earliest != kUndefinedTime &&
            start > earliest + kTimeTolerance) {
          Diagnostic& d = report.emit("idle-gap", Severity::kWarn);
          d.task = t;
          d.proc = p;
          d.expected = earliest;
          d.actual = start;
          d.message = "p" + std::to_string(p) + " idles before t" +
                      std::to_string(t) + " although its inputs are usable "
                      "at " + format_compact(earliest);
          d.hint = "an earlier dispatch or gap insertion would reclaim " +
                   format_compact(start - earliest) + " idle time";
        }
      }
      prev = std::max(prev, s.finish(t));
    }
  }

  // remote-placement: every input of t lives on one processor q, yet t was
  // placed elsewhere and paid communication although q had a free slot that
  // would have started t no later, with every message local (zero comm).
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_scheduled(t) || g.in_degree(t) == 0) continue;
    const ProcId q = s.proc(g.predecessors(t)[0].node);
    bool all_on_q = true;
    Cost local_ready = model.admission(q);
    for (const Adj& in : g.predecessors(t)) {
      if (!s.is_scheduled(in.node) || s.proc(in.node) != q) {
        all_on_q = false;
        break;
      }
      local_ready = std::max(local_ready, s.finish(in.node));
    }
    if (!all_on_q || s.proc(t) == q || !model.alive(q)) continue;
    const Cost duration = s.finish(t) - s.start(t);
    const Cost slot = s.earliest_gap(q, local_ready, duration);
    if (slot <= s.start(t) + kTimeTolerance) {
      Diagnostic& d = report.emit("remote-placement", Severity::kWarn);
      d.task = t;
      d.proc = s.proc(t);
      d.expected = slot;
      d.actual = s.start(t);
      d.message = "t" + std::to_string(t) + " runs on p" +
                  std::to_string(s.proc(t)) + " paying communication, but "
                  "p" + std::to_string(q) + " holds every input and had a "
                  "zero-comm slot at " + format_compact(slot);
      d.hint = "a local placement dominates: same or earlier start, no "
               "network traffic";
    }
  }

  // makespan-lower-bound: informational distance from the coarse bound
  // max(T_seq / P, critical path) — large gaps are not errors, but they
  // locate schedules worth a second look.
  if (s.complete()) {
    const Cost bound = makespan_lower_bound(g, s.num_procs());
    Diagnostic& d = report.emit("makespan-lower-bound", Severity::kInfo);
    d.expected = bound;
    d.actual = s.makespan();
    d.message = "makespan " + format_compact(s.makespan()) +
                " vs lower bound " + format_compact(bound);
    d.hint = "informational only";
  }
}

// --- Theorem tier ----------------------------------------------------------

/// Step-by-step replay of an FLB execution trace. Re-derives LMT, EP, EMT
/// and PRT from scratch with the same arithmetic as the engine (but none of
/// its code or data structures) and checks each row against the paper's
/// selection invariants.
class TraceReplay {
 public:
  TraceReplay(const TaskGraph& g, const Schedule& s,
              const std::vector<FlbTraceRow>& rows,
              const platform::CostModel& model, LintReport& report)
      : g_(g),
        s_(s),
        rows_(rows),
        model_(model),
        report_(report),
        num_procs_(s.num_procs()),
        placed_(g.num_tasks(), false),
        proc_(g.num_tasks(), kInvalidProc),
        finish_(g.num_tasks(), kUndefinedTime),
        pending_(g.num_tasks(), 0),
        prt_(num_procs_, 0.0) {}

  void run() {
    if (!structural_pass()) return;
    for (TaskId t = 0; t < g_.num_tasks(); ++t)
      pending_[t] = g_.in_degree(t);
    for (std::size_t i = 0; i < rows_.size(); ++i) replay_row(i);
  }

 private:
  // trace-schedule-consistency, part 1: the rows form a bijection with the
  // schedule's placements and agree with them bit-for-bit. Returns false
  // when the rows are too broken to replay (bad ids, duplicates).
  bool structural_pass() {
    bool replayable = true;
    if (rows_.size() != g_.num_tasks()) {
      Diagnostic& d = consistency(kNoStep);
      d.expected = static_cast<Cost>(g_.num_tasks());
      d.actual = static_cast<Cost>(rows_.size());
      d.message = "trace has " + std::to_string(rows_.size()) +
                  " rows for " + std::to_string(g_.num_tasks()) + " tasks";
    }
    std::vector<bool> seen(g_.num_tasks(), false);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const FlbTraceRow& row = rows_[i];
      if (row.task >= g_.num_tasks() || row.proc >= num_procs_) {
        Diagnostic& d = consistency(i);
        d.message = "row names an out-of-range task or processor";
        replayable = false;
        continue;
      }
      if (seen[row.task]) {
        Diagnostic& d = consistency(i);
        d.task = row.task;
        d.message = "t" + std::to_string(row.task) +
                    " is scheduled by more than one trace row";
        replayable = false;
        continue;
      }
      seen[row.task] = true;
      if (!s_.is_scheduled(row.task)) {
        Diagnostic& d = consistency(i);
        d.task = row.task;
        d.message = "t" + std::to_string(row.task) +
                    " appears in the trace but not in the schedule";
        continue;
      }
      const Placement& pl = s_.placement(row.task);
      // Bit-for-bit: the trace claims to be the run that produced the
      // schedule, so even the last ulp must agree.
      if (pl.proc != row.proc || pl.start != row.start ||
          pl.finish != row.finish) {
        Diagnostic& d = consistency(i);
        d.task = row.task;
        d.proc = row.proc;
        d.expected = pl.start;
        d.actual = row.start;
        d.message = "row (p" + std::to_string(row.proc) + ", [" +
                    format_compact(row.start) + " - " +
                    format_compact(row.finish) + "]) disagrees with the "
                    "schedule's placement (p" + std::to_string(pl.proc) +
                    ", [" + format_compact(pl.start) + " - " +
                    format_compact(pl.finish) + "])";
      }
    }
    for (TaskId t = 0; t < g_.num_tasks(); ++t) {
      if (seen[t] || !s_.is_scheduled(t)) continue;
      Diagnostic& d = consistency(kNoStep);
      d.task = t;
      d.message = "t" + std::to_string(t) +
                  " is scheduled but never appears in the trace";
    }
    return replayable;
  }

  Diagnostic& consistency(std::size_t step) {
    Diagnostic& d =
        report_.emit("trace-schedule-consistency", Severity::kError);
    d.step = step;
    d.hint = "the trace must reproduce the final schedule bit-for-bit and "
             "in a precedence-respecting order; re-capture it with "
             "trace_flb on the same run";
    return d;
  }

  // Effective processor ready time as the engine sees it: never before the
  // platform's admission instant.
  [[nodiscard]] Cost eff_prt(ProcId p) const {
    return std::max(prt_[p], model_.admission(p));
  }

  // Priced arrival of predecessor edge `in` at processor p, from the
  // replayed placements.
  [[nodiscard]] Cost arrival_at(const Adj& in, ProcId p) const {
    return model_.arrival(proc_[in.node], p, in.comm, finish_[in.node]);
  }

  // Exact earliest start of ready task t on p (paper Section 2: EST).
  [[nodiscard]] Cost est(TaskId t, ProcId p) const {
    Cost v = eff_prt(p);
    for (const Adj& in : g_.predecessors(t))
      v = std::max(v, arrival_at(in, p));
    return v;
  }

  void replay_row(std::size_t i) {
    const FlbTraceRow& row = rows_[i];
    const bool ready = pending_[row.task] == 0 && !placed_[row.task];
    if (!ready) {
      Diagnostic& d = consistency(i);
      d.task = row.task;
      d.message = "t" + std::to_string(row.task) +
                  " is scheduled before one of its predecessors — the row "
                  "order is not a valid execution order";
    } else {
      check_prt_monotone(i);
      check_ep_classification(i);
      check_etf_conformance(i);
    }
    place(row);
  }

  // prt-monotone: FLB is a pure list scheduler — every placement appends
  // to its processor's timeline, so per-processor ready times only grow.
  void check_prt_monotone(std::size_t i) {
    const FlbTraceRow& row = rows_[i];
    const Cost ready = eff_prt(row.proc);
    if (row.start + kTimeTolerance < ready) {
      Diagnostic& d = report_.emit("prt-monotone", Severity::kError);
      d.step = i;
      d.task = row.task;
      d.proc = row.proc;
      d.expected = ready;
      d.actual = row.start;
      d.message = "t" + std::to_string(row.task) + " starts at " +
                  format_compact(row.start) + " although p" +
                  std::to_string(row.proc) + " is busy until " +
                  format_compact(ready);
      d.hint = "FLB appends to processor timelines; a start before PRT "
               "means the trace rows are reordered or the engine gained an "
               "insertion path it must not have";
    }
  }

  // ep-classification (appendix, Theorem 2 and Corollary 2): a ready task
  // is EP-type iff LMT(t) >= PRT(EP(t)); EP-type tasks start at
  // max(EMT, PRT) on their enabling processor, non-EP tasks at
  // max(LMT, PRT) on the processor that becomes idle first.
  void check_ep_classification(std::size_t i) {
    const FlbTraceRow& row = rows_[i];
    const TaskId t = row.task;

    // LMT and the enabling processor, exactly as the engine derives them:
    // full communication for every predecessor, first strict maximum wins.
    Cost lmt = 0.0;
    ProcId ep = kInvalidProc;
    for (const Adj& in : g_.predecessors(t)) {
      const Cost arrival = finish_[in.node] + in.comm;
      if (arrival > lmt || ep == kInvalidProc) {
        lmt = arrival;
        ep = proc_[in.node];
      }
    }

    const bool expect_ep =
        ep != kInvalidProc && model_.alive(ep) && lmt >= eff_prt(ep);
    if (expect_ep != row.ep_type) {
      Diagnostic& d = report_.emit("ep-classification", Severity::kError);
      d.step = i;
      d.task = t;
      d.proc = ep;
      d.expected = lmt;
      d.actual = ep == kInvalidProc ? kUndefinedTime : eff_prt(ep);
      d.message =
          "t" + std::to_string(t) + " is traced as " +
          (row.ep_type ? "EP-type" : "non-EP") + " but LMT " +
          format_compact(lmt) +
          (expect_ep ? " >= " : " < ") +
          (ep == kInvalidProc ? std::string("(no enabling processor)")
                              : "PRT(p" + std::to_string(ep) + ") = " +
                                    format_compact(eff_prt(ep)));
      d.hint = "EP-type iff LMT(t) >= PRT(EP(t)) (appendix Theorem 2); "
               "check the demotion sweep in UpdateTaskLists";
      return;
    }

    if (expect_ep) {
      if (row.proc != ep) {
        Diagnostic& d = report_.emit("ep-classification", Severity::kError);
        d.step = i;
        d.task = t;
        d.proc = row.proc;
        d.expected = static_cast<Cost>(ep);
        d.actual = static_cast<Cost>(row.proc);
        d.message = "EP-type t" + std::to_string(t) + " placed on p" +
                    std::to_string(row.proc) +
                    " instead of its enabling processor p" +
                    std::to_string(ep);
        d.hint = "an EP-type task starts earliest on its enabling "
                 "processor (appendix Theorem 2)";
        return;
      }
      Cost emt = 0.0;
      for (const Adj& in : g_.predecessors(t))
        emt = std::max(emt, arrival_at(in, ep));
      const Cost expected = std::max(emt, eff_prt(ep));
      if (std::abs(row.start - expected) > kTimeTolerance) {
        Diagnostic& d = report_.emit("ep-classification", Severity::kError);
        d.step = i;
        d.task = t;
        d.proc = ep;
        d.expected = expected;
        d.actual = row.start;
        d.message = "EP-type t" + std::to_string(t) +
                    " must start at max(EMT, PRT) = " +
                    format_compact(expected) + " on p" + std::to_string(ep) +
                    ", traced start is " + format_compact(row.start);
        d.hint = "EST(t, EP(t)) = max(EMT(t, EP(t)), PRT(EP(t))) "
                 "(paper Section 4)";
      }
      return;
    }

    // Non-EP: the destination must be a first-idle processor (minimum
    // effective PRT among the alive ones; ties are free) and the start
    // max(LMT, PRT) there (Corollary 2).
    Cost min_prt = kInfiniteTime;
    for (ProcId p = 0; p < num_procs_; ++p)
      if (model_.alive(p)) min_prt = std::min(min_prt, eff_prt(p));
    if (eff_prt(row.proc) > min_prt + kTimeTolerance) {
      Diagnostic& d = report_.emit("ep-classification", Severity::kError);
      d.step = i;
      d.task = t;
      d.proc = row.proc;
      d.expected = min_prt;
      d.actual = eff_prt(row.proc);
      d.message = "non-EP t" + std::to_string(t) + " placed on p" +
                  std::to_string(row.proc) + " (ready " +
                  format_compact(eff_prt(row.proc)) +
                  ") instead of a first-idle processor (ready " +
                  format_compact(min_prt) + ")";
      d.hint = "a non-EP task starts earliest on the processor that "
               "becomes idle first (appendix Corollary 2)";
      return;
    }
    const Cost expected = std::max(lmt, eff_prt(row.proc));
    if (std::abs(row.start - expected) > kTimeTolerance) {
      Diagnostic& d = report_.emit("ep-classification", Severity::kError);
      d.step = i;
      d.task = t;
      d.proc = row.proc;
      d.expected = expected;
      d.actual = row.start;
      d.message = "non-EP t" + std::to_string(t) +
                  " must start at max(LMT, PRT) = " +
                  format_compact(expected) + ", traced start is " +
                  format_compact(row.start);
      d.hint = "EST of a non-EP task is max(LMT(t), PRT(p)) "
               "(appendix Corollary 2)";
    }
  }

  // etf-conformance (Section 3's criterion, which Theorem 3 proves FLB
  // preserves): at every step, no ready task could start strictly earlier
  // anywhere than the scheduled task actually starts.
  void check_etf_conformance(std::size_t i) {
    const FlbTraceRow& row = rows_[i];
    for (TaskId c = 0; c < g_.num_tasks(); ++c) {
      if (placed_[c] || pending_[c] != 0) continue;
      Cost best = kInfiniteTime;
      ProcId where = kInvalidProc;
      for (ProcId p = 0; p < num_procs_; ++p) {
        if (!model_.alive(p)) continue;
        const Cost v = est(c, p);
        if (v < best) {
          best = v;
          where = p;
        }
      }
      if (best + kTimeTolerance < row.start) {
        Diagnostic& d = report_.emit("etf-conformance", Severity::kError);
        d.step = i;
        d.task = c;
        d.proc = where;
        d.expected = best;
        d.actual = row.start;
        d.message = "ready task t" + std::to_string(c) +
                    " could start at " + format_compact(best) + " on p" +
                    std::to_string(where) + ", earlier than the scheduled "
                    "t" + std::to_string(row.task) + "'s start " +
                    format_compact(row.start);
        d.hint = "FLB must schedule the ready task with the globally "
                 "minimal EST (ETF criterion, Section 3 / Theorem 3)";
      }
    }
  }

  void place(const FlbTraceRow& row) {
    if (placed_[row.task]) return;
    placed_[row.task] = true;
    proc_[row.task] = row.proc;
    finish_[row.task] = row.finish;
    prt_[row.proc] = std::max(prt_[row.proc], row.finish);
    for (const Adj& out : g_.successors(row.task))
      if (pending_[out.node] > 0) --pending_[out.node];
  }

  const TaskGraph& g_;
  const Schedule& s_;
  const std::vector<FlbTraceRow>& rows_;
  const platform::CostModel& model_;
  LintReport& report_;
  ProcId num_procs_;
  std::vector<bool> placed_;
  std::vector<ProcId> proc_;
  std::vector<Cost> finish_;
  std::vector<std::size_t> pending_;
  std::vector<Cost> prt_;
};

}  // namespace

Diagnostic& LintReport::emit(const char* rule, Severity severity) {
  Diagnostic& d = diagnostics.emplace_back();
  d.rule = rule;
  d.severity = severity;
  return d;
}

std::size_t LintReport::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == s) ++n;
  return n;
}

Severity LintReport::max_severity() const {
  Severity max = Severity::kInfo;
  for (const Diagnostic& d : diagnostics)
    if (static_cast<int>(d.severity) > static_cast<int>(max))
      max = d.severity;
  return max;
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      // Feasibility tier (validator-backed).
      {"unscheduled-task", Severity::kError, "every task is scheduled"},
      {"non-finite-time", Severity::kError, "ST/FT are finite"},
      {"wrong-duration", Severity::kError, "FT = ST + comp"},
      {"negative-start", Severity::kError, "ST >= 0"},
      {"processor-overlap", Severity::kError, "one task per processor at "
                                              "a time"},
      {"precedence", Severity::kError, "data arrives before a task starts"},
      {"link-busy", Severity::kError, "one transfer per link at a time"},
      {"partitioned-link", Severity::kError,
       "no message is sent across a link the fault plan partitions at its "
       "send instant"},
      // Theorem tier (trace-backed).
      {"etf-conformance", Severity::kError,
       "no ready task could start earlier than the scheduled one"},
      {"ep-classification", Severity::kError,
       "EP-type iff LMT >= PRT(EP); placement per the appendix theorems"},
      {"prt-monotone", Severity::kError,
       "placements append; processor ready times never decrease"},
      {"trace-schedule-consistency", Severity::kError,
       "the trace reproduces the schedule bit-for-bit in execution order"},
      // Quality tier.
      {"idle-gap", Severity::kWarn,
       "a processor idles while a task's inputs are already usable"},
      {"remote-placement", Severity::kWarn,
       "communication paid although a dominating zero-comm slot existed"},
      {"makespan-lower-bound", Severity::kInfo,
       "distance of the makespan from the coarse lower bound"},
  };
  return rules;
}

// The feasibility tier runs first, so the validator rejects a schedule of
// another graph before any tier indexes the graph by its task ids.
// Continuation schedules pass their durations: FT - ST may legitimately
// differ from comp(t) there.
LintReport lint_schedule(const TaskGraph& g, const Schedule& s,
                         const platform::CostModel& model,
                         const LintOptions& options) {
  LintReport report;
  emit_violations(validate_schedule(g, s), s, report);
  partition_rules(g, s, options, report);
  if (options.quality) quality_rules(g, s, model, report);
  return report;
}

LintReport lint_schedule(const TaskGraph& g, const Schedule& s,
                         const std::vector<Cost>& durations,
                         const platform::CostModel& model,
                         const LintOptions& options) {
  LintReport report;
  emit_violations(validate_schedule(g, s, durations), s, report);
  partition_rules(g, s, options, report);
  if (options.quality) quality_rules(g, s, model, report);
  return report;
}

LintReport lint_flb(const TaskGraph& g, const Schedule& s,
                    const std::vector<FlbTraceRow>& rows,
                    const platform::CostModel& model,
                    const LintOptions& options) {
  LintReport report;
  emit_violations(validate_schedule(g, s), s, report);
  partition_rules(g, s, options, report);
  if (options.theorems) {
    TraceReplay replay(g, s, rows, model, report);
    replay.run();
  }
  if (options.quality) quality_rules(g, s, model, report);
  return report;
}

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

void write_report(std::ostream& os, const LintReport& report) {
  for (const Diagnostic& d : report.diagnostics) {
    os << to_string(d.severity) << "[" << d.rule << "]";
    if (d.step != kNoStep) os << " step " << d.step;
    if (d.task != kInvalidTask) os << " t" << d.task;
    if (d.proc != kInvalidProc) os << " p" << d.proc;
    os << ": " << d.message;
    if (d.expected != kUndefinedTime || d.actual != kUndefinedTime)
      os << " (expected " << format_compact(d.expected) << ", actual "
         << format_compact(d.actual) << ")";
    os << "\n";
    if (!d.hint.empty()) os << "    hint: " << d.hint << "\n";
  }
  os << report.diagnostics.size() << " diagnostic(s): " << report.errors()
     << " error(s), " << report.warnings() << " warning(s), "
     << report.count(Severity::kInfo) << " info\n";
}

void write_report_json(std::ostream& os, const LintReport& report) {
  os << "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics) {
    if (!first) os << ",";
    first = false;
    os << "{\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
       << to_string(d.severity) << "\"";
    if (d.step != kNoStep) os << ",\"step\":" << d.step;
    if (d.task != kInvalidTask) os << ",\"task\":" << d.task;
    if (d.proc != kInvalidProc) os << ",\"proc\":" << d.proc;
    if (d.expected != kUndefinedTime) {
      os << ",\"expected\":";
      number(os, d.expected);
    }
    if (d.actual != kUndefinedTime) {
      os << ",\"actual\":";
      number(os, d.actual);
    }
    os << ",\"message\":\"" << json_escape(d.message) << "\",\"hint\":\""
       << json_escape(d.hint) << "\"}";
  }
  os << "],\"counts\":{\"error\":" << report.errors()
     << ",\"warn\":" << report.warnings()
     << ",\"info\":" << report.count(Severity::kInfo)
     << "},\"max_severity\":\"" << to_string(report.max_severity())
     << "\"}\n";
}

}  // namespace flb::analysis
