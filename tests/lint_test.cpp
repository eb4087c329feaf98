// Tests for the semantic schedule linter (src/analysis/lint.cpp).
//
// The heart is the *mutation self-test*: take a known-good FLB run of the
// paper example, corrupt it in one targeted way, and assert the matching
// rule fires — proving each error rule has actual detection power, not
// just that good schedules pass. A registry-wide property sweep then
// checks every algorithm's output over the seeded corpus stays
// error-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flb/analysis/lint.hpp"
#include "flb/core/trace.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/workloads/paper_example.hpp"
#include "test_support.hpp"

namespace {

using namespace flb;
using namespace flb::analysis;

bool has_rule(const LintReport& report, const std::string& rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::string rules_of(const LintReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += d.rule;
    out += ' ';
  }
  return out.empty() ? "(none)" : out;
}

Schedule schedule_from_rows(const std::vector<FlbTraceRow>& rows,
                            ProcId procs, TaskId num_tasks) {
  Schedule s(procs, num_tasks);
  for (const FlbTraceRow& row : rows)
    s.assign(row.task, row.proc, row.start, row.finish);
  return s;
}

/// A known-good FLB run of the paper example on 2 processors: the graph,
/// the trace and the schedule the trace reproduces.
struct PaperRun {
  TaskGraph g = paper_example_graph();
  std::vector<FlbTraceRow> rows = trace_flb(g, 2);
  Schedule s = schedule_from_rows(rows, 2, g.num_tasks());
  platform::CostModel model = platform::CostModel::clique(2);
};

// --- Clean runs lint clean -------------------------------------------------

TEST(Lint, PaperExampleIsClean) {
  PaperRun run;
  const LintReport report = lint_flb(run.g, run.s, run.rows, run.model);
  EXPECT_EQ(report.errors(), 0u) << rules_of(report);
  EXPECT_EQ(report.warnings(), 0u) << rules_of(report);
  // The info-tier makespan summary is always present for a complete
  // schedule, so the report is clean but not empty.
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(has_rule(report, "makespan-lower-bound"));
  EXPECT_EQ(report.max_severity(), Severity::kInfo);
}

TEST(Lint, TheoremTierExercisesEpAndNonEpRows) {
  // The paper run must contain both classifications, or the clean result
  // above would be vacuous for one of the two EP branches.
  PaperRun run;
  bool any_ep = false, any_non_ep = false;
  for (const FlbTraceRow& row : run.rows)
    (row.ep_type ? any_ep : any_non_ep) = true;
  EXPECT_TRUE(any_ep);
  EXPECT_TRUE(any_non_ep);
}

// --- Mutation self-test: each error rule must fire -------------------------

TEST(LintMutation, FlippedEpFlagTripsEpClassification) {
  PaperRun run;
  // Flip the classification bit of the last row (t7, EP-type in Table 1)
  // without touching the placement: LMT >= PRT(EP) still holds, so the
  // claimed non-EP contradicts the appendix theorem.
  ASSERT_TRUE(run.rows.back().ep_type) << "Table 1: t7 is EP-type";
  run.rows.back().ep_type = false;
  const LintReport report = lint_flb(run.g, run.s, run.rows, run.model);
  EXPECT_TRUE(has_rule(report, "ep-classification")) << rules_of(report);
}

TEST(LintMutation, SwappedPlacementTripsEpClassification) {
  PaperRun run;
  // Move the final EP-type task off its enabling processor (consistently
  // in trace and schedule, into a free slot so only the *semantic* rule
  // can object).
  FlbTraceRow& last = run.rows.back();
  ASSERT_TRUE(last.ep_type);
  const Cost duration = last.finish - last.start;
  const ProcId other = last.proc == 0 ? 1 : 0;
  const Cost slot = run.s.earliest_gap(other, last.start, duration);
  last.proc = other;
  last.start = slot;
  last.finish = slot + duration;
  const Schedule mutated =
      schedule_from_rows(run.rows, 2, run.g.num_tasks());
  const LintReport report =
      lint_flb(run.g, mutated, run.rows, run.model);
  EXPECT_TRUE(has_rule(report, "ep-classification")) << rules_of(report);
  // The mutation was applied consistently, so the consistency rule must
  // NOT fire — this is a semantic violation, not a bookkeeping one.
  EXPECT_FALSE(has_rule(report, "trace-schedule-consistency"))
      << rules_of(report);
}

TEST(LintMutation, DelayedStartTripsEtfConformance) {
  PaperRun run;
  // Delay the last task (consistently in trace and schedule): at that
  // step the delayed task itself could start earlier, violating the ETF
  // criterion.
  FlbTraceRow& last = run.rows.back();
  const Cost duration = last.finish - last.start;
  last.start += 5.0;
  last.finish = last.start + duration;
  const Schedule mutated =
      schedule_from_rows(run.rows, 2, run.g.num_tasks());
  const LintReport report =
      lint_flb(run.g, mutated, run.rows, run.model);
  EXPECT_TRUE(has_rule(report, "etf-conformance")) << rules_of(report);
  EXPECT_FALSE(has_rule(report, "trace-schedule-consistency"))
      << rules_of(report);
}

TEST(LintMutation, ReorderedRowsTripPrtMonotone) {
  // Two independent tasks on one processor: swapping their trace rows
  // keeps precedence valid and leaves the schedule unchanged (same
  // placements, order-free), but the replayed second row now starts
  // before the processor is free.
  TaskGraphBuilder b;
  const TaskId a = b.add_task(2);
  const TaskId c = b.add_task(3);
  (void)a;
  (void)c;
  const TaskGraph g = std::move(b).build();
  std::vector<FlbTraceRow> rows = trace_flb(g, 1);
  ASSERT_EQ(rows.size(), 2u);
  std::swap(rows[0], rows[1]);
  const Schedule s = schedule_from_rows(rows, 1, g.num_tasks());
  const LintReport report =
      lint_flb(g, s, rows, platform::CostModel::clique(1));
  EXPECT_TRUE(has_rule(report, "prt-monotone")) << rules_of(report);
}

TEST(LintMutation, TamperedScheduleTripsConsistency) {
  PaperRun run;
  // Rebuild the schedule with the last task shifted, leaving the trace
  // untouched: the trace no longer reproduces the schedule bit-for-bit.
  std::vector<FlbTraceRow> shifted = run.rows;
  shifted.back().start += 1.0;
  shifted.back().finish += 1.0;
  const Schedule tampered =
      schedule_from_rows(shifted, 2, run.g.num_tasks());
  const LintReport report =
      lint_flb(run.g, tampered, run.rows, run.model);
  EXPECT_TRUE(has_rule(report, "trace-schedule-consistency"))
      << rules_of(report);
}

TEST(LintMutation, PrecedenceRespectingRowOrderIsEnforced) {
  PaperRun run;
  // Moving the first row (an entry task) to the end keeps the schedule
  // identical but makes successors replay before their predecessor — an
  // invalid execution order.
  std::rotate(run.rows.begin(), run.rows.begin() + 1, run.rows.end());
  const LintReport report = lint_flb(run.g, run.s, run.rows, run.model);
  EXPECT_TRUE(has_rule(report, "trace-schedule-consistency"))
      << rules_of(report);
}

// --- Feasibility tier (validator lift) -------------------------------------

TEST(LintFeasibility, UnscheduledTaskAndWrongDurationAndPrecedence) {
  const TaskGraph g = test::small_diamond();  // a->b, a->c, b->d, c->d
  const platform::CostModel model = platform::CostModel::clique(2);

  Schedule partial(2, g.num_tasks());
  partial.assign(0, 0, 0.0, 1.0);
  const LintReport r1 = lint_schedule(g, partial, model);
  EXPECT_TRUE(has_rule(r1, "unscheduled-task")) << rules_of(r1);

  Schedule padded(2, g.num_tasks());
  padded.assign(0, 0, 0.0, 2.5);  // comp(a) = 1: duration is wrong
  const LintReport r2 = lint_schedule(g, padded, model);
  EXPECT_TRUE(has_rule(r2, "wrong-duration")) << rules_of(r2);

  Schedule eager(2, g.num_tasks());
  eager.assign(0, 0, 0.0, 1.0);
  eager.assign(1, 1, 0.0, 3.0);  // b needs a's data: arrival 1 + 2 = 3
  const LintReport r3 = lint_schedule(g, eager, model);
  EXPECT_TRUE(has_rule(r3, "precedence")) << rules_of(r3);
}

// A schedule of another graph is the caller's error, not a finding, at
// every entry point.
TEST(LintFeasibility, RejectsScheduleOfAnotherGraph) {
  const test::MismatchedSchedules other;
  const platform::CostModel model = platform::CostModel::clique(3);
  const std::vector<Cost> durations(other.large.num_tasks(), kUndefinedTime);
  EXPECT_THROW((void)lint_schedule(other.large, other.of_small, model),
               Error);
  EXPECT_THROW((void)lint_schedule(other.small, other.of_large, model),
               Error);
  EXPECT_THROW((void)lint_schedule(other.large, other.of_small, durations,
                                   model),
               Error);
  EXPECT_THROW((void)lint_flb(other.large, other.of_small, {}, model), Error);
}

/// `s` with task `t` re-placed at [start, finish] on `p`.
Schedule moved(const Schedule& s, TaskId t, ProcId p, Cost start,
               Cost finish) {
  Schedule out(s.num_procs(), s.num_tasks());
  for (TaskId u = 0; u < s.num_tasks(); ++u)
    if (u != t && s.is_scheduled(u))
      out.assign(u, s.proc(u), s.start(u), s.finish(u));
  out.assign(t, p, start, finish);
  return out;
}

/// Tampered copies of a complete continuation, one per kind of damage (a
/// kind is skipped when the schedule offers no task to apply it to).
std::vector<std::pair<std::string, Schedule>> tampered(const TaskGraph& g,
                                                       const Schedule& s) {
  std::vector<std::pair<std::string, Schedule>> out;
  // A start moved earlier: the first task with a predecessor and idle time
  // before it on its processor slides back to the end of that idle time.
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    if (g.predecessors(t).empty()) continue;
    const auto on = s.tasks_on(s.proc(t));
    const auto at = std::find(on.begin(), on.end(), t);
    const Cost idle_from = at == on.begin() ? 0.0 : s.finish(*(at - 1));
    if (s.start(t) <= idle_from + 1e-6) continue;
    out.emplace_back("start moved earlier",
                     moved(s, t, s.proc(t), idle_from,
                           idle_from + s.finish(t) - s.start(t)));
    break;
  }
  // A duration shrunk: the last task with positive length loses half of it.
  for (TaskId t = s.num_tasks(); t-- > 0;) {
    if (s.finish(t) <= s.start(t)) continue;
    out.emplace_back("duration shrunk",
                     moved(s, t, s.proc(t), s.start(t),
                           0.5 * (s.start(t) + s.finish(t))));
    break;
  }
  // A task moved into an occupied slot: task 0 lands at the start of a task
  // running on another processor. A Schedule refuses overlapping
  // placements outright, so the move keeps zero length there and the
  // validator has to flag the duration and any input it now precedes.
  for (TaskId u = 0; u < s.num_tasks(); ++u) {
    if (s.proc(u) == s.proc(0) || s.finish(u) <= s.start(u)) continue;
    out.emplace_back("moved into an occupied slot",
                     moved(s, 0, s.proc(u), s.start(u), s.start(u)));
    break;
  }
  return out;
}

// The recovery controller validates a continuation once, through the lint
// feasibility tier alone. That is only sound if the tier reports exactly
// the durations-aware validator's violations: on seeded repairs, clean, and
// on tampered copies of them, broken.
TEST(Lint, FeasibilityTierMatchesValidatorWithDurations) {
  LintOptions options;  // the controller's: feasibility tier only
  options.theorems = false;
  options.quality = false;
  std::map<std::string, std::size_t> broken;
  for (std::size_t index = 0; index < 12; ++index) {
    const TaskGraph g = test::fuzz_graph(index);
    for (ProcId procs : {ProcId{2}, ProcId{4}}) {
      const Schedule nominal = make_scheduler("FLB")->run(g, procs);
      const FaultPlan plan =
          FaultPlan::single_failure(1, 0.35 * nominal.makespan());
      SimOptions sim_options;
      sim_options.faults = &plan;
      const RepairResult repair = repair_schedule(
          g, nominal, simulate(g, nominal, sim_options), plan);
      auto cases = tampered(g, repair.schedule);
      cases.emplace_back("repaired", repair.schedule);
      for (const auto& [what, s] : cases) {
        const std::size_t violations =
            validate_schedule(g, s, repair.durations).size();
        const LintReport report =
            lint_schedule(g, s, repair.durations,
                          platform::CostModel::clique(procs), options);
        EXPECT_EQ(report.errors(), violations)
            << what << " on graph " << index << " P=" << procs << ": "
            << rules_of(report);
        EXPECT_EQ(report.clean(), violations == 0)
            << what << " on graph " << index << " P=" << procs;
        if (violations > 0) ++broken[what];
      }
    }
  }
  // The repairs validate, and every kind of damage breaks some of them.
  EXPECT_EQ(broken.count("repaired"), 0u);
  EXPECT_GT(broken["start moved earlier"], 0u);
  EXPECT_GT(broken["duration shrunk"], 0u);
  EXPECT_GT(broken["moved into an occupied slot"], 0u);
}

// --- Quality tier ----------------------------------------------------------

// --- Partitioned-link rule (armed by LintOptions::faults) -------------------

TEST(LintPartition, FlagsSendsAcrossTheCutAndHonorsTheSendInstant) {
  // Producer on p0 finishes at 1.0 and feeds a consumer on p1: the message
  // leaves at exactly t = 1.
  TaskGraphBuilder b;
  const TaskId producer = b.add_task(1.0);
  const TaskId consumer = b.add_task(1.0);
  b.add_edge(producer, consumer, 4.0);
  const TaskGraph g = std::move(b).build();
  Schedule s(2, 2);
  s.assign(producer, 0, 0.0, 1.0);
  s.assign(consumer, 1, 5.0, 6.0);
  ASSERT_TRUE(is_valid_schedule(g, s));
  const platform::CostModel model = platform::CostModel::clique(2);

  // A cut covering the send instant fires the error rule.
  FaultPlan covering;
  PartitionFault cut;
  cut.proc_a = 0;
  cut.proc_b = 1;
  cut.time = 1.0;
  cut.until = 2.0;
  covering.partitions.push_back(cut);
  LintOptions options;
  options.faults = &covering;
  const LintReport hit = lint_schedule(g, s, model, options);
  EXPECT_TRUE(has_rule(hit, "partitioned-link")) << rules_of(hit);
  EXPECT_GE(hit.errors(), 1u);

  // The outage window is half-open: a cut that heals exactly at the send
  // instant no longer owns it, so the schedule lints clean.
  FaultPlan healed;
  cut.time = 0.0;
  cut.until = 1.0;
  healed.partitions.push_back(cut);
  LintOptions ok;
  ok.faults = &healed;
  const LintReport clean = lint_schedule(g, s, model, ok);
  EXPECT_FALSE(has_rule(clean, "partitioned-link")) << rules_of(clean);
  EXPECT_EQ(clean.errors(), 0u);
}

TEST(LintPartition, PaperScheduleTripsOnATotalCutAndPassesALateOne) {
  PaperRun run;
  FaultPlan total;
  PartitionFault cut;
  cut.proc_a = 0;
  cut.proc_b = 1;
  cut.time = 0.0;  // permanent: every remote message crosses the cut
  total.partitions.push_back(cut);
  LintOptions options;
  options.faults = &total;
  const LintReport hit = lint_flb(run.g, run.s, run.rows, run.model, options);
  EXPECT_TRUE(has_rule(hit, "partitioned-link")) << rules_of(hit);

  // A cut opening only after the schedule drains (makespan 14) is inert —
  // and a plan with no partitions at all never arms the rule.
  FaultPlan late;
  cut.time = 20.0;
  cut.until = 30.0;
  late.partitions.push_back(cut);
  LintOptions ok;
  ok.faults = &late;
  const LintReport clean =
      lint_flb(run.g, run.s, run.rows, run.model, ok);
  EXPECT_FALSE(has_rule(clean, "partitioned-link")) << rules_of(clean);
  EXPECT_EQ(clean.errors(), 0u);
}

TEST(LintQuality, IdleGapWarnsAndCanBeDisabled) {
  TaskGraphBuilder b;
  (void)b.add_task(1);
  const TaskGraph g = std::move(b).build();
  Schedule s(1, 1);
  s.assign(0, 0, 5.0, 6.0);  // legal, but the processor idled 5 units
  const platform::CostModel model = platform::CostModel::clique(1);
  const LintReport report = lint_schedule(g, s, model);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(has_rule(report, "idle-gap")) << rules_of(report);
  EXPECT_EQ(report.max_severity(), Severity::kWarn);

  LintOptions quiet;
  quiet.quality = false;
  EXPECT_TRUE(lint_schedule(g, s, model, quiet).diagnostics.empty());
}

TEST(LintQuality, RemotePlacementWarnsWhenLocalSlotDominates) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  const TaskId c = b.add_task(1);
  b.add_edge(a, c, 2);
  const TaskGraph g = std::move(b).build();
  Schedule s(2, g.num_tasks());
  s.assign(a, 0, 0.0, 1.0);
  s.assign(c, 1, 3.0, 4.0);  // remote: pays comm 2; p0 was free from 1
  const LintReport report =
      lint_schedule(g, s, platform::CostModel::clique(2));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(has_rule(report, "remote-placement")) << rules_of(report);
}

// --- Registry-wide property test -------------------------------------------

TEST(LintProperty, EveryRegistryAlgorithmLintsCleanOnSeededCorpus) {
  const std::vector<std::string> algos = extended_scheduler_names();
  for (std::size_t index = 0; index < 20; ++index) {
    const TaskGraph g = test::fuzz_graph(index);
    for (ProcId procs : {ProcId{2}, ProcId{4}, ProcId{8}}) {
      const platform::CostModel model = platform::CostModel::clique(procs);
      for (const std::string& algo : algos) {
        const Schedule s = make_scheduler(algo)->run(g, procs);
        ASSERT_TRUE(validate_schedule(g, s).empty())
            << algo << " infeasible on graph " << index << " P=" << procs
            << "\n" << test::violations_to_string(g, s);
        const LintReport report = lint_schedule(g, s, model);
        EXPECT_TRUE(report.clean())
            << algo << " on graph " << index << " P=" << procs << ": "
            << rules_of(report);
      }
      // FLB additionally passes the full theorem tier on its own trace.
      const std::vector<FlbTraceRow> rows = trace_flb(g, procs);
      const Schedule s = schedule_from_rows(rows, procs, g.num_tasks());
      const LintReport report = lint_flb(g, s, rows, model);
      EXPECT_TRUE(report.clean())
          << "FLB theorem tier on graph " << index << " P=" << procs
          << ": " << rules_of(report);
    }
  }
}

// The same registry sweep through the online-repair path: kill a processor
// mid-execution, repair the partial run, and lint the *continuation*
// against its stretched duration vector. This is the feasibility gate the
// recovery controller re-checks on every installed schedule — a repair
// regression (overlap, precedence breach, wrong remainder duration) fails
// here before it ever reaches the runtime loop.
TEST(LintProperty, EveryRepairedContinuationLintsFeasibleOnSeededCorpus) {
  const std::vector<std::string> algos = extended_scheduler_names();
  LintOptions options;
  options.quality = false;  // degraded durations invalidate nominal heuristics
  for (std::size_t index = 0; index < 12; ++index) {
    const TaskGraph g = test::fuzz_graph(index);
    for (ProcId procs : {ProcId{2}, ProcId{4}}) {
      const platform::CostModel model = platform::CostModel::clique(procs);
      for (const std::string& algo : algos) {
        const Schedule nominal = make_scheduler(algo)->run(g, procs);
        FaultPlan plan =
            FaultPlan::single_failure(1, 0.35 * nominal.makespan());
        SimOptions sim_options;
        sim_options.faults = &plan;
        const SimResult partial = simulate(g, nominal, sim_options);
        const RepairResult repair =
            repair_schedule(g, nominal, partial, plan);
        const LintReport report = lint_schedule(
            g, repair.schedule, repair.durations, model, options);
        EXPECT_TRUE(report.clean())
            << algo << " continuation on graph " << index << " P=" << procs
            << ": " << rules_of(report);
      }
    }
  }
}

// --- Reporting surfaces ----------------------------------------------------

TEST(LintReporting, CatalogueCoversEveryEmittedRule) {
  std::set<std::string> known;
  for (const RuleInfo& r : rule_catalogue()) known.insert(r.id);
  EXPECT_EQ(known.size(), rule_catalogue().size()) << "duplicate rule id";

  // Collect rule ids from a pile of reports covering all three tiers.
  PaperRun run;
  std::vector<FlbTraceRow> broken = run.rows;
  std::rotate(broken.begin(), broken.begin() + 1, broken.end());
  broken.back().ep_type = !broken.back().ep_type;
  for (const LintReport& report :
       {lint_flb(run.g, run.s, run.rows, run.model),
        lint_flb(run.g, run.s, broken, run.model)}) {
    for (const Diagnostic& d : report.diagnostics)
      EXPECT_TRUE(known.count(d.rule)) << "uncatalogued rule " << d.rule;
  }
}

TEST(LintReporting, HumanAndJsonOutputs) {
  PaperRun run;
  const LintReport report = lint_flb(run.g, run.s, run.rows, run.model);

  std::ostringstream human;
  write_report(human, report);
  EXPECT_NE(human.str().find("makespan-lower-bound"), std::string::npos);
  EXPECT_NE(human.str().find("0 error(s)"), std::string::npos);

  std::ostringstream json;
  write_report_json(json, report);
  EXPECT_NE(json.str().find("\"max_severity\":\"info\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"counts\":{\"error\":0"), std::string::npos);

  EXPECT_STREQ(to_string(Severity::kError), "error");
  EXPECT_STREQ(to_string(Severity::kWarn), "warn");
  EXPECT_STREQ(to_string(Severity::kInfo), "info");
}

}  // namespace
