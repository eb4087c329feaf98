// Fault-tolerant execution: fault injection in the machine simulator,
// online schedule repair, and the robustness metrics tying them together.
//
// The headline property (exercised across every registered scheduler): kill
// one processor mid-run, execute the schedule to the resulting partial
// state, repair, and the continuation is feasible, complete, survives
// re-execution under the same fault plan, and degrades by a provable bound
// — deterministically for a fixed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "flb/core/flb.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

SimOptions with_faults(const FaultPlan& plan) {
  SimOptions options;
  options.faults = &plan;
  return options;
}

// An inductive bound on any continuation built by resume/greedy: each
// migrated task starts no later than the horizon so far (every message has
// arrived by then, full communication included), so the makespan grows by
// at most comp + max inbound comm per migrated task.
Cost degradation_bound(const TaskGraph& g, const SimResult& partial,
                       const RepairResult& repair) {
  Cost horizon = std::max(partial.makespan, repair.release_time);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (partial.finish[t] != kUndefinedTime) continue;
    Cost max_comm = 0.0;
    for (const Adj& in : g.predecessors(t))
      max_comm = std::max(max_comm, in.comm);
    horizon += g.comp(t) + max_comm;
  }
  return horizon;
}

// --- Fault plan basics -------------------------------------------------------

TEST(FaultPlan, TrivialAndValidation) {
  FaultPlan plan;
  EXPECT_TRUE(plan.trivial());
  plan.runtime_spread = 0.2;
  EXPECT_FALSE(plan.trivial());

  FaultPlan bad = FaultPlan::single_failure(9, 1.0);
  EXPECT_THROW(bad.validate(4), Error);
  EXPECT_NO_THROW(bad.validate(10));
  bad.message.loss_probability = 1.5;
  EXPECT_THROW(bad.validate(10), Error);
  bad.message.loss_probability = 0.5;
  bad.runtime_spread = 1.0;
  EXPECT_THROW(bad.validate(10), Error);

  EXPECT_DOUBLE_EQ(FaultPlan::single_failure(2, 7.0).death_time(2), 7.0);
  EXPECT_EQ(FaultPlan::single_failure(2, 7.0).death_time(0), kInfiniteTime);
}

TEST(FaultPlan, MessageOutcomesAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.message.loss_probability = 0.5;
  plan.message.delay_probability = 0.3;
  for (std::size_t slot = 0; slot < 50; ++slot) {
    MessageOutcome a = resolve_message(plan, slot);
    MessageOutcome b = resolve_message(plan, slot);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.delayed, b.delayed);
    EXPECT_DOUBLE_EQ(a.retry_delay, b.retry_delay);
  }
  // A different seed changes at least one outcome over 50 edges.
  FaultPlan other = plan;
  other.seed = 43;
  bool differs = false;
  for (std::size_t slot = 0; slot < 50 && !differs; ++slot)
    differs = resolve_message(plan, slot).retries !=
                  resolve_message(other, slot).retries ||
              resolve_message(plan, slot).dropped !=
                  resolve_message(other, slot).dropped;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RetryDelayFollowsExponentialBackoff) {
  FaultPlan plan;
  plan.message.loss_probability = 1.0;  // every attempt lost
  plan.message.max_retries = 4;
  plan.message.retry_timeout = 2.0;
  plan.message.backoff = 3.0;
  // All attempts lost -> dropped after exhausting the budget.
  MessageOutcome out = resolve_message(plan, 0);
  EXPECT_TRUE(out.dropped);
  // retries counted up to the budget: 4 retransmissions were scheduled
  // (timeouts 2, 6, 18, 54) before the final attempt was also lost.
  EXPECT_EQ(out.retries, 4u);
  EXPECT_DOUBLE_EQ(out.retry_delay, 2.0 + 6.0 + 18.0 + 54.0);
}

// --- Simulator under faults --------------------------------------------------

TEST(FaultSim, TrivialPlanMatchesFaultFreeRun) {
  TaskGraph g = test::fuzz_graph(3);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  FaultPlan plan;  // injects nothing
  SimResult a = simulate(g, s);
  SimResult b = simulate(g, s, with_faults(plan));
  EXPECT_TRUE(b.complete());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(b.retries, 0u);
  EXPECT_EQ(b.dropped_messages, 0u);
  EXPECT_DOUBLE_EQ(b.work_lost, 0.0);
}

TEST(FaultSim, FailStopKillsRunningAndFutureTasks) {
  // A chain on one processor: kill it mid-second-task. Exactly the first
  // task survives; the in-flight work is lost.
  TaskGraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task(2.0);
  for (int i = 0; i < 3; ++i)
    b.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), 1.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 4);
  for (TaskId t = 0; t < 4; ++t)
    s.assign(t, 0, 2.0 * t, 2.0 * t + 2.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  FaultPlan plan = FaultPlan::single_failure(0, 3.0);
  SimResult r = simulate(g, s, with_faults(plan));
  EXPECT_FALSE(r.complete());
  EXPECT_DOUBLE_EQ(r.finish[0], 2.0);
  EXPECT_EQ(r.start[1], kUndefinedTime);  // killed at t=3, one unit in
  EXPECT_DOUBLE_EQ(r.work_lost, 1.0);
  ASSERT_EQ(r.unfinished.size(), 3u);
  EXPECT_EQ(r.unfinished[0], 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_GT(r.dead_proc_idle, -1.0);  // defined (clamped at 0)
}

TEST(FaultSim, CompletionAtExactlyFailureTimeSurvives) {
  TaskGraphBuilder b;
  b.add_task(3.0);
  b.add_task(1.0);
  b.add_edge(0, 1, 0.5);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 2);
  s.assign(0, 0, 0.0, 3.0);
  s.assign(1, 1, 3.5, 4.5);
  FaultPlan plan = FaultPlan::single_failure(0, 3.0);
  SimResult r = simulate(g, s, with_faults(plan));
  // Task 0 finishes exactly when its processor dies: it survives, its
  // message is in flight, and the remote consumer still runs.
  EXPECT_TRUE(r.complete());
  EXPECT_DOUBLE_EQ(r.finish[1], 4.5);
}

TEST(FaultSim, RuntimePerturbationIsDeterministicAndBounded) {
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  FaultPlan plan;
  plan.seed = 7;
  plan.runtime_spread = 0.4;
  SimResult a = simulate(g, s, with_faults(plan));
  SimResult b = simulate(g, s, with_faults(plan));
  ASSERT_TRUE(a.complete());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(a.finish[t], b.finish[t]);
    Cost dur = a.finish[t] - a.start[t];
    EXPECT_GE(dur, g.comp(t) * 0.6 - 1e-12);
    EXPECT_LE(dur, g.comp(t) * 1.4 + 1e-12);
  }
}

TEST(FaultSim, MessageLossAddsRetryLatency) {
  // One remote edge, loss forced on the first attempts via probability 1
  // would drop; use a plan where loss happens but the retry budget is
  // large enough that delivery eventually succeeds for some seed. Instead,
  // deterministically: probability 0 loss vs a delayed message.
  TaskGraphBuilder b;
  b.add_task(1.0);
  b.add_task(1.0);
  b.add_edge(0, 1, 4.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 2);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 5.0, 6.0);

  FaultPlan delayed;
  delayed.message.delay_probability = 1.0;
  delayed.message.delay_factor = 2.0;
  SimResult r = simulate(g, s, with_faults(delayed));
  ASSERT_TRUE(r.complete());
  // Transfer takes 8 instead of 4: consumer starts at 9.
  EXPECT_DOUBLE_EQ(r.start[1], 9.0);
  EXPECT_DOUBLE_EQ(r.network_busy, 8.0);
}

TEST(FaultSim, DroppedMessageStarvesConsumer) {
  TaskGraphBuilder b;
  b.add_task(1.0);
  b.add_task(1.0);
  b.add_edge(0, 1, 4.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 2);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 5.0, 6.0);

  FaultPlan lossy;
  lossy.message.loss_probability = 1.0;  // every attempt lost -> dropped
  lossy.message.max_retries = 2;
  SimResult r = simulate(g, s, with_faults(lossy));
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.dropped_messages, 1u);
  EXPECT_EQ(r.retries, 2u);
  ASSERT_EQ(r.unfinished.size(), 1u);
  EXPECT_EQ(r.unfinished[0], 1u);
}

// --- Online repair -----------------------------------------------------------

// The acceptance-criterion property test: for every registered scheduler,
// kill a processor mid-run; the repaired continuation validates, completes
// every task off the dead processor, re-executes to completion under the
// same plan, stays within the provable degradation bound, and is
// bit-identical across repeated repairs.
TEST(Repair, KillOneProcessorEveryScheduler) {
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (const std::string& name : extended_scheduler_names()) {
      Schedule nominal = make_scheduler(name, 1)->run(g, 4);
      const Cost when = 0.4 * nominal.makespan();
      FaultPlan plan = FaultPlan::single_failure(1, when);
      SimResult partial = simulate(g, nominal, with_faults(plan));

      RepairResult repair = repair_schedule(g, nominal, partial, plan);
      ASSERT_TRUE(repair.schedule.complete()) << name;
      ASSERT_TRUE(is_valid_schedule(g, repair.schedule))
          << name << " on " << g.name() << "\n"
          << test::violations_to_string(g, repair.schedule);
      EXPECT_EQ(repair.survivors, 3u);

      // Migrated work lands on survivors only, never before the failure.
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        if (partial.finish[t] != kUndefinedTime) continue;
        EXPECT_NE(repair.schedule.proc(t), 1u) << name;
        EXPECT_GE(repair.schedule.start(t), when - 1e-9) << name;
      }

      // The continuation re-executes to completion under the same plan:
      // everything on the dead processor finished before the failure. The
      // replay may beat the analytic plan (migrated tasks are clamped to
      // start no earlier than the failure time, but a from-scratch replay
      // is free to start them as soon as their inputs arrive), never lag it.
      SimResult replay = simulate(g, repair.schedule, with_faults(plan));
      EXPECT_TRUE(replay.complete()) << name;
      EXPECT_LE(replay.makespan, repair.schedule.makespan() + 1e-9) << name;

      // Bounded degradation.
      EXPECT_LE(repair.schedule.makespan(),
                degradation_bound(g, partial, repair) + 1e-9)
          << name;

      // Deterministic: repairing again yields the identical schedule.
      RepairResult again = repair_schedule(g, nominal, partial, plan);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        ASSERT_EQ(repair.schedule.proc(t), again.schedule.proc(t)) << name;
        ASSERT_DOUBLE_EQ(repair.schedule.start(t), again.schedule.start(t))
            << name;
      }
    }
  }
}

TEST(Repair, GreedyFallbackWithSingleSurvivor) {
  TaskGraph g = test::fuzz_graph(4);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 3);
  FaultPlan plan;
  plan.failures.push_back({0, 0.25 * nominal.makespan()});
  plan.failures.push_back({2, 0.25 * nominal.makespan()});
  SimResult partial = simulate(g, nominal, with_faults(plan));

  RepairResult repair = repair_schedule(g, nominal, partial, plan);
  EXPECT_EQ(repair.used, RepairStrategy::kGreedy);
  EXPECT_EQ(repair.survivors, 1u);
  ASSERT_TRUE(repair.schedule.complete());
  ASSERT_TRUE(is_valid_schedule(g, repair.schedule))
      << test::violations_to_string(g, repair.schedule);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (partial.finish[t] == kUndefinedTime)
      EXPECT_EQ(repair.schedule.proc(t), 1u);
  SimResult replay = simulate(g, repair.schedule, with_faults(plan));
  EXPECT_TRUE(replay.complete());
}

TEST(Repair, ExplicitStrategiesAgreeOnFeasibility) {
  TaskGraph g = test::fuzz_graph(6);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  FaultPlan plan = FaultPlan::single_failure(3, 0.5 * nominal.makespan());
  SimResult partial = simulate(g, nominal, with_faults(plan));

  for (RepairStrategy strategy :
       {RepairStrategy::kFlbResume, RepairStrategy::kGreedy}) {
    RepairOptions options;
    options.strategy = strategy;
    RepairResult repair = repair_schedule(g, nominal, partial, plan, options);
    EXPECT_EQ(repair.used, strategy);
    ASSERT_TRUE(is_valid_schedule(g, repair.schedule))
        << test::violations_to_string(g, repair.schedule);
  }
}

TEST(Repair, RejectsTotalFailureAndDroppedData) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);

  FaultPlan all_dead;
  all_dead.failures.push_back({0, 1.0});
  all_dead.failures.push_back({1, 1.0});
  SimResult partial = simulate(g, nominal, with_faults(all_dead));
  EXPECT_THROW((void)repair_schedule(g, nominal, partial, all_dead), Error);

  FaultPlan lossy;
  lossy.message.loss_probability = 1.0;
  SimResult starved = simulate(g, nominal, with_faults(lossy));
  if (starved.dropped_messages > 0)
    EXPECT_THROW((void)repair_schedule(g, nominal, starved, lossy), Error);
}

// --- Partition-aware repair: RepairOptions::unreachable ---------------------

// An unreachable-but-alive processor is masked out of new placements — the
// controller cannot install work behind the partition — but the queue it
// already holds keeps executing in place: the whole not-yet-started tail
// pins, placements and starts preserved, until the first task that would
// need a re-planned producer.
TEST(Repair, UnreachableProcessorKeepsItsQueueButTakesNoNewWork) {
  bool any_pinned = false;
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule nominal = flb.run(g, 4);
    FaultPlan plan;  // nothing actually fails: the cut is belief, not death
    plan.runtime_spread = 0.0;
    SimResult partial = simulate(g, nominal, with_faults(plan));

    RepairOptions options;
    options.horizon = 0.4 * nominal.makespan();
    options.unreachable = {2, 2};  // duplicates collapse
    RepairResult repair =
        repair_schedule(g, nominal, partial, plan, options);
    EXPECT_EQ(repair.unreachable_procs, 1u);
    ASSERT_TRUE(repair.schedule.complete()) << g.name();
    ASSERT_TRUE(is_valid_schedule(g, repair.schedule))
        << g.name() << "\n"
        << test::violations_to_string(g, repair.schedule);

    // Nothing new lands on the unreachable processor: any re-planned task
    // the continuation leaves on p2 already lived there in the nominal
    // schedule, at its nominal start or later (a pin, not a placement).
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (partial.start[t] < options.horizon) continue;  // fixed past
      if (repair.schedule.proc(t) != 2u) continue;
      EXPECT_EQ(nominal.proc(t), 2u) << g.name() << " task " << t;
      EXPECT_GE(repair.schedule.start(t), nominal.start(t) - 1e-9);
    }
    for (TaskId t : repair.pinned_tasks) {
      any_pinned = true;
      EXPECT_EQ(nominal.proc(t), 2u);
      EXPECT_EQ(repair.schedule.proc(t), 2u);
    }
  }
  // The property sweep must have exercised a real pin somewhere, or the
  // placement assertions above are vacuous.
  EXPECT_TRUE(any_pinned);
}

// A processor listed in both `suspects` and `unreachable` follows the
// suspect semantics: one in-flight hedge at most, never the whole queue.
// With a fault-free partial run nothing is in flight at the horizon, so
// the overlap pins nothing while unreachable-only pins the tail.
TEST(Repair, SuspectSemanticsWinOnOverlapWithUnreachable) {
  TaskGraph g = test::fuzz_graph(3);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  FaultPlan plan;
  plan.runtime_spread = 0.0;
  SimResult partial = simulate(g, nominal, with_faults(plan));

  RepairOptions cut_only;
  cut_only.horizon = 0.4 * nominal.makespan();
  cut_only.unreachable = {2};
  const RepairResult whole =
      repair_schedule(g, nominal, partial, plan, cut_only);

  RepairOptions overlap = cut_only;
  overlap.suspects = {2};
  const RepairResult hedge =
      repair_schedule(g, nominal, partial, plan, overlap);
  EXPECT_LE(hedge.pinned_tasks.size(), 1u);
  EXPECT_GE(whole.pinned_tasks.size(), hedge.pinned_tasks.size());
}

TEST(Repair, RejectsUnreachableEverythingAndBadIds) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);
  FaultPlan plan;
  SimResult partial = simulate(g, nominal, with_faults(plan));

  RepairOptions options;
  options.horizon = 0.5 * nominal.makespan();
  options.unreachable = {0, 1};  // nobody left to install work on
  EXPECT_THROW(
      (void)repair_schedule(g, nominal, partial, plan, options), Error);
  options.unreachable = {5};  // not a processor of this machine
  EXPECT_THROW(
      (void)repair_schedule(g, nominal, partial, plan, options), Error);

  // Dead and unreachable compose: killing p0 while p1 sits behind a cut
  // leaves no reachable survivor either.
  FaultPlan kill = FaultPlan::single_failure(0, 0.3 * nominal.makespan());
  SimResult partial_kill = simulate(g, nominal, with_faults(kill));
  RepairOptions one_cut;
  one_cut.unreachable = {1};
  EXPECT_THROW(
      (void)repair_schedule(g, nominal, partial_kill, kill, one_cut), Error);
}

TEST(Repair, NoFailuresIsIdentityContinuation) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);
  FaultPlan plan;
  plan.runtime_spread = 0.0;
  SimResult full = simulate(g, nominal, with_faults(plan));
  RepairResult repair = repair_schedule(g, nominal, full, plan);
  EXPECT_EQ(repair.migrated_tasks, 0u);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(repair.schedule.proc(t), nominal.proc(t));
    EXPECT_DOUBLE_EQ(repair.schedule.start(t), nominal.start(t));
  }
}

// --- Fault-plan validation names the offending entry -------------------------

std::string validation_error(const FaultPlan& plan, ProcId procs) {
  try {
    plan.validate(procs);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(FaultPlan, ValidationNamesOffendingEntry) {
  FaultPlan dup;
  dup.failures.push_back({0, 1.0});
  dup.failures.push_back({0, 2.0});
  EXPECT_NE(validation_error(dup, 4).find("failures[1]"), std::string::npos);
  EXPECT_NE(validation_error(dup, 4).find("duplicates"), std::string::npos);

  FaultPlan negative;
  negative.failures.push_back({1, -3.0});
  EXPECT_NE(validation_error(negative, 4).find("failures[0]"),
            std::string::npos);

  FaultPlan bad_slow;
  bad_slow.slowdowns.push_back({0, 1.0, 0.5});
  bad_slow.slowdowns.push_back({1, 1.0, 1.5});
  EXPECT_NE(validation_error(bad_slow, 4).find("slowdowns[1]"),
            std::string::npos);

  FaultPlan unknown_domain;
  unknown_domain.domains.push_back({"rack0", {0, 1}});
  unknown_domain.bursts.push_back({"rack9", 1.0});
  EXPECT_NE(validation_error(unknown_domain, 4).find("bursts[0]"),
            std::string::npos);
  EXPECT_NE(validation_error(unknown_domain, 4).find("rack9"),
            std::string::npos);

  FaultPlan dup_domain;
  dup_domain.domains.push_back({"rack0", {0}});
  dup_domain.domains.push_back({"rack0", {1}});
  EXPECT_NE(validation_error(dup_domain, 4).find("domains[1]"),
            std::string::npos);

  FaultPlan out_of_range_member;
  out_of_range_member.domains.push_back({"rack0", {0, 7}});
  EXPECT_NE(validation_error(out_of_range_member, 4).find("domains[0]"),
            std::string::npos);

  FaultPlan bad_ckpt;
  bad_ckpt.checkpoint.interval = -1.0;
  EXPECT_NE(validation_error(bad_ckpt, 4).find("checkpoint interval"),
            std::string::npos);

  // The simulator and the repair path both validate at the point of use.
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  FaultPlan bad = FaultPlan::single_failure(0, -1.0);
  EXPECT_THROW((void)simulate(g, s, with_faults(bad)), Error);
}

// --- Failure domains and correlated bursts -----------------------------------

TEST(FaultPlan, BurstsResolveDeterministicallyWithinTheWindow) {
  FaultPlan plan;
  plan.seed = 11;
  plan.domains.push_back({"rack0", {0, 1, 2}});
  plan.domains.push_back({"rack1", {3, 4}});
  plan.bursts.push_back({"rack0", 10.0, 2.0});
  plan.validate(5);

  ResolvedFaults a = resolve_faults(plan);
  ResolvedFaults b = resolve_faults(plan);
  ASSERT_EQ(a.failures.size(), 3u);  // probability defaults to 1
  EXPECT_TRUE(a.slowdowns.empty());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].proc, b.failures[i].proc);
    EXPECT_DOUBLE_EQ(a.failures[i].time, b.failures[i].time);
    EXPECT_GE(a.failures[i].time, 10.0);
    EXPECT_LE(a.failures[i].time, 12.0);
  }
  // rack1 was not hit.
  for (const ProcFailure& f : a.failures) EXPECT_LT(f.proc, 3u);

  // A different seed moves at least one strike instant.
  FaultPlan other = plan;
  other.seed = 12;
  ResolvedFaults c = resolve_faults(other);
  ASSERT_EQ(c.failures.size(), 3u);
  bool differs = false;
  for (std::size_t i = 0; i < 3; ++i)
    differs = differs || a.failures[i].time != c.failures[i].time;
  EXPECT_TRUE(differs);

  // Zero window: the whole domain dies at exactly the trigger instant.
  FaultPlan sharp = plan;
  sharp.bursts[0].window = 0.0;
  for (const ProcFailure& f : resolve_faults(sharp).failures)
    EXPECT_DOUBLE_EQ(f.time, 10.0);
}

TEST(FaultPlan, SlowdownBurstsThrottleInsteadOfKilling) {
  FaultPlan plan;
  plan.domains.push_back({"rack0", {0, 1}});
  plan.bursts.push_back({"rack0", 5.0, 0.0, 1.0, 0.25});
  plan.validate(4);
  ResolvedFaults r = resolve_faults(plan);
  EXPECT_TRUE(r.failures.empty());
  ASSERT_EQ(r.slowdowns.size(), 2u);
  for (const SlowdownFault& s : r.slowdowns) {
    EXPECT_DOUBLE_EQ(s.time, 5.0);
    EXPECT_DOUBLE_EQ(s.factor, 0.25);
  }
  std::vector<double> speeds = final_speeds(r, 4);
  EXPECT_DOUBLE_EQ(speeds[0], 0.25);
  EXPECT_DOUBLE_EQ(speeds[2], 1.0);
}

TEST(FaultPlan, CascadesSpreadToOtherDomainsAfterTheWindow) {
  FaultPlan plan;
  plan.seed = 3;
  plan.domains.push_back({"rack0", {0, 1}});
  plan.domains.push_back({"rack1", {2, 3}});
  plan.bursts.push_back({"rack0", 10.0, 2.0, 1.0, 0.0, 1.0, 3.0});
  plan.validate(4);
  ResolvedFaults r = resolve_faults(plan);
  ASSERT_EQ(r.failures.size(), 4u);  // both domains fully dead
  for (const ProcFailure& f : r.failures) {
    if (f.proc <= 1) {
      EXPECT_GE(f.time, 10.0);
      EXPECT_LE(f.time, 12.0);
    } else {
      // Secondary burst triggers at time + window + cascade_delay = 15.
      EXPECT_GE(f.time, 15.0);
      EXPECT_LE(f.time, 17.0);
    }
  }
  // Cascading is one level deep: resolving twice is identical (no runaway).
  ResolvedFaults again = resolve_faults(plan);
  ASSERT_EQ(again.failures.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(r.failures[i].time, again.failures[i].time);
}

TEST(FaultPlan, CheckpointCountHelper) {
  CheckpointPolicy off;
  EXPECT_EQ(checkpoint_count(off, 100.0), 0u);
  CheckpointPolicy ckpt{0.5, 0.0};
  EXPECT_EQ(checkpoint_count(ckpt, 2.0), 3u);   // marks at 0.5, 1.0, 1.5
  EXPECT_EQ(checkpoint_count(ckpt, 0.5), 0u);   // no mark strictly below work
  EXPECT_EQ(checkpoint_count(ckpt, 0.75), 1u);  // mark at 0.5
}

// --- Slowdown faults in the simulator ----------------------------------------

TEST(FaultSim, SlowdownsStretchRemainingWorkMultiplicatively) {
  TaskGraphBuilder b;
  b.add_task(4.0);
  TaskGraph g = std::move(b).build();
  Schedule s(1, 1);
  s.assign(0, 0, 0.0, 4.0);

  // Speed halves at t=2 and halves again at t=4: 2 units at speed 1, then
  // 1 unit over [2,4) at speed 0.5, then the last unit at 0.25 -> t=8.
  FaultPlan plan;
  plan.slowdowns.push_back({0, 2.0, 0.5});
  plan.slowdowns.push_back({0, 4.0, 0.5});
  SimResult r = simulate(g, s, with_faults(plan));
  ASSERT_TRUE(r.complete());
  EXPECT_DOUBLE_EQ(r.finish[0], 8.0);
  EXPECT_DOUBLE_EQ(r.work_lost, 0.0);  // nothing died
}

TEST(FaultSim, SlowdownOutcomeIsIdenticalAcrossNetworkModels) {
  TaskGraph g = test::fuzz_graph(3);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  FaultPlan plan;
  plan.seed = 21;
  plan.domains.push_back({"left", {0, 1}});
  plan.bursts.push_back({"left", 0.2 * s.makespan(), 0.1 * s.makespan(), 1.0,
                         0.5});
  // The resolved fault set is a pure function of the plan — identical under
  // every network model; only message timing differs between models.
  SimOptions clique = with_faults(plan);
  SimOptions port = with_faults(plan);
  port.network = SimNetwork::kSinglePortSendRecv;
  SimResult a = simulate(g, s, clique);
  SimResult a2 = simulate(g, s, clique);
  SimResult p = simulate(g, s, port);
  ASSERT_TRUE(a.complete());  // slowdowns never kill
  ASSERT_TRUE(p.complete());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(a.finish[t], a2.finish[t]);  // bit-identical re-run
    // Contention can only delay, and the speed profile is the same.
    EXPECT_GE(p.finish[t], a.finish[t] - 1e-9);
  }
}

// --- Checkpointing -----------------------------------------------------------

TEST(FaultSim, CheckpointWritesPauseExecution) {
  TaskGraphBuilder b;
  b.add_task(2.0);
  TaskGraph g = std::move(b).build();
  Schedule s(1, 1);
  s.assign(0, 0, 0.0, 2.0);
  FaultPlan plan;
  plan.checkpoint = {0.5, 0.1};  // marks at 0.5, 1.0, 1.5 -> 3 writes
  SimResult r = simulate(g, s, with_faults(plan));
  ASSERT_TRUE(r.complete());
  EXPECT_DOUBLE_EQ(r.finish[0], 2.3);
  EXPECT_EQ(r.checkpoints_taken, 3u);
  EXPECT_DOUBLE_EQ(r.checkpoint_overhead, 0.3);
}

TEST(FaultSim, CheckpointLimitsWorkLostOnKill) {
  // The FailStopKillsRunningAndFutureTasks chain, now checkpointed: the
  // kill at t=3.4 catches task 1 at 1.4 units of work, of which the mark
  // at 1.0 is durable.
  TaskGraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task(2.0);
  for (int i = 0; i < 3; ++i)
    b.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), 1.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 4);
  for (TaskId t = 0; t < 4; ++t)
    s.assign(t, 0, 2.0 * t, 2.0 * t + 2.0);

  FaultPlan plain = FaultPlan::single_failure(0, 3.4);
  FaultPlan ckpt = plain;
  ckpt.checkpoint = {0.5, 0.0};

  SimResult lossy = simulate(g, s, with_faults(plain));
  SimResult saved = simulate(g, s, with_faults(ckpt));
  EXPECT_DOUBLE_EQ(lossy.work_lost, 1.4);
  EXPECT_DOUBLE_EQ(saved.work_lost, 0.4);
  EXPECT_DOUBLE_EQ(saved.work_saved, 1.0);
  ASSERT_EQ(saved.checkpointed.size(), 4u);
  EXPECT_DOUBLE_EQ(saved.checkpointed[1], 1.0);
  ASSERT_EQ(saved.proc_work_lost.size(), 2u);
  EXPECT_DOUBLE_EQ(saved.proc_work_lost[0], 0.4);
  EXPECT_DOUBLE_EQ(saved.proc_work_lost[1], 0.0);
}

TEST(FaultSim, InterruptedCheckpointWriteIsNotDurable) {
  TaskGraphBuilder b;
  b.add_task(2.0);
  TaskGraph g = std::move(b).build();
  Schedule s(1, 1);
  s.assign(0, 0, 0.0, 2.0);
  // The write at the 1.0 mark spans [1.0, 1.5); the kill at 1.2 interrupts
  // it, so only the 0.5 mark (written over [0.5, 1.0), done by 1.0) holds.
  FaultPlan plan = FaultPlan::single_failure(0, 1.2);
  plan.checkpoint = {0.5, 0.5};
  SimResult r = simulate(g, s, with_faults(plan));
  EXPECT_FALSE(r.complete());
  EXPECT_DOUBLE_EQ(r.work_saved, 0.5);
}

// Criticality-aware placement: min_downstream gates which tasks checkpoint
// by their bottom level. On the 4-task chain (comp 2, comm 1) the bottom
// levels are 11, 8, 5, 2, and the kill at t=3.4 catches task 1 at 1.4
// units of work.
TEST(FaultSim, CriticalityThresholdGatesWhichTasksCheckpoint) {
  TaskGraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task(2.0);
  for (int i = 0; i < 3; ++i)
    b.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), 1.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 4);
  for (TaskId t = 0; t < 4; ++t)
    s.assign(t, 0, 2.0 * t, 2.0 * t + 2.0);

  CheckpointPolicy policy{0.5, 0.0, 6.0};
  EXPECT_TRUE(policy.covers(8.0));
  EXPECT_FALSE(policy.covers(5.0));

  auto run_with_threshold = [&](Cost min_downstream) {
    FaultPlan plan = FaultPlan::single_failure(0, 3.4);
    plan.checkpoint = {0.5, 0.0, min_downstream};
    return simulate(g, s, with_faults(plan));
  };

  // Uniform (threshold 0): tasks 0 and 1 write 3 + 2 marks before the
  // kill; the mark at 1.0 into task 1 is durable.
  SimResult uniform = run_with_threshold(0.0);
  EXPECT_EQ(uniform.checkpoints_taken, 5u);
  EXPECT_DOUBLE_EQ(uniform.work_saved, 1.0);
  EXPECT_DOUBLE_EQ(uniform.work_lost, 0.4);

  // Threshold 6 covers tasks 0 (BL 11) and 1 (BL 8) — the same protection
  // at the same write count, since tasks 2 and 3 never ran.
  SimResult selective = run_with_threshold(6.0);
  EXPECT_EQ(selective.checkpoints_taken, 5u);
  EXPECT_DOUBLE_EQ(selective.work_saved, 1.0);
  EXPECT_DOUBLE_EQ(selective.work_lost, 0.4);

  // Threshold 9 covers only task 0, which finishes — its writes protect
  // nothing, and the killed task 1 restarts from zero.
  SimResult head_only = run_with_threshold(9.0);
  EXPECT_EQ(head_only.checkpoints_taken, 3u);
  EXPECT_DOUBLE_EQ(head_only.work_saved, 0.0);
  EXPECT_DOUBLE_EQ(head_only.work_lost, 1.4);

  // An unreachable threshold disables checkpointing outright.
  SimResult none = run_with_threshold(100.0);
  EXPECT_EQ(none.checkpoints_taken, 0u);
  EXPECT_DOUBLE_EQ(none.work_lost, 1.4);
}

// Repair honors the same gate: a covered kill victim resumes from its
// durable mark, an uncovered one re-executes in full — and both
// continuations stay feasible against their duration vectors.
TEST(Repair, CriticalityCheckpointResumesOnlyCoveredTasks) {
  TaskGraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task(2.0);
  for (int i = 0; i < 3; ++i)
    b.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), 1.0);
  TaskGraph g = std::move(b).build();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);

  for (Cost threshold : {6.0, 9.0}) {
    FaultPlan plan = FaultPlan::single_failure(0, 3.4);
    plan.checkpoint = {0.5, 0.0, threshold};
    SimResult partial = simulate(g, nominal, with_faults(plan));
    RepairResult repair = repair_schedule(g, nominal, partial, plan);
    EXPECT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations))
        << "threshold " << threshold;
    if (threshold <= 8.0)
      EXPECT_GT(repair.checkpoint_work_saved, 0.0);
    else
      EXPECT_DOUBLE_EQ(repair.checkpoint_work_saved, 0.0);
  }
}

// With zero write overhead the execution timeline is identical across
// checkpoint intervals, and halving the interval can only move each task's
// last durable mark closer to its kill point: work lost is non-increasing
// along the dyadic interval sequence, and any checkpointing beats none.
// (Neither claim holds for arbitrary interval pairs or positive overhead —
// see docs/fault_model.md.)
TEST(FaultSim, WorkLostIsMonotoneAlongDyadicIntervals) {
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, 4);
    FaultPlan base = FaultPlan::single_failure(1, 0.35 * s.makespan());
    Cost previous = simulate(g, s, with_faults(base)).work_lost;
    const Cost no_ckpt = previous;
    for (Cost interval : {8.0, 4.0, 2.0, 1.0, 0.5}) {
      FaultPlan plan = base;
      plan.checkpoint = {interval, 0.0};
      Cost lost = simulate(g, s, with_faults(plan)).work_lost;
      EXPECT_LE(lost, previous + 1e-9) << g.name() << " @" << interval;
      EXPECT_LE(lost, no_ckpt + 1e-9) << g.name() << " @" << interval;
      previous = lost;
    }
  }
}

// --- Repair on a degraded machine --------------------------------------------

TEST(Repair, SlowdownOnlyEpisodeMovesQueuedWorkOffThrottledProc) {
  // Six unit tasks on two processors; FLB splits them 3/3 with starts
  // 0, 1, 2. Processor 0 is throttled to a tenth of its speed at t=0.5.
  TaskGraphBuilder b;
  for (int i = 0; i < 6; ++i) b.add_task(1.0);
  TaskGraph g = std::move(b).build();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);

  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.5, 0.1});
  SimResult partial = simulate(g, nominal, with_faults(plan));
  ASSERT_TRUE(partial.complete());  // nothing dies, the run just limps
  EXPECT_GT(partial.makespan, nominal.makespan());

  // Repair at the slowdown onset: tasks not yet started by then are fair
  // game; with proc 0 ten times slower, the resumed FLB drains all of them
  // to proc 1.
  RepairOptions options;
  options.horizon = 0.5;
  RepairResult repair = repair_schedule(g, nominal, partial, plan, options);
  EXPECT_EQ(repair.degraded_procs, 1u);
  EXPECT_EQ(repair.survivors, 2u);
  EXPECT_GT(repair.migrated_tasks, 0u);
  ASSERT_TRUE(repair.schedule.complete());
  ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations));
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (partial.start[t] == kUndefinedTime || partial.start[t] >= 0.5)
      EXPECT_EQ(repair.schedule.proc(t), 1u) << t;
  // Re-balancing beats riding out the slowdown.
  EXPECT_LT(repair.schedule.makespan(), partial.makespan);

  // The continuation replays to completion with its expected durations.
  SimOptions replay_opts;
  replay_opts.work_override = &repair.durations;
  SimResult replay = simulate(g, repair.schedule, replay_opts);
  EXPECT_TRUE(replay.complete());
}

TEST(Repair, ReexecutesProducersOfDroppedMessages) {
  TaskGraphBuilder b;
  b.add_task(1.0);
  b.add_task(1.0);
  b.add_edge(0, 1, 4.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 2);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 5.0, 6.0);

  FaultPlan lossy;
  lossy.message.loss_probability = 1.0;
  lossy.message.max_retries = 1;
  SimResult partial = simulate(g, s, with_faults(lossy));
  ASSERT_EQ(partial.dropped_messages, 1u);
  ASSERT_EQ(partial.dropped_edges.size(), 1u);
  EXPECT_EQ(partial.dropped_edges[0].first, 0u);
  EXPECT_EQ(partial.dropped_edges[0].second, 1u);

  // Default policy still refuses (PR 1 behavior)...
  EXPECT_THROW((void)repair_schedule(g, s, partial, lossy), Error);

  // ...but re-execution rolls back the producer and its successors.
  RepairOptions options;
  options.dropped_data = DroppedDataPolicy::kReexecuteProducers;
  RepairResult repair = repair_schedule(g, s, partial, lossy, options);
  EXPECT_EQ(repair.reexecuted_tasks, 1u);  // task 0 had finished
  EXPECT_EQ(repair.migrated_tasks, 2u);    // both re-planned
  EXPECT_GE(repair.release_time, 1.0);     // not before the loss was seen
  ASSERT_TRUE(repair.schedule.complete());
  ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations));
  EXPECT_GE(repair.schedule.start(0), 1.0 - 1e-9);

  // Replaying the continuation with losses disabled runs to completion.
  SimOptions replay_opts;
  replay_opts.work_override = &repair.durations;
  SimResult replay = simulate(g, repair.schedule, replay_opts);
  EXPECT_TRUE(replay.complete());
}

TEST(Repair, MidRunKillRepairsUnderSinglePortContention) {
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule nominal = flb.run(g, 4);
    FaultPlan plan = FaultPlan::single_failure(1, 0.4 * nominal.makespan());
    for (SimNetwork net :
         {SimNetwork::kSinglePortSend, SimNetwork::kSinglePortSendRecv}) {
      SimOptions opts = with_faults(plan);
      opts.network = net;
      SimResult partial = simulate(g, nominal, opts);
      RepairResult repair = repair_schedule(g, nominal, partial, plan);
      ASSERT_TRUE(repair.schedule.complete()) << g.name();
      ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations))
          << g.name() << "\n"
          << test::violations_to_string(g, repair.schedule);

      // The continuation replays to completion under the same contention
      // model, carrying the observed/expected wall durations.
      SimOptions replay_opts;
      replay_opts.network = net;
      replay_opts.work_override = &repair.durations;
      SimResult replay = simulate(g, repair.schedule, replay_opts);
      EXPECT_TRUE(replay.complete()) << g.name();

      // The contended partial run itself is deterministic.
      SimResult partial2 = simulate(g, nominal, opts);
      for (TaskId t = 0; t < g.num_tasks(); ++t)
        ASSERT_DOUBLE_EQ(partial.finish[t], partial2.finish[t]) << g.name();
    }
  }
}

// The ISSUE's acceptance episode: a correlated burst kills one rack, a
// survivor is throttled, checkpointing is on. For every registered
// scheduler the repaired schedule validates (duration-aware), replays to
// completion under both the clique and the single-port model, is
// bit-identical across re-runs, and loses strictly less work than the same
// episode without checkpoints.
TEST(Repair, AcceptanceBurstSlowdownCheckpointEverySchedulerEpisode) {
  for (std::size_t i = 0; i < 4; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (const std::string& name : extended_scheduler_names()) {
      Schedule nominal = make_scheduler(name, 1)->run(g, 4);
      const Cost span = nominal.makespan();

      FaultPlan plan;
      plan.seed = 17;
      plan.domains.push_back({"rack0", {0, 1}});
      plan.domains.push_back({"rack1", {2, 3}});
      plan.bursts.push_back({"rack0", 0.3 * span, 0.1 * span});
      plan.slowdowns.push_back({2, 0.2 * span, 0.5});
      plan.checkpoint = {0.25 * span, 0.0};

      SimResult partial = simulate(g, nominal, with_faults(plan));
      RepairResult repair = repair_schedule(g, nominal, partial, plan);
      ASSERT_TRUE(repair.schedule.complete()) << name;
      ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations))
          << name << " on " << g.name() << "\n"
          << test::violations_to_string(g, repair.schedule);
      EXPECT_EQ(repair.survivors, 2u) << name;
      EXPECT_EQ(repair.degraded_procs, 1u) << name;

      // Migrated work lands on the surviving rack only.
      for (TaskId t = 0; t < g.num_tasks(); ++t)
        if (partial.finish[t] == kUndefinedTime)
          EXPECT_GE(repair.schedule.proc(t), 2u) << name;

      // Replays to completion under both network models.
      for (SimNetwork net :
           {SimNetwork::kContentionFree, SimNetwork::kSinglePortSendRecv}) {
        SimOptions replay_opts;
        replay_opts.network = net;
        replay_opts.work_override = &repair.durations;
        SimResult replay = simulate(g, repair.schedule, replay_opts);
        EXPECT_TRUE(replay.complete()) << name;
      }

      // Bit-identical across re-runs of the whole episode.
      SimResult partial2 = simulate(g, nominal, with_faults(plan));
      RepairResult repair2 = repair_schedule(g, nominal, partial2, plan);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        ASSERT_EQ(repair.schedule.proc(t), repair2.schedule.proc(t)) << name;
        ASSERT_DOUBLE_EQ(repair.schedule.start(t), repair2.schedule.start(t))
            << name;
      }

      // Checkpoints can only reduce the work the burst destroys.
      FaultPlan no_ckpt = plan;
      no_ckpt.checkpoint = {};
      SimResult baseline = simulate(g, nominal, with_faults(no_ckpt));
      EXPECT_LE(partial.work_lost, baseline.work_lost + 1e-9) << name;
      if (partial.work_saved > 0.0)
        EXPECT_LT(partial.work_lost, baseline.work_lost) << name;
    }
  }
}

// --- Robustness metrics ------------------------------------------------------

TEST(Metrics, RobustnessSummary) {
  TaskGraph g = test::fuzz_graph(2);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  FaultPlan plan = FaultPlan::single_failure(0, 0.3 * nominal.makespan());
  SimResult partial = simulate(g, nominal, with_faults(plan));
  RepairResult repair = repair_schedule(g, nominal, partial, plan);

  RobustnessMetrics m = robustness_metrics(nominal, partial, repair);
  EXPECT_DOUBLE_EQ(m.nominal_makespan, nominal.makespan());
  EXPECT_DOUBLE_EQ(m.repaired_makespan, repair.schedule.makespan());
  EXPECT_NEAR(m.degradation_ratio,
              m.repaired_makespan / m.nominal_makespan, 1e-12);
  EXPECT_GE(m.degradation_ratio, 0.0);
  EXPECT_EQ(m.migrated_tasks, repair.migrated_tasks);
  EXPECT_GE(m.repair_millis, 0.0);
}

TEST(Metrics, PerDomainImpactAndCheckpointAccounting) {
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  const Cost span = nominal.makespan();

  FaultPlan plan;
  plan.seed = 9;
  plan.domains.push_back({"rack0", {0, 1}});
  plan.domains.push_back({"rack1", {2, 3}});
  plan.bursts.push_back({"rack0", 0.3 * span, 0.05 * span});
  plan.slowdowns.push_back({3, 0.1 * span, 0.5});
  plan.checkpoint = {0.2 * span, 0.0};

  SimResult partial = simulate(g, nominal, with_faults(plan));
  RepairResult repair = repair_schedule(g, nominal, partial, plan);
  RobustnessMetrics m = robustness_metrics(nominal, partial, repair, plan);

  EXPECT_DOUBLE_EQ(m.work_saved, partial.work_saved);
  EXPECT_DOUBLE_EQ(m.checkpoint_overhead, partial.checkpoint_overhead);
  EXPECT_EQ(m.degraded_procs, 1u);
  ASSERT_EQ(m.domains.size(), 2u);
  EXPECT_EQ(m.domains[0].name, "rack0");
  EXPECT_EQ(m.domains[0].members, 2u);
  EXPECT_EQ(m.domains[0].killed, 2u);
  EXPECT_EQ(m.domains[0].throttled, 0u);
  EXPECT_EQ(m.domains[1].killed, 0u);
  EXPECT_EQ(m.domains[1].throttled, 1u);
  EXPECT_DOUBLE_EQ(m.domains[1].work_lost, 0.0);
  EXPECT_DOUBLE_EQ(m.domains[0].work_lost, partial.work_lost);
}

}  // namespace
}  // namespace flb
