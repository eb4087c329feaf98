#include "flb/core/flb.hpp"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "flb/graph/properties.hpp"
#include "flb/graph/width.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

TEST(Flb, PaperExampleScheduleMatchesTable1) {
  TaskGraph g = paper_example_graph();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  ASSERT_TRUE(is_valid_schedule(g, s)) << test::violations_to_string(g, s);

  // The exact placements of Table 1.
  auto expect = [&](TaskId t, ProcId p, Cost st, Cost ft) {
    EXPECT_EQ(s.proc(t), p) << "t" << t;
    EXPECT_DOUBLE_EQ(s.start(t), st) << "t" << t;
    EXPECT_DOUBLE_EQ(s.finish(t), ft) << "t" << t;
  };
  expect(0, 0, 0, 2);
  expect(3, 0, 2, 5);
  expect(1, 1, 3, 5);
  expect(2, 0, 5, 7);
  expect(4, 1, 5, 8);
  expect(5, 0, 7, 10);
  expect(6, 1, 8, 10);
  expect(7, 0, 12, 14);
  EXPECT_DOUBLE_EQ(s.makespan(), 14.0);
}

TEST(Flb, SingleProcessorPacksSequentially) {
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, 1);
    EXPECT_TRUE(is_valid_schedule(g, s));
    // One processor, always a ready task: no idle gaps.
    EXPECT_NEAR(s.makespan(), g.total_comp(), 1e-9) << g.name();
  }
}

TEST(Flb, EmptyGraph) {
  TaskGraphBuilder b;
  TaskGraph g = std::move(b).build();
  FlbScheduler flb;
  Schedule s = flb.run(g, 4);
  EXPECT_TRUE(s.complete());
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST(Flb, SingleTask) {
  TaskGraphBuilder b;
  b.add_task(5.0);
  TaskGraph g = std::move(b).build();
  FlbScheduler flb;
  Schedule s = flb.run(g, 4);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  EXPECT_DOUBLE_EQ(s.start(0), 0.0);
}

TEST(Flb, IndependentTasksLoadBalance) {
  WorkloadParams p;
  p.random_weights = false;
  TaskGraph g = independent_graph(8, p);
  FlbScheduler flb;
  Schedule s = flb.run(g, 4);
  EXPECT_TRUE(is_valid_schedule(g, s));
  // 8 unit tasks over 4 processors: perfect balance, makespan 2.
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
  for (ProcId q = 0; q < 4; ++q) EXPECT_EQ(s.tasks_on(q).size(), 2u);
}

TEST(Flb, ChainStaysOnOneProcessor) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 10.0;  // expensive communication: moving is never worth it
  TaskGraph g = chain_graph(10, p);
  FlbScheduler flb;
  Schedule s = flb.run(g, 4);
  EXPECT_TRUE(is_valid_schedule(g, s));
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
  for (TaskId t = 1; t < 10; ++t) EXPECT_EQ(s.proc(t), s.proc(0));
}

TEST(Flb, RejectsZeroProcessors) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  EXPECT_THROW((void)flb.run(g, 0), Error);
}

TEST(Flb, DeterministicAcrossRuns) {
  TaskGraph g = test::fuzz_graph(3);
  FlbScheduler flb;
  Schedule a = flb.run(g, 4);
  Schedule b = flb.run(g, 4);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.proc(t), b.proc(t));
    EXPECT_DOUBLE_EQ(a.start(t), b.start(t));
  }
}

// The core claim (Theorem 3): the pair FLB schedules at every iteration
// attains the minimum EST over ALL ready tasks and ALL processors.
TEST(Flb, Theorem3ChosenPairIsGlobalArgmin) {
  for (std::size_t i = 0; i < 24; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (ProcId procs : {2u, 3u, 7u}) {
      FlbObserver obs = [&](const Schedule& s, const FlbStep& step) {
        Cost best = kInfiniteTime;
        for (TaskId t : step.ready_tasks)
          best = std::min(best, best_proc_exhaustive(g, s, t).second);
        ASSERT_NEAR(step.est, best, 1e-9)
            << g.name() << " P=" << procs << ": FLB chose t" << step.task
            << "@p" << step.proc << " starting " << step.est
            << " but the global minimum start is " << best;
      };
      FlbScheduler flb;
      Schedule s = flb.run_instrumented(g, procs, &obs, nullptr);
      ASSERT_TRUE(is_valid_schedule(g, s));
    }
  }
}

// Theorem 3 at full paper scale: the configuration where our Fig. 4
// reproduction shows FLB's largest quality deviation from ETF (LU,
// CCR = 5, P = 16) still satisfies per-iteration optimality exactly —
// pinning the deviation on tie-breaking cascades, not on a selection bug.
TEST(Flb, Theorem3HoldsAtPaperScaleOnLu) {
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 1;
  TaskGraph g = make_workload("LU", 2000, params);
  const ProcId procs = 16;
  FlbObserver obs = [&](const Schedule& s, const FlbStep& step) {
    Cost best = kInfiniteTime;
    for (TaskId t : step.ready_tasks)
      best = std::min(best, best_proc_exhaustive(g, s, t).second);
    ASSERT_NEAR(step.est, best, 1e-9) << "task " << step.task;
  };
  FlbScheduler flb;
  Schedule s = flb.run_instrumented(g, procs, &obs, nullptr);
  ASSERT_TRUE(is_valid_schedule(g, s));
}

// On an EST tie between the EP and non-EP candidates the non-EP pair must
// win (paper Section 4.1). Verified on the paper example where iteration 7
// has exactly such a tie (t6 EP vs t5 non-EP, both start at 7).
TEST(Flb, TieBetweenPairsPrefersNonEp) {
  TaskGraph g = paper_example_graph();
  std::vector<FlbStep> steps;
  FlbObserver obs = [&](const Schedule&, const FlbStep& step) {
    steps.push_back(step);
  };
  FlbScheduler flb;
  (void)flb.run_instrumented(g, 2, &obs, nullptr);
  ASSERT_EQ(steps.size(), 8u);
  // Iteration 6 (0-based 5) schedules t5 as non-EP at time 7 although the
  // EP candidate t6 could also start at 7.
  EXPECT_EQ(steps[5].task, 5u);
  EXPECT_FALSE(steps[5].ep_type);
  EXPECT_DOUBLE_EQ(steps[5].est, 7.0);
}

// The observer's snapshot is the engine's exact ready set at every step:
// each ready task appears once, on its enabling processor's EP list when
// LMT >= PRT there and on the non-EP list otherwise, in list-key order. An
// EP task waits outside the EP heaps, on its enabling processor's unfiled
// list, for up to core::kMaxUnfiledFlushes of that processor's placements,
// so this pins that the snapshot still sees it. The Theorem-3 tests see a
// missing task only when it is the global argmin: leaving out any other
// task does not change their oracle's minimum.
void expect_exact_snapshots(const TaskGraph& g, ProcId procs) {
  const std::vector<Cost> bl = bottom_levels(g);
  std::size_t steps = 0;
  FlbObserver obs = [&](const Schedule& s, const FlbStep& step) {
    ++steps;
    std::vector<TaskId> ready;
    std::vector<std::vector<TaskId>> ep_lists(procs);
    std::vector<TaskId> non_ep;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (!is_ready(g, s, t)) continue;
      ready.push_back(t);
      const ProcId q = enabling_proc(g, s, t);
      if (q != kInvalidProc &&
          last_message_time(g, s, t) >= s.proc_ready_time(q)) {
        ep_lists[q].push_back(t);
      } else {
        non_ep.push_back(t);
      }
    }
    // The EP lists' EMT counts a local input at its finish time.
    auto emt_key = [&](TaskId t, ProcId q) {
      Cost emt = 0.0;
      for (const Adj& in : g.predecessors(t))
        emt = std::max(emt, s.finish(in.node) +
                                (s.proc(in.node) == q ? 0.0 : in.comm));
      return std::tuple(emt, -bl[t], t);
    };
    auto lmt_key = [&](TaskId t) {
      return std::tuple(last_message_time(g, s, t), -bl[t], t);
    };
    for (ProcId q = 0; q < procs; ++q)
      std::sort(ep_lists[q].begin(), ep_lists[q].end(),
                [&](TaskId a, TaskId b) {
                  return emt_key(a, q) < emt_key(b, q);
                });
    std::sort(non_ep.begin(), non_ep.end(),
              [&](TaskId a, TaskId b) { return lmt_key(a) < lmt_key(b); });
    ASSERT_EQ(step.ready_tasks, ready)
        << g.name() << " P=" << procs << " step " << steps;
    ASSERT_EQ(step.ep_lists, ep_lists)
        << g.name() << " P=" << procs << " step " << steps;
    ASSERT_EQ(step.non_ep_list, non_ep)
        << g.name() << " P=" << procs << " step " << steps;
  };
  FlbScheduler flb;
  Schedule s = flb.run_instrumented(g, procs, &obs, nullptr);
  ASSERT_TRUE(is_valid_schedule(g, s));
  EXPECT_EQ(steps, g.num_tasks());
}

// Cholesky at V~300, CCR 10 on two processors keeps EP tasks on their
// unfiled lists long enough that some are filed into the EP heaps.
TaskGraph long_stay_graph() {
  WorkloadParams params;
  params.ccr = 10.0;
  params.seed = 1;
  return make_workload("Cholesky", 300, params);
}

TEST(Flb, StepSnapshotIsTheExactReadySet) {
  for (std::size_t i = 0; i < 24; ++i)
    for (ProcId procs : {2u, 3u, 7u})
      expect_exact_snapshots(test::fuzz_graph(i), procs);
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 1;
  expect_exact_snapshots(make_workload("LU", 2000, params), 16);
  // The families whose unfiled lists survive the most flushes, and the
  // input that runs the filing fallback.
  expect_exact_snapshots(make_workload("Laplace", 2000, params), 8);
  expect_exact_snapshots(make_workload("Stencil", 2000, params), 8);
  expect_exact_snapshots(long_stay_graph(), 2);
}

FlbStats stats_of(const TaskGraph& g, ProcId procs) {
  FlbStats stats;
  Schedule s = FlbScheduler().run_instrumented(g, procs, nullptr, &stats);
  EXPECT_TRUE(is_valid_schedule(g, s));
  return stats;
}

// Each unfiled-list member leaves at its kMaxUnfiledFlushes-th visit at
// the latest, and a task is filed at most once.
void expect_bounded_list_work(const FlbStats& stats) {
  EXPECT_LE(stats.unfiled_visits,
            std::size_t{core::kMaxUnfiledFlushes} * stats.tasks_classified_ep);
  EXPECT_LE(stats.ep_filed, stats.tasks_classified_ep);
}

TEST(Flb, StatsAreConsistent) {
  TaskGraph g = make_workload("LU", 300, {});
  FlbScheduler flb;
  FlbStats stats;
  Schedule s = flb.run_instrumented(g, 4, nullptr, &stats);
  EXPECT_TRUE(is_valid_schedule(g, s));
  EXPECT_EQ(stats.iterations, g.num_tasks());
  EXPECT_EQ(stats.ep_selections + stats.non_ep_selections, g.num_tasks());
  EXPECT_GE(stats.max_ready, 1u);
  // Every demoted task was first classified EP.
  EXPECT_LE(stats.ep_demotions, stats.tasks_classified_ep);
  expect_bounded_list_work(stats);

  // The heap-operation and list-visit counts are exact: they repeat, and
  // resuming an empty prefix on the paper's machine runs the same steps.
  FlbStats again;
  (void)flb.run_instrumented(g, 4, nullptr, &again);
  EXPECT_EQ(again.heap_ops, stats.heap_ops);
  EXPECT_EQ(again.unfiled_visits, stats.unfiled_visits);
  platform::CostModel clique = platform::CostModel::clique(4);
  FlbStats resumed;
  (void)flb.resume(g, Schedule(4, g.num_tasks()), clique, &resumed);
  EXPECT_EQ(resumed.heap_ops, stats.heap_ops);
  EXPECT_EQ(resumed.ep_demotions, stats.ep_demotions);
  EXPECT_EQ(resumed.ep_filed, stats.ep_filed);
  EXPECT_EQ(resumed.unfiled_visits, stats.unfiled_visits);

  // Pinned per-step heap traffic: a change to it shows up here.
  const FlbStats paper = stats_of(paper_example_graph(), 2);
  EXPECT_EQ(paper.heap_ops, 27u);
  expect_bounded_list_work(paper);
  WorkloadParams params;
  params.ccr = 0.2;
  params.seed = 1;
  const FlbStats lu = stats_of(make_workload("LU", 2000, params), 8);
  EXPECT_EQ(lu.heap_ops, 6431u);
  expect_bounded_list_work(lu);

  // A member that survives kMaxUnfiledFlushes flushes is filed.
  const FlbStats long_stay = stats_of(long_stay_graph(), 2);
  EXPECT_GT(long_stay.ep_filed, 0u);
  expect_bounded_list_work(long_stay);
}

TEST(Flb, MaxReadyNeverExceedsWidth) {
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    FlbStats stats;
    (void)flb.run_instrumented(g, 3, nullptr, &stats);
    EXPECT_LE(stats.max_ready, exact_width(g))
        << g.name() << ": the ready set is an antichain, so its size is "
        << "bounded by the graph width (paper Section 2)";
  }
}

TEST(Flb, MakespanRespectsLowerBounds) {
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (ProcId procs : {1u, 2u, 4u, 16u}) {
      FlbScheduler flb;
      Schedule s = flb.run(g, procs);
      EXPECT_GE(s.makespan(), makespan_lower_bound(g, procs) - 1e-9);
      EXPECT_LE(speedup(g, s), static_cast<Cost>(procs) + 1e-9);
    }
  }
}

// Tie-break ablation options: all remain valid and deterministic; the
// bottom-level rule is the paper's default.
TEST(Flb, TieBreakVariantsAreValid) {
  TaskGraph g = make_workload("Stencil", 300, {});
  for (FlbTieBreak tb : {FlbTieBreak::kBottomLevel, FlbTieBreak::kTaskId,
                         FlbTieBreak::kRandom}) {
    FlbOptions options;
    options.tie_break = tb;
    options.seed = 7;
    FlbScheduler flb(options);
    Schedule a = flb.run(g, 4);
    EXPECT_TRUE(is_valid_schedule(g, a));
    Schedule b = FlbScheduler(options).run(g, 4);
    EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  }
}

TEST(Flb, RandomTieBreakSeedsDiffer) {
  // A graph with massive tie potential: unit weights, many equal ESTs.
  WorkloadParams p;
  p.random_weights = false;
  TaskGraph g = fork_join_graph(3, 16, p);
  FlbOptions o1, o2;
  o1.tie_break = o2.tie_break = FlbTieBreak::kRandom;
  o1.seed = 1;
  o2.seed = 2;
  Schedule s1 = FlbScheduler(o1).run(g, 4);
  Schedule s2 = FlbScheduler(o2).run(g, 4);
  EXPECT_TRUE(is_valid_schedule(g, s1));
  EXPECT_TRUE(is_valid_schedule(g, s2));
  bool any_difference = false;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (s1.proc(t) != s2.proc(t)) any_difference = true;
  EXPECT_TRUE(any_difference);
}

// Theorem 3 across every workload family: the per-iteration exhaustive
// oracle on structured graphs (the fuzz corpus above is unstructured).
class Theorem3WorkloadSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(Theorem3WorkloadSweep, ChosenPairIsGlobalArgmin) {
  auto [name, procs] = GetParam();
  WorkloadParams params;
  params.ccr = 5.0;  // communication-heavy: richest EP/non-EP dynamics
  params.seed = 77;
  TaskGraph g = make_workload(name, 300, params);
  FlbObserver obs = [&](const Schedule& s, const FlbStep& step) {
    Cost best = kInfiniteTime;
    for (TaskId t : step.ready_tasks)
      best = std::min(best, best_proc_exhaustive(g, s, t).second);
    ASSERT_NEAR(step.est, best, 1e-9)
        << name << " P=" << procs << " task " << step.task;
  };
  FlbScheduler flb;
  Schedule s =
      flb.run_instrumented(g, static_cast<ProcId>(procs), &obs, nullptr);
  ASSERT_TRUE(is_valid_schedule(g, s));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Theorem3WorkloadSweep,
    ::testing::Combine(::testing::ValuesIn(workload_names()),
                       ::testing::Values(2, 8, 32)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_P" +
             std::to_string(std::get<1>(info.param));
    });

// Parameterized validity sweep: every workload family x P x CCR.
class FlbSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, double>> {};

TEST_P(FlbSweep, ProducesValidSchedulesWithSaneMakespan) {
  auto [name, procs, ccr] = GetParam();
  WorkloadParams params;
  params.ccr = ccr;
  params.seed = 42;
  TaskGraph g = make_workload(name, 400, params);
  FlbScheduler flb;
  Schedule s = flb.run(g, static_cast<ProcId>(procs));
  ASSERT_TRUE(is_valid_schedule(g, s)) << test::violations_to_string(g, s);
  EXPECT_GE(s.makespan(),
            makespan_lower_bound(g, static_cast<ProcId>(procs)) - 1e-9);
  // A one-step list scheduler never idles everyone: makespan is bounded by
  // the fully sequential execution plus all communication.
  EXPECT_LE(s.makespan(), g.total_comp() + g.total_comm() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FlbSweep,
    ::testing::Combine(::testing::ValuesIn(workload_names()),
                       ::testing::Values(1, 2, 8, 32),
                       ::testing::Values(0.2, 5.0)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_P" +
             std::to_string(std::get<1>(info.param)) + "_CCR" +
             (std::get<2>(info.param) < 1 ? "02" : "50");
    });

}  // namespace
}  // namespace flb
