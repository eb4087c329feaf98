// Tests for the additional baselines: HLFET, ISH (HLFET with insertion),
// DLS and insertion-based MCP.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "flb/algos/dls.hpp"
#include "flb/algos/hlfet.hpp"
#include "flb/algos/mcp.hpp"
#include "flb/graph/properties.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// --- HLFET -----------------------------------------------------------------

TEST(Hlfet, ValidOnWorkloadsAndFuzz) {
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 3;
    TaskGraph g = make_workload(name, 250, params);
    HlfetScheduler hlfet;
    Schedule s = hlfet.run(g, 4);
    ASSERT_TRUE(is_valid_schedule(g, s))
        << name << ": " << test::violations_to_string(g, s);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    HlfetScheduler hlfet;
    ASSERT_TRUE(is_valid_schedule(g, hlfet.run(g, 3))) << g.name();
  }
}

TEST(Hlfet, ConsumesTasksInStaticLevelOrder) {
  TaskGraph g = test::fuzz_graph(3);
  HlfetScheduler hlfet;
  Schedule s = hlfet.run(g, 3);
  // Replay: at every step the next task (in global start order, restricted
  // to ready ones) must have the maximum static level among ready tasks.
  auto sl = computation_bottom_levels(g);
  Schedule replay(3, g.num_tasks());
  std::vector<bool> done(g.num_tasks(), false);
  for (TaskId step = 0; step < g.num_tasks(); ++step) {
    TaskId pick = kInvalidTask;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (done[t] || !is_ready(g, replay, t)) continue;
      if (pick == kInvalidTask || sl[t] > sl[pick] ||
          (sl[t] == sl[pick] && t < pick))
        pick = t;
    }
    ASSERT_NE(pick, kInvalidTask);
    // HLFET places the picked task at its exhaustive-minimum EST.
    Cost best = best_proc_exhaustive(g, replay, pick).second;
    ASSERT_NEAR(s.start(pick), best, 1e-9);
    replay.assign(pick, s.proc(pick), s.start(pick), s.finish(pick));
    done[pick] = true;
  }
}

TEST(Hlfet, SingleProcPacksSequentially) {
  TaskGraph g = test::fuzz_graph(9);
  HlfetScheduler hlfet;
  EXPECT_NEAR(hlfet.run(g, 1).makespan(), g.total_comp(), 1e-9);
}

// --- DLS -------------------------------------------------------------------

TEST(Dls, ValidOnWorkloadsAndFuzz) {
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 5;
    TaskGraph g = make_workload(name, 250, params);
    DlsScheduler dls;
    Schedule s = dls.run(g, 4);
    ASSERT_TRUE(is_valid_schedule(g, s))
        << name << ": " << test::violations_to_string(g, s);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    DlsScheduler dls;
    ASSERT_TRUE(is_valid_schedule(g, dls.run(g, 3))) << g.name();
  }
}

// Reference DLS recomputing everything with the shared tentative helpers;
// the production scheduler must match it decision for decision.
Schedule reference_dls(const TaskGraph& g, ProcId procs) {
  Schedule s(procs, g.num_tasks());
  auto sl = computation_bottom_levels(g);
  while (!s.complete()) {
    TaskId best_t = kInvalidTask;
    ProcId best_p = 0;
    Cost best_dl = -kInfiniteTime, best_est = 0.0;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (!is_ready(g, s, t)) continue;
      for (ProcId p = 0; p < procs; ++p) {
        Cost est = est_start(g, s, t, p);
        Cost dl = sl[t] - est;
        bool better = dl > best_dl;
        if (!better && dl == best_dl && best_t != kInvalidTask)
          better = t < best_t || (t == best_t && p < best_p);
        if (better) {
          best_dl = dl;
          best_est = est;
          best_t = t;
          best_p = p;
        }
      }
    }
    s.assign(best_t, best_p, best_est, best_est + g.comp(best_t));
  }
  return s;
}

TEST(Dls, MatchesNaiveReference) {
  for (std::size_t i = 0; i < 14; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    DlsScheduler dls;
    Schedule fast = dls.run(g, 3);
    Schedule ref = reference_dls(g, 3);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      ASSERT_EQ(fast.proc(t), ref.proc(t)) << g.name() << " task " << t;
      ASSERT_DOUBLE_EQ(fast.start(t), ref.start(t))
          << g.name() << " task " << t;
    }
  }
}

TEST(Dls, PrefersCriticalTaskOverEarliestStart) {
  // Two ready tasks: a trivial one that could start now and a critical one
  // whose message arrives slightly later. ETF takes the trivial one; DLS
  // weighs levels and takes the critical one.
  TaskGraphBuilder b;
  TaskId src = b.add_task(1.0);
  TaskId critical = b.add_task(10.0);  // huge static level
  TaskId trivial = b.add_task(0.1);
  TaskId tail = b.add_task(10.0);
  b.add_edge(src, critical, 2.0);
  b.add_edge(src, trivial, 0.5);
  b.add_edge(critical, tail, 1.0);
  TaskGraph g = std::move(b).build();

  DlsScheduler dls;
  Schedule s = dls.run(g, 2);
  EXPECT_TRUE(is_valid_schedule(g, s));
  // DLS schedules `critical` before `trivial` (in decision order both end
  // up placed; check that critical did not wait for trivial on its proc).
  EXPECT_LE(s.start(critical), s.start(trivial) + 2.0 + 1e-9);
}

// --- MCP-I (insertion) -------------------------------------------------------

TEST(McpInsertion, ValidOnWorkloadsAndFuzz) {
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 7;
    params.ccr = 5.0;  // high CCR creates gaps worth inserting into
    TaskGraph g = make_workload(name, 250, params);
    McpScheduler mcp(1, /*insertion=*/true);
    Schedule s = mcp.run(g, 4);
    ASSERT_TRUE(is_valid_schedule(g, s))
        << name << ": " << test::violations_to_string(g, s);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    McpScheduler mcp(i + 1, true);
    ASSERT_TRUE(is_valid_schedule(g, mcp.run(g, 3))) << g.name();
  }
}

TEST(McpInsertion, NameDistinguishesVariants) {
  EXPECT_EQ(McpScheduler(1, false).name(), "MCP");
  EXPECT_EQ(McpScheduler(1, true).name(), "MCP-I");
}

TEST(McpInsertion, NeverWorseOnAverageThanEndPlacement) {
  // Insertion dominates end-of-list placement per decision, and usually
  // (not provably always — list scheduling is not matroidal) produces a
  // shorter final schedule. Check the aggregate over several instances.
  double sum_plain = 0.0, sum_insert = 0.0;
  for (std::size_t seed = 1; seed <= 8; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.ccr = 5.0;
    TaskGraph g = make_workload("LU", 300, params);
    sum_plain += McpScheduler(seed, false).run(g, 8).makespan();
    sum_insert += McpScheduler(seed, true).run(g, 8).makespan();
  }
  EXPECT_LE(sum_insert, sum_plain * 1.001);
}

TEST(McpInsertion, ActuallyUsesGaps) {
  // A join-heavy graph with expensive messages produces idle gaps; verify
  // at least one task starts before an earlier-assigned task on the same
  // processor finishes... i.e. timelines are interleaved relative to
  // assignment order. Detect via a task whose start precedes the start of
  // a task assigned before it on the same processor.
  WorkloadParams params;
  params.seed = 2;
  params.ccr = 8.0;
  TaskGraph g = make_workload("Gauss", 300, params);
  McpScheduler mcp(1, true);
  Schedule s = mcp.run(g, 6);
  ASSERT_TRUE(is_valid_schedule(g, s));
  // Reconstruct assignment order via ALAP (the priority MCP consumed);
  // enough to find one processor whose timeline is not in ALAP order.
  auto alap = alap_times(g);
  bool interleaved = false;
  for (ProcId p = 0; p < 6 && !interleaved; ++p) {
    auto tasks = s.tasks_on(p);
    for (std::size_t i = 1; i < tasks.size(); ++i)
      if (alap[tasks[i]] < alap[tasks[i - 1]] - 1e-12) interleaved = true;
  }
  EXPECT_TRUE(interleaved)
      << "expected at least one gap insertion on this workload";
}

// --- ISH -------------------------------------------------------------------------

TEST(Ish, ValidOnWorkloadsAndFuzz) {
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 15;
    params.ccr = 5.0;
    TaskGraph g = make_workload(name, 250, params);
    HlfetScheduler ish(/*insertion=*/true);
    Schedule s = ish.run(g, 4);
    ASSERT_TRUE(is_valid_schedule(g, s))
        << name << ": " << test::violations_to_string(g, s);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    HlfetScheduler ish(/*insertion=*/true);
    ASSERT_TRUE(is_valid_schedule(g, ish.run(g, 3))) << g.name();
  }
}

TEST(Ish, NeverWorseThanHlfetOnAggregate) {
  // Same priorities, strictly more placement freedom: insertion should
  // help (or tie) across a batch of instances.
  double ish_sum = 0.0, hlfet_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.ccr = 5.0;
    TaskGraph g = make_workload("Gauss", 300, params);
    HlfetScheduler ish(/*insertion=*/true);
    HlfetScheduler hlfet;
    ish_sum += ish.run(g, 8).makespan();
    hlfet_sum += hlfet.run(g, 8).makespan();
  }
  EXPECT_LE(ish_sum, hlfet_sum * 1.01);
}

TEST(Ish, SingleProcessorPacksSequentially) {
  TaskGraph g = test::fuzz_graph(11);
  HlfetScheduler ish(/*insertion=*/true);
  EXPECT_NEAR(ish.run(g, 1).makespan(), g.total_comp(), 1e-9);
}

// --- Registry coverage ---------------------------------------------------------

TEST(ExtendedRegistry, AllNamesConstructAndRun) {
  TaskGraph g = test::fuzz_graph(1);
  for (const std::string& name : extended_scheduler_names()) {
    auto sched = make_scheduler(name, 1);
    EXPECT_EQ(sched->name(), name);
    Schedule s = sched->run(g, 3);
    EXPECT_TRUE(is_valid_schedule(g, s)) << name;
  }
}

TEST(ExtendedRegistry, SupersetOfPaperNames) {
  auto paper = scheduler_names();
  auto all = extended_scheduler_names();
  for (const std::string& name : paper)
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  EXPECT_GT(all.size(), paper.size());
}

}  // namespace
}  // namespace flb
