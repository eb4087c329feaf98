// Tests for the related-machines model (per-processor speed factors of
// platform::CostModel), HEFT and CPOP, and speed-scaled schedule
// validation through the durations-aware validator.

#include <gtest/gtest.h>

#include <utility>

#include "flb/algos/heft.hpp"
#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

using platform::CostModel;

/// A clique of processors with the given speed factors.
CostModel related(std::vector<double> speeds) {
  CostModel m = CostModel::clique(static_cast<ProcId>(speeds.size()));
  m.set_speeds(std::move(speeds));
  return m;
}

/// Expected wall time of every placed task: comp / speed of its processor
/// (kUndefinedTime, i.e. unchecked, for unplaced tasks).
std::vector<Cost> speed_scaled(const TaskGraph& g, const CostModel& m,
                               const Schedule& s) {
  std::vector<Cost> d(g.num_tasks(), kUndefinedTime);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (s.is_scheduled(t)) d[t] = g.comp(t) / m.speed(s.proc(t));
  return d;
}

std::string speed_violations(const TaskGraph& g, const CostModel& m,
                             const Schedule& s) {
  std::string out;
  for (const Violation& v : validate_schedule(g, s, speed_scaled(g, m, s))) {
    out += to_string(v);
    out += '\n';
  }
  return out.empty() ? "(none)" : out;
}

bool valid_on(const TaskGraph& g, const CostModel& m, const Schedule& s) {
  return is_valid_schedule(g, s, speed_scaled(g, m, s));
}

// --- Machine model ------------------------------------------------------------

TEST(RelatedMachines, ExecTimeScalesWithSpeed) {
  CostModel m = related({1.0, 2.0, 0.5});
  EXPECT_EQ(m.num_procs(), 3u);
  EXPECT_DOUBLE_EQ(m.exec_work(4.0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.exec_work(4.0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.exec_work(4.0, 2), 8.0);
  // mean inverse speed = (1 + 0.5 + 2) / 3.
  EXPECT_NEAR(m.mean_exec_work(3.0), 3.0 * 3.5 / 3.0, 1e-12);
}

TEST(RelatedMachines, UnitSpeedClique) {
  CostModel m = CostModel::clique(4);
  EXPECT_DOUBLE_EQ(m.speed(3), 1.0);
  EXPECT_DOUBLE_EQ(m.exec_work(2.5, 3), 2.5);
  EXPECT_DOUBLE_EQ(m.mean_exec_work(2.5), 2.5);
}

TEST(RelatedMachines, RejectsBadSpeeds) {
  EXPECT_THROW(CostModel::clique(0), Error);  // no processor at all
  CostModel two = CostModel::clique(2);
  EXPECT_THROW(two.set_speeds({1.0, 0.0}), Error);
  CostModel one = CostModel::clique(1);
  EXPECT_THROW(one.set_speeds({-1.0}), Error);
}

// --- Speed-scaled validation ----------------------------------------------------

TEST(SpeedScaledValidation, ChecksSpeedScaledDurations) {
  TaskGraph g = test::small_diamond();
  CostModel m = related({1.0, 2.0});
  Schedule s(2, 4);
  s.assign(0, 1, 0.0, 0.5);  // comp 1 on speed 2 -> duration 0.5
  s.assign(1, 1, 2.5, 4.0);  // comp 3 -> 1.5 (data from a local at 0.5 +
                             // message... a on p1, so b local: 0.5; but
                             // 2.5 is safely late)
  s.assign(2, 0, 1.5, 3.5);  // comp 2 on speed 1, a remote: 0.5 + 1 = 1.5
  s.assign(3, 0, 7.0, 8.0);  // comp 1; b remote 4+1=5, c local 3.5
  EXPECT_TRUE(valid_on(g, m, s)) << speed_violations(g, m, s);

  // The same placements are NOT valid on a uniform machine (durations).
  EXPECT_FALSE(is_valid_schedule(g, s));
}

TEST(SpeedScaledValidation, CatchesWrongDuration) {
  TaskGraph g = test::small_diamond();
  CostModel m = related({2.0});
  Schedule s(1, 4);
  s.assign(0, 0, 0.0, 1.0);  // should be 0.5 on speed 2
  auto v = validate_schedule(g, s, speed_scaled(g, m, s));
  bool found = false;
  for (const auto& violation : v)
    if (violation.kind == Violation::Kind::kWrongDuration &&
        violation.task == 0)
      found = true;
  EXPECT_TRUE(found);
}

TEST(SpeedScaledValidation, UnitSpeedsAgreeWithHomogeneousValidator) {
  TaskGraph g = test::fuzz_graph(1);
  CostModel m = CostModel::clique(3);
  Schedule s = heft(g, m);
  EXPECT_EQ(is_valid_schedule(g, s), valid_on(g, m, s));
}

// --- Ranks ----------------------------------------------------------------------

TEST(UpwardRanks, UniformMachineEqualsBottomLevels) {
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto rank = upward_ranks(g, CostModel::clique(4));
    auto bl = bottom_levels(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      ASSERT_NEAR(rank[t], bl[t], 1e-9) << g.name() << " t" << t;
  }
}

TEST(DownwardRanks, UniformMachineEqualsTopLevels) {
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto rank = downward_ranks(g, CostModel::clique(4));
    auto tl = top_levels(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      ASSERT_NEAR(rank[t], tl[t], 1e-9);
  }
}

TEST(UpwardRanks, ScaleWithMachineSpeed) {
  TaskGraph g = test::small_diamond();
  // All processors twice as fast: computation halves, communication stays.
  auto slow = upward_ranks(g, related({1.0, 1.0}));
  auto fast = upward_ranks(g, related({2.0, 2.0}));
  // rank(d) = comp(d)/speed: exactly halves.
  EXPECT_DOUBLE_EQ(fast[3], slow[3] / 2.0);
  EXPECT_LT(fast[0], slow[0]);
}

// --- HEFT -----------------------------------------------------------------------

TEST(Heft, ValidOnFuzzCorpusAcrossMachines) {
  const std::vector<std::vector<double>> machines = {
      {1.0, 1.0, 1.0},
      {2.0, 1.0, 0.5},
      {4.0, 0.25},
  };
  for (std::size_t i = 0; i < 14; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (const auto& speeds : machines) {
      CostModel m = related(speeds);
      Schedule s = heft(g, m);
      ASSERT_TRUE(valid_on(g, m, s))
          << g.name() << "\n" << speed_violations(g, m, s);
    }
  }
}

TEST(Heft, PrefersFastProcessorWhenFree) {
  // A single task must land on the fastest processor.
  TaskGraphBuilder b;
  b.add_task(6.0);
  TaskGraph g = std::move(b).build();
  CostModel m = related({1.0, 3.0, 2.0});
  Schedule s = heft(g, m);
  EXPECT_EQ(s.proc(0), 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
}

TEST(Heft, FasterMachineNeverHurtsMuch) {
  // Speeding every processor up by 2x should roughly halve the makespan.
  WorkloadParams params;
  params.seed = 3;
  TaskGraph g = make_workload("LU", 300, params);
  CostModel unit = related({1, 1, 1, 1});
  CostModel doubled = related({2, 2, 2, 2});
  Schedule base = heft(g, unit);
  Schedule fast = heft(g, doubled);
  EXPECT_LT(fast.makespan(), base.makespan());
}

TEST(Heft, UniformMachineCompetitiveWithLibraryAlgorithms) {
  WorkloadParams params;
  params.seed = 7;
  params.ccr = 1.0;
  TaskGraph g = make_workload("Stencil", 300, params);
  CostModel m = CostModel::clique(8);
  Cost heft_len = heft(g, m).makespan();
  Cost mcp_len = make_scheduler("MCP", 1)->run(g, 8).makespan();
  EXPECT_LT(heft_len, 1.3 * mcp_len);
  EXPECT_GT(heft_len, 0.5 * mcp_len);
}

// --- CPOP -----------------------------------------------------------------------

TEST(Cpop, ValidOnFuzzCorpusAcrossMachines) {
  const std::vector<std::vector<double>> machines = {
      {1.0, 1.0, 1.0},
      {2.0, 1.0, 0.5},
  };
  for (std::size_t i = 0; i < 14; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (const auto& speeds : machines) {
      CostModel m = related(speeds);
      Schedule s = cpop(g, m);
      ASSERT_TRUE(valid_on(g, m, s))
          << g.name() << "\n" << speed_violations(g, m, s);
    }
  }
}

TEST(Cpop, CriticalPathSharesOneProcessor) {
  // On a pure chain every task is on the critical path: CPOP must place
  // the whole chain on the single fastest processor.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 1.0;
  TaskGraph g = chain_graph(12, p);
  CostModel m = related({1.0, 5.0, 2.0});
  Schedule s = cpop(g, m);
  ASSERT_TRUE(valid_on(g, m, s));
  for (TaskId t = 0; t < g.num_tasks(); ++t) EXPECT_EQ(s.proc(t), 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 12.0 / 5.0);
}

TEST(Cpop, CriticalPathAvoidsDeadProcessors) {
  // The fastest processor is dead: the chain goes to the fastest alive one.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 1.0;
  TaskGraph g = chain_graph(12, p);
  CostModel m = related({1.0, 5.0, 2.0});
  platform::Availability a;
  a.alive = {true, false, true};
  m.set_availability(std::move(a));
  Schedule s = cpop(g, m);
  ASSERT_TRUE(valid_on(g, m, s));
  for (TaskId t = 0; t < g.num_tasks(); ++t) EXPECT_EQ(s.proc(t), 2u);
  EXPECT_DOUBLE_EQ(s.makespan(), 12.0 / 2.0);
}

TEST(Cpop, HandlesSingleProcessor) {
  TaskGraph g = test::fuzz_graph(4);
  CostModel m = related({2.0});
  Schedule s = cpop(g, m);
  ASSERT_TRUE(valid_on(g, m, s));
  EXPECT_NEAR(s.makespan(), g.total_comp() / 2.0, 1e-9);
}

}  // namespace
}  // namespace flb
