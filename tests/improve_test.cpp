// Tests for the local-search schedule improver and the SVG Gantt export.

#include <gtest/gtest.h>

#include "flb/algos/mapping.hpp"
#include "flb/core/flb.hpp"
#include "flb/sched/gantt.hpp"
#include "flb/sched/improve.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

TEST(Improve, NeverWorsensAndStaysFeasible) {
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (const std::string& name : {"FLB", "MCP", "DSC-LLB"}) {
      Schedule s = make_scheduler(name, 1)->run(g, 3);
      ImproveResult r = improve_schedule(g, s);
      ASSERT_TRUE(is_valid_schedule(g, r.schedule))
          << name << " on " << g.name() << "\n"
          << test::violations_to_string(g, r.schedule);
      EXPECT_LE(r.final_makespan, r.initial_makespan + 1e-9);
      EXPECT_DOUBLE_EQ(r.schedule.makespan(), r.final_makespan);
      EXPECT_GE(r.final_makespan, makespan_lower_bound(g, 3) - 1e-9);
    }
  }
}

TEST(Improve, FixesAnObviouslyBadAssignment) {
  // All tasks crammed onto one processor of two: the improver must move
  // work across.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 0.1;
  TaskGraph g = fork_join_graph(2, 8, p);
  std::vector<ProcId> all_zero(g.num_tasks(), 0);
  Schedule bad = schedule_with_fixed_assignment(g, all_zero, 2);
  ImproveResult r = improve_schedule(g, bad);
  EXPECT_GT(r.moves, 0u);
  EXPECT_LT(r.final_makespan, r.initial_makespan - 1e-9);
  EXPECT_TRUE(is_valid_schedule(g, r.schedule));
}

TEST(Improve, SingleProcessorIsANoop) {
  TaskGraph g = test::fuzz_graph(2);
  FlbScheduler flb;
  Schedule s = flb.run(g, 1);
  ImproveResult r = improve_schedule(g, s);
  EXPECT_EQ(r.moves, 0u);
  EXPECT_NEAR(r.final_makespan, g.total_comp(), 1e-9);
}

TEST(Improve, RespectsEvaluationBudget) {
  TaskGraph g = make_workload("LU", 300, {});
  Schedule s = make_scheduler("FLB", 1)->run(g, 4);
  ImproveOptions options;
  options.max_evaluations = 10;
  ImproveResult r = improve_schedule(g, s, options);
  EXPECT_LE(r.evaluations, 10u + 1u);  // +1 for the initial re-derivation
  EXPECT_TRUE(is_valid_schedule(g, r.schedule));
}

TEST(Improve, ConvergesToLocalOptimum) {
  // Running the improver on its own output must find nothing further
  // (with the same sweep budget).
  TaskGraph g = test::fuzz_graph(6);
  Schedule s = make_scheduler("MCP", 2)->run(g, 3);
  ImproveResult first = improve_schedule(g, s);
  ImproveResult second = improve_schedule(g, first.schedule);
  EXPECT_NEAR(second.final_makespan, first.final_makespan, 1e-9);
  EXPECT_EQ(second.moves, 0u);
}

TEST(Improve, RejectsIncompleteSchedule) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  EXPECT_THROW((void)improve_schedule(g, s), Error);
  const test::MismatchedSchedules other;
  EXPECT_THROW((void)improve_schedule(other.large, other.of_small), Error);
  EXPECT_THROW((void)improve_schedule(other.small, other.of_large), Error);
  EXPECT_THROW((void)anneal_schedule(other.large, other.of_small), Error);
  EXPECT_THROW((void)anneal_schedule(other.small, other.of_large), Error);
}

// --- Simulated annealing -----------------------------------------------------------

TEST(Anneal, NeverWorseThanInputAndFeasible) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    Schedule s = make_scheduler("FLB", 1)->run(g, 3);
    AnnealOptions options;
    options.iterations = 400;
    options.seed = i + 1;
    ImproveResult r = anneal_schedule(g, s, options);
    ASSERT_TRUE(is_valid_schedule(g, r.schedule)) << g.name();
    EXPECT_LE(r.final_makespan, r.initial_makespan + 1e-9);
    EXPECT_DOUBLE_EQ(r.schedule.makespan(), r.final_makespan);
  }
}

TEST(Anneal, DeterministicPerSeed) {
  TaskGraph g = test::fuzz_graph(5);
  Schedule s = make_scheduler("MCP", 1)->run(g, 3);
  AnnealOptions options;
  options.iterations = 300;
  options.seed = 9;
  ImproveResult a = anneal_schedule(g, s, options);
  ImproveResult b = anneal_schedule(g, s, options);
  EXPECT_DOUBLE_EQ(a.final_makespan, b.final_makespan);
  EXPECT_EQ(a.moves, b.moves);
}

TEST(Anneal, CanEscapeHillClimbingOptimum) {
  // On aggregate over several instances, annealing with a decent budget
  // should match or beat pure hill climbing (it explores more).
  double hc_sum = 0.0, sa_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    params.ccr = 5.0;
    TaskGraph g = fork_join_graph(3, 10, params);
    Schedule s = make_scheduler("DSC-LLB", seed)->run(g, 4);
    hc_sum += improve_schedule(g, s).final_makespan;
    AnnealOptions options;
    options.iterations = 3000;
    options.seed = seed;
    sa_sum += anneal_schedule(g, s, options).final_makespan;
  }
  EXPECT_LE(sa_sum, hc_sum * 1.05);
}

TEST(Anneal, ZeroIterationsIsIdentity) {
  TaskGraph g = test::fuzz_graph(1);
  Schedule s = make_scheduler("FLB", 1)->run(g, 3);
  AnnealOptions options;
  options.iterations = 0;
  ImproveResult r = anneal_schedule(g, s, options);
  EXPECT_EQ(r.moves, 0u);
  EXPECT_DOUBLE_EQ(r.final_makespan, r.initial_makespan);
}

// --- SVG Gantt -------------------------------------------------------------------

TEST(SvgGantt, WellFormedWithAllTasks) {
  TaskGraph g = test::fuzz_graph(3);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  std::string svg = to_svg_gantt(g, s);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per task plus one lane background per processor.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 1;
  }
  EXPECT_EQ(rects, g.num_tasks() + 3u);
  // Tooltips carry exact times.
  EXPECT_NE(svg.find("<title>t0 ["), std::string::npos);
}

TEST(SvgGantt, LanesPerProcessor) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  std::string svg = to_svg_gantt(g, s, 400);
  EXPECT_NE(svg.find(">P0</text>"), std::string::npos);
  EXPECT_NE(svg.find(">P1</text>"), std::string::npos);
}

}  // namespace
}  // namespace flb
