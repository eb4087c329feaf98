// Tests for graph analysis utilities (transitive edges, granularity,
// stats) and the machine-readable schedule exporters (JSON, Chrome trace).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/graph/analysis.hpp"
#include "flb/graph/properties.hpp"
#include "flb/graph/width.hpp"
#include "flb/sched/export.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// --- Transitive edges -------------------------------------------------------

TEST(TransitiveEdges, DiamondWithShortcut) {
  // a->b->d, a->c->d plus the shortcut a->d: only a->d is transitive.
  TaskGraphBuilder b;
  TaskId a = b.add_task(1), bb = b.add_task(1), c = b.add_task(1),
         d = b.add_task(1);
  b.add_edge(a, bb, 1);
  b.add_edge(a, c, 1);
  b.add_edge(bb, d, 1);
  b.add_edge(c, d, 1);
  b.add_edge(a, d, 7);
  TaskGraph g = std::move(b).build();

  auto redundant = transitive_edges(g);
  ASSERT_EQ(redundant.size(), 1u);
  EXPECT_EQ(redundant[0].from, a);
  EXPECT_EQ(redundant[0].to, d);
  EXPECT_DOUBLE_EQ(redundant[0].comm, 7.0);
}

TEST(TransitiveEdges, CleanGraphsHaveNone) {
  EXPECT_TRUE(transitive_edges(test::small_diamond()).empty());
  EXPECT_TRUE(transitive_edges(chain_graph(6)).empty());
  EXPECT_TRUE(transitive_edges(stencil_graph(5, 4)).empty());
}

TEST(TransitiveEdges, StripPreservesReachabilityAndCounts) {
  for (std::size_t i = 0; i < 10; ++i) {
    WorkloadParams params;
    params.seed = 700 + i;
    TaskGraph g = random_dag(25, 0.3, params);
    TaskGraph stripped = strip_transitive_edges(g);
    EXPECT_EQ(stripped.num_tasks(), g.num_tasks());
    EXPECT_EQ(stripped.num_edges(),
              g.num_edges() - transitive_edges(g).size());
    // Same reachability (precedence preserved) and no remaining
    // transitive edges (reduction is idempotent).
    Reachability ra(g), rb(stripped);
    for (TaskId u = 0; u < g.num_tasks(); ++u)
      for (TaskId v = 0; v < g.num_tasks(); ++v)
        ASSERT_EQ(ra.reaches(u, v), rb.reaches(u, v));
    EXPECT_TRUE(transitive_edges(stripped).empty());
  }
}

TEST(TransitiveEdges, ZeroCommStripKeepsCriticalPath) {
  // When stripped edges carry no communication the scheduling problem is
  // untouched; in particular the critical path is identical.
  TaskGraphBuilder b;
  TaskId a = b.add_task(2), bb = b.add_task(3), c = b.add_task(4);
  b.add_edge(a, bb, 1);
  b.add_edge(bb, c, 1);
  b.add_edge(a, c, 0);  // pure precedence shortcut
  TaskGraph g = std::move(b).build();
  TaskGraph stripped = strip_transitive_edges(g);
  EXPECT_EQ(stripped.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(critical_path(stripped), critical_path(g));
}

// --- Granularity & stats -----------------------------------------------------

TEST(Granularity, HandComputed) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 2.0;  // comp 1, comm 2 everywhere
  TaskGraph g = chain_graph(4, p);
  EXPECT_DOUBLE_EQ(granularity(g), 0.5);
  p.ccr = 0.25;
  EXPECT_DOUBLE_EQ(granularity(chain_graph(4, p)), 4.0);
}

TEST(Granularity, EdgelessIsInfinite) {
  EXPECT_EQ(granularity(independent_graph(3)), kInfiniteTime);
}

TEST(GraphStats, SmallDiamond) {
  GraphStats s = graph_stats(test::small_diamond());
  EXPECT_EQ(s.num_tasks, 4u);
  EXPECT_EQ(s.num_edges, 4u);
  EXPECT_EQ(s.max_in_degree, 2u);
  EXPECT_EQ(s.max_out_degree, 2u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.0);
  EXPECT_DOUBLE_EQ(s.min_comp, 1.0);
  EXPECT_DOUBLE_EQ(s.max_comp, 3.0);
  EXPECT_DOUBLE_EQ(s.min_comm, 1.0);
  EXPECT_DOUBLE_EQ(s.max_comm, 3.0);
  EXPECT_EQ(s.entry_tasks, 1u);
  EXPECT_EQ(s.exit_tasks, 1u);
  EXPECT_EQ(s.depth, 3u);
  EXPECT_DOUBLE_EQ(s.ccr, 1.0);
}

TEST(GraphStats, EmptyGraphIsAllZero) {
  TaskGraphBuilder b;
  GraphStats s = graph_stats(std::move(b).build());
  EXPECT_EQ(s.num_tasks, 0u);
  EXPECT_EQ(s.depth, 0u);
}

// --- Exporters ----------------------------------------------------------------

TEST(ExportJson, ContainsEveryTaskAndMetadata) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  std::string json = to_schedule_json(g, s);
  EXPECT_NE(json.find("\"graph\":\"small-diamond\""), std::string::npos);
  EXPECT_NE(json.find("\"procs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"makespan\":"), std::string::npos);
  for (TaskId t = 0; t < 4; ++t)
    EXPECT_NE(json.find("{\"id\":" + std::to_string(t)), std::string::npos);
  // Crude structural sanity: balanced braces and brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportChromeTrace, OneEventPerTaskWithProcessorTracks) {
  TaskGraph g = test::fuzz_graph(3);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  std::string trace = to_chrome_trace(g, s);
  // One complete-event record per task.
  std::size_t events = 0, pos = 0;
  while ((pos = trace.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++events;
    pos += 1;
  }
  EXPECT_EQ(events, g.num_tasks());
  EXPECT_EQ(trace.front(), '[');
  // Every used processor appears as a tid.
  for (ProcId p = 0; p < 3; ++p) {
    if (s.tasks_on(p).empty()) continue;
    EXPECT_NE(trace.find("\"tid\":" + std::to_string(p)),
              std::string::npos);
  }
}

TEST(ExportScheduleText, RoundTripPreservesPlacements) {
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  Schedule back = schedule_from_text(to_schedule_text(s));
  ASSERT_EQ(back.num_tasks(), s.num_tasks());
  ASSERT_EQ(back.num_procs(), s.num_procs());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(back.proc(t), s.proc(t));
    EXPECT_EQ(back.start(t), s.start(t));   // exact via %.17g
    EXPECT_EQ(back.finish(t), s.finish(t));
  }
  EXPECT_TRUE(is_valid_schedule(g, back));
}

TEST(ExportScheduleText, PartialSchedulesRoundTrip) {
  Schedule s(2, 5);
  s.assign(3, 1, 0.5, 2.5);
  Schedule back = schedule_from_text(to_schedule_text(s));
  EXPECT_EQ(back.num_scheduled(), 1u);
  EXPECT_TRUE(back.is_scheduled(3));
  EXPECT_FALSE(back.is_scheduled(0));
  EXPECT_DOUBLE_EQ(back.start(3), 0.5);
}

/// The schedule text as an ostream writes it at precision(17), built
/// independently of the exporter.
std::string ostream_schedule_text(const Schedule& s) {
  std::ostringstream os;
  os << "flb-schedule 1\n";
  os << "procs " << s.num_procs() << "\n";
  os << "tasks " << s.num_tasks() << "\n";
  os.precision(17);
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    if (!s.is_scheduled(t)) continue;
    os << "a " << t << " " << s.proc(t) << " " << s.start(t) << " "
       << s.finish(t) << "\n";
  }
  return os.str();
}

/// `times` as one processor's consecutive [start, finish] pairs, in sorted
/// order (the last time repeats when the count is odd).
Schedule schedule_of_times(std::vector<Cost> times) {
  std::sort(times.begin(), times.end());
  if (times.size() % 2 != 0) times.push_back(times.back());
  Schedule s(1, static_cast<TaskId>(times.size() / 2));
  for (TaskId t = 0; t < s.num_tasks(); ++t)
    s.assign(t, 0, times[2 * t], times[2 * t + 1]);
  return s;
}

TEST(ExportScheduleText, MatchesOstreamAtPrecision17) {
  std::vector<std::pair<std::string, Schedule>> cases;
  cases.emplace_back("paper example P=2",
                     FlbScheduler().run(paper_example_graph(), 2));
  for (std::size_t index = 0; index < 8; ++index)
    for (ProcId procs : {ProcId{2}, ProcId{4}, ProcId{8}})
      cases.emplace_back(
          "fuzz graph " + std::to_string(index) + " P=" +
              std::to_string(procs),
          FlbScheduler().run(test::fuzz_graph(index), procs));
  Schedule partial(3, 6);
  partial.assign(4, 2, 0.5, 2.25);
  partial.assign(1, 0, 1.0 / 3.0, 0.7);
  cases.emplace_back("partial", std::move(partial));
  // Both zeros, the %g switch points (exponent -5 and 17), a subnormal,
  // integers past 2^53, huge finite values and infinity.
  cases.emplace_back(
      "edge times",
      schedule_of_times({0.0, -0.0, 0.1, 1e-4, 1e-5, 1e-7, 5e-324,
                         9007199254740994.0, 1e16, 1e17, 1e21, 1e300,
                         std::numeric_limits<Cost>::max(),
                         std::numeric_limits<Cost>::infinity()}));
  Rng rng(17);
  std::vector<Cost> random_bits;
  while (random_bits.size() < 100000) {
    const std::uint64_t bits = rng.next_u64() & ~(std::uint64_t{1} << 63);
    Cost v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) random_bits.push_back(v);
  }
  cases.emplace_back("random bit patterns",
                     schedule_of_times(std::move(random_bits)));

  for (const auto& [what, s] : cases) {
    const std::string reference = ostream_schedule_text(s);
    EXPECT_EQ(to_schedule_text(s), reference) << what;
    // The caller's stream keeps its own formatting state.
    std::ostringstream os;
    os.precision(3);
    write_schedule_text(os, s);
    EXPECT_EQ(os.str(), reference) << what;
    EXPECT_EQ(os.precision(), 3) << what;
  }
}

TEST(ExportScheduleText, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_text(""), Error);
  EXPECT_THROW(schedule_from_text("not-a-schedule 1\n"), Error);
  EXPECT_THROW(schedule_from_text("flb-schedule 1\nprocs 0\ntasks 1\n"),
               Error);
  // Overlapping assignments are rejected by Schedule::assign itself.
  EXPECT_THROW(schedule_from_text("flb-schedule 1\nprocs 1\ntasks 2\n"
                                  "a 0 0 0 2\na 1 0 1 3\n"),
               Error);
  // Out-of-range ids.
  EXPECT_THROW(schedule_from_text("flb-schedule 1\nprocs 1\ntasks 1\n"
                                  "a 5 0 0 1\n"),
               Error);
}

TEST(ExportChromeTrace, DurationsMatchSchedule) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  std::string trace = to_chrome_trace(g, s);
  // Spot-check task 0's timestamp: ts = start * 1e6.
  std::ostringstream expect;
  expect.precision(17);
  expect << "\"ts\":" << s.start(0) * 1e6;
  EXPECT_NE(trace.find(expect.str()), std::string::npos);
}

}  // namespace
}  // namespace flb
