// Tests for the schedule exporters: JSON, Chrome trace and the
// round-trippable schedule text with its reader.

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
#include "flb/sched/export.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/paper_example.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

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
  // Counts past the 32-bit id range, which a cast would wrap to 1 and
  // then accept id 2^32 as id 0.
  EXPECT_THROW(schedule_from_text("flb-schedule 1\nprocs 1\n"
                                  "tasks 4294967297\na 4294967296 0 0 1\n"),
               Error);
  EXPECT_THROW(schedule_from_text("flb-schedule 1\nprocs 4294967297\n"
                                  "tasks 1\na 0 4294967296 0 1\n"),
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
