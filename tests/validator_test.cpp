#include "flb/sched/validator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/error.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// A hand-built feasible schedule of small_diamond on two processors:
//   p0: a[0,1)  b[3,6)  d[7,8)
//   p1: c[2,4)
// b needs a's data at 1+2=3 (remote); c at 1+1=2 (remote);
// d on p0 needs b at 6 (local) and c at 4+3=7 (remote) -> starts at 7.
Schedule feasible_diamond() {
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(2, 1, 2.0, 4.0);
  s.assign(1, 0, 3.0, 6.0);
  s.assign(3, 0, 7.0, 8.0);
  return s;
}

TEST(Validator, AcceptsFeasibleSchedule) {
  TaskGraph g = test::small_diamond();
  Schedule s = feasible_diamond();
  EXPECT_TRUE(is_valid_schedule(g, s)) << test::violations_to_string(g, s);
}

TEST(Validator, DetectsUnscheduledTask) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  auto v = validate_schedule(g, s);
  ASSERT_FALSE(v.empty());
  int unscheduled = 0;
  for (const auto& violation : v)
    if (violation.kind == Violation::Kind::kUnscheduledTask) ++unscheduled;
  EXPECT_EQ(unscheduled, 3);
}

TEST(Validator, RejectsScheduleOfAnotherGraph) {
  const test::MismatchedSchedules other;
  const std::vector<Cost> large_durations(other.large.num_tasks(),
                                          kUndefinedTime);
  const std::vector<Cost> small_durations(other.small.num_tasks(),
                                          kUndefinedTime);
  EXPECT_THROW((void)validate_schedule(other.large, other.of_small), Error);
  EXPECT_THROW((void)validate_schedule(other.small, other.of_large), Error);
  EXPECT_THROW(
      (void)validate_schedule(other.large, other.of_small, large_durations),
      Error);
  EXPECT_THROW(
      (void)validate_schedule(other.small, other.of_large, small_durations),
      Error);
}

TEST(Validator, DetectsWrongDuration) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 2.5);  // comp(a) = 1, so finish should be 1.0
  auto v = validate_schedule(g, s);
  bool found = false;
  for (const auto& violation : v)
    if (violation.kind == Violation::Kind::kWrongDuration &&
        violation.task == 0)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsPrecedenceViolationRemote) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  // b on p1 needs a's message at 1 + 2 = 3; starting at 2 is infeasible.
  s.assign(1, 1, 2.0, 5.0);
  s.assign(2, 0, 1.0, 3.0);
  s.assign(3, 0, 8.0, 9.0);
  auto v = validate_schedule(g, s);
  bool found = false;
  for (const auto& violation : v)
    if (violation.kind == Violation::Kind::kPrecedence && violation.task == 1)
      found = true;
  EXPECT_TRUE(found) << test::violations_to_string(g, s);
}

TEST(Validator, SameProcessorNeedsNoCommDelay) {
  TaskGraph g = test::small_diamond();
  Schedule s(1, 4);
  // Everything back-to-back on one processor: all comm free.
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 0, 1.0, 4.0);
  s.assign(2, 0, 4.0, 6.0);
  s.assign(3, 0, 6.0, 7.0);
  EXPECT_TRUE(is_valid_schedule(g, s)) << test::violations_to_string(g, s);
}

// Regression: the validator used to pass schedules with infinite times
// silently, because every tolerance comparison against a non-finite value
// is false. (Schedule::assign itself rejects NaN, so +inf is the
// constructible poison value.)
TEST(Validator, DetectsNonFiniteTimes) {
  TaskGraph g = test::small_diamond();
  Schedule s = feasible_diamond();
  Schedule bad(2, 4);
  for (TaskId t = 0; t < 4; ++t) {
    if (t == 2)
      bad.assign(t, s.proc(t), kInfiniteTime, kInfiniteTime);
    else
      bad.assign(t, s.proc(t), s.start(t), s.finish(t));
  }
  auto v = validate_schedule(g, bad);
  ASSERT_FALSE(v.empty()) << "infinite times must not validate";
  bool found = false;
  for (const auto& violation : v)
    if (violation.kind == Violation::Kind::kNonFiniteTime &&
        violation.task == 2)
      found = true;
  EXPECT_TRUE(found) << test::violations_to_string(g, bad);
  EXPECT_NE(to_string(v.front()).find("non-finite-time"), std::string::npos);
  EXPECT_FALSE(is_valid_schedule(g, bad));
}

TEST(Validator, ToleranceAbsorbsRoundoff) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(2, 1, 2.0 - 1e-12, 4.0 - 1e-12);  // a hair early: within tolerance
  s.assign(1, 0, 3.0, 6.0);
  s.assign(3, 0, 7.0, 8.0);
  EXPECT_TRUE(is_valid_schedule(g, s));
}

TEST(Validator, ViolationToStringNamesKind) {
  Violation v{Violation::Kind::kPrecedence, 3, "details here"};
  std::string s = to_string(v);
  EXPECT_NE(s.find("precedence"), std::string::npos);
  EXPECT_NE(s.find("details here"), std::string::npos);
}

// Mutation-based check: take a known-good FLB schedule and pull one task
// strictly before its latest data-arrival time; the validator must object
// (with precedence, or with an overlap caught even earlier).
TEST(Validator, MutationFuzzing) {
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule good = flb.run(g, 3);
    ASSERT_TRUE(is_valid_schedule(g, good));

    // Pick a victim whose data cannot possibly be there before some
    // positive arrival time.
    TaskId victim = kInvalidTask;
    Cost required = 0.0;
    for (TaskId t = 0; t < g.num_tasks() && victim == kInvalidTask; ++t) {
      if (g.is_entry(t)) continue;
      Cost req = 0.0;
      for (const Adj& a : g.predecessors(t)) {
        Cost c = good.proc(a.node) == good.proc(t) ? 0.0 : a.comm;
        req = std::max(req, good.finish(a.node) + c);
      }
      if (req > 0.1) {
        victim = t;
        required = req;
      }
    }
    if (victim == kInvalidTask) continue;

    Schedule bad(3, g.num_tasks());
    // Assign in per-processor start order; shift only the victim to half
    // its required arrival time, guaranteeing a precedence violation.
    std::vector<TaskId> order(g.num_tasks());
    for (TaskId t = 0; t < g.num_tasks(); ++t) order[t] = t;
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return good.start(a) < good.start(b);
    });
    bool construction_failed = false;
    for (TaskId t : order) {
      Cost st = good.start(t);
      if (t == victim) st = required / 2.0;
      try {
        bad.assign(t, good.proc(t), st, st + g.comp(t));
      } catch (const Error&) {
        construction_failed = true;  // overlap caught at construction
        break;
      }
    }
    if (!construction_failed) {
      EXPECT_FALSE(is_valid_schedule(g, bad))
          << "task " << victim << " starts before its data arrives ("
          << g.name() << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Link-occupancy auditing (platform link-busy commit logs).

TEST(ValidatorLinks, AcceptsSerializedAndDisjointOccupancies) {
  Topology line = Topology::from_links(3, {{0, 1}, {1, 2}});
  std::vector<platform::LinkOccupancy> occ{
      {0, 0.0, 4.0},  // back-to-back on link 0: fine
      {0, 4.0, 8.0},
      {1, 2.0, 6.0},  // overlaps both in time, but on a different link
      {0, 8.0, 8.0},  // zero-length reservation carries no measure
  };
  auto v = validate_link_occupancies(line, occ);
  EXPECT_TRUE(v.empty()) << to_string(v.front());
}

TEST(ValidatorLinks, DetectsOverlappingTransfers) {
  Topology line = Topology::from_links(3, {{0, 1}, {1, 2}});
  // Each log overlaps once on link 0: the first shares [2, 4), the second
  // [1.5, 2) around a transfer on link 1 that conflicts with neither.
  const std::vector<std::vector<platform::LinkOccupancy>> logs{
      {{0, 0.0, 4.0}, {0, 2.0, 6.0}},
      {{0, 0.0, 2.0}, {1, 0.0, 1.0}, {0, 1.5, 3.0}},
  };
  for (const std::vector<platform::LinkOccupancy>& occ : logs) {
    auto v = validate_link_occupancies(line, occ);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v.front().kind, Violation::Kind::kLinkBusyViolation);
    EXPECT_EQ(v.front().task, kInvalidTask);
    EXPECT_NE(to_string(v.front()).find("link-busy"), std::string::npos);
    EXPECT_NE(v.front().detail.find("link 0"), std::string::npos);
  }
}

TEST(ValidatorLinks, EngulfedShortTransferIsCaught) {
  // A long reservation swallowing a later short one must be caught even
  // though the short one's immediate predecessor (by begin) is itself.
  Topology line = Topology::from_links(2, {{0, 1}});
  std::vector<platform::LinkOccupancy> occ{
      {0, 0.0, 10.0},
      {0, 2.0, 3.0},
      {0, 4.0, 5.0},
  };
  auto v = validate_link_occupancies(line, occ);
  EXPECT_EQ(v.size(), 2u);
}

TEST(ValidatorLinks, DetectsMalformedOccupancies) {
  Topology line = Topology::from_links(2, {{0, 1}});
  std::vector<platform::LinkOccupancy> occ{
      {7, 0.0, 1.0},                  // link index out of range
      {0, 0.0, kInfiniteTime},        // non-finite endpoint
      {0, std::nan(""), 1.0},         // NaN endpoint
      {0, 5.0, 2.0},                  // ends before it begins
      {0, -1.0, 0.5},                 // begins before 0
  };
  // Malformed entries are excluded from the sweep: none of them may also
  // report a phantom overlap.
  auto v = validate_link_occupancies(line, occ);
  ASSERT_EQ(v.size(), 5u);
  for (const Violation& violation : v) {
    EXPECT_EQ(violation.kind, Violation::Kind::kLinkBusyViolation);
    EXPECT_EQ(violation.task, kInvalidTask);
  }
  // No valid log holds the last entry: every link-busy commit begins at
  // or after a finish time.
  EXPECT_NE(v.back().detail.find("negative"), std::string::npos)
      << v.back().detail;
}

TEST(ValidatorLinks, ToleranceAbsorbsEndpointRoundoff) {
  Topology line = Topology::from_links(2, {{0, 1}});
  std::vector<platform::LinkOccupancy> occ{
      {0, -1e-12, 0.0},       // a hair before 0: within tolerance
      {0, 0.0, 4.0},
      {0, 4.0 - 1e-12, 8.0},  // a hair early: within tolerance
  };
  EXPECT_TRUE(validate_link_occupancies(line, occ).empty());
}

}  // namespace
}  // namespace flb
