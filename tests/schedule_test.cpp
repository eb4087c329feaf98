#include "flb/sched/schedule.hpp"

#include <gtest/gtest.h>

#include "flb/sched/metrics.hpp"
#include "flb/util/error.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

TEST(Schedule, StartsEmpty) {
  Schedule s(2, 3);
  EXPECT_EQ(s.num_procs(), 2u);
  EXPECT_EQ(s.num_tasks(), 3u);
  EXPECT_EQ(s.num_scheduled(), 0u);
  EXPECT_FALSE(s.complete());
  EXPECT_FALSE(s.is_scheduled(0));
  EXPECT_DOUBLE_EQ(s.proc_ready_time(0), 0.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST(Schedule, AssignRecordsPlacement) {
  Schedule s(2, 2);
  s.assign(1, 0, 1.0, 3.0);
  EXPECT_TRUE(s.is_scheduled(1));
  EXPECT_EQ(s.proc(1), 0u);
  EXPECT_DOUBLE_EQ(s.start(1), 1.0);
  EXPECT_DOUBLE_EQ(s.finish(1), 3.0);
  EXPECT_DOUBLE_EQ(s.proc_ready_time(0), 3.0);
  EXPECT_DOUBLE_EQ(s.proc_ready_time(1), 0.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
  ASSERT_EQ(s.tasks_on(0).size(), 1u);
  EXPECT_EQ(s.tasks_on(0)[0], 1u);
}

TEST(Schedule, CompleteAfterAllAssigned) {
  Schedule s(1, 2);
  s.assign(0, 0, 0.0, 1.0);
  EXPECT_FALSE(s.complete());
  s.assign(1, 0, 1.0, 2.0);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.num_scheduled(), 2u);
}

TEST(Schedule, RejectsDoubleAssignment) {
  Schedule s(1, 1);
  s.assign(0, 0, 0.0, 1.0);
  EXPECT_THROW(s.assign(0, 0, 2.0, 3.0), Error);
}

TEST(Schedule, RejectsOutOfRangeIds) {
  Schedule s(1, 1);
  EXPECT_THROW(s.assign(5, 0, 0.0, 1.0), Error);
  EXPECT_THROW(s.assign(0, 3, 0.0, 1.0), Error);
}

TEST(Schedule, RejectsOverlapOnProcessor) {
  Schedule s(1, 2);
  s.assign(0, 0, 0.0, 2.0);
  EXPECT_THROW(s.assign(1, 0, 1.0, 3.0), Error);
}

TEST(Schedule, RejectsNegativeOrInvertedTimes) {
  Schedule s(1, 2);
  EXPECT_THROW(s.assign(0, 0, -1.0, 1.0), Error);
  EXPECT_THROW(s.assign(0, 0, 2.0, 1.0), Error);
}

TEST(Schedule, GapsAreAllowed) {
  Schedule s(1, 2);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 0, 5.0, 6.0);  // idle gap [1, 5)
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
}

TEST(Schedule, RequiresAtLeastOneProc) {
  EXPECT_THROW(Schedule(0, 1), Error);
}

// --- Idle-gap insertion -----------------------------------------------------

TEST(Schedule, InsertIntoGapKeepsTimelineSorted) {
  Schedule s(1, 3);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 0, 5.0, 6.0);
  s.assign(2, 0, 2.0, 4.0);  // lands in the gap [1, 5)
  auto tasks = s.tasks_on(0);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0], 0u);
  EXPECT_EQ(tasks[1], 2u);
  EXPECT_EQ(tasks[2], 1u);
  EXPECT_DOUBLE_EQ(s.proc_ready_time(0), 6.0);
}

TEST(Schedule, InsertRejectsOverlapWithEitherNeighbour) {
  Schedule s(1, 4);
  s.assign(0, 0, 0.0, 2.0);
  s.assign(1, 0, 5.0, 7.0);
  EXPECT_THROW(s.assign(2, 0, 1.0, 3.0), Error);  // clips task 0
  EXPECT_THROW(s.assign(2, 0, 4.0, 6.0), Error);  // clips task 1
  s.assign(2, 0, 2.0, 4.0);                        // exact fit is fine
}

TEST(Schedule, EarliestGapScansHoles) {
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 2.0);
  s.assign(1, 0, 5.0, 7.0);
  EXPECT_DOUBLE_EQ(s.earliest_gap(0, 0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(s.earliest_gap(0, 0.0, 4.0), 7.0);
  EXPECT_DOUBLE_EQ(s.earliest_gap(0, 3.0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(s.earliest_gap(0, 6.5, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(s.earliest_gap(1, 4.0, 10.0), 4.0);  // empty proc
  EXPECT_THROW((void)s.earliest_gap(5, 0.0, 1.0), Error);
  EXPECT_THROW((void)s.earliest_gap(0, 0.0, -1.0), Error);
}

TEST(Schedule, EarliestGapZeroDurationIsEarliestIdleInstant) {
  Schedule s(1, 2);
  s.assign(0, 0, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(s.earliest_gap(0, 0.0, 0.0), 0.0);   // idle before task
  EXPECT_DOUBLE_EQ(s.earliest_gap(0, 2.0, 0.0), 3.0);   // inside -> after
}

// A zero-duration task starting where the last positive task starts sorts
// before it, so appends cannot be decided by the start time alone: the
// append test compares the whole (start, duration > 0) key.
TEST(Schedule, ZeroDurationAtTailStartSortsBeforeIt) {
  Schedule s(1, 3);
  s.assign(0, 0, 1.0, 3.0);
  s.assign(1, 0, 1.0, 1.0);  // same start, zero duration
  ASSERT_EQ(s.tasks_on(0).size(), 2u);
  EXPECT_EQ(s.tasks_on(0)[0], 1u);
  EXPECT_EQ(s.tasks_on(0)[1], 0u);
  s.assign(2, 0, 3.0, 4.0);  // the next append lands last
  ASSERT_EQ(s.tasks_on(0).size(), 3u);
  EXPECT_EQ(s.tasks_on(0)[2], 2u);
  EXPECT_DOUBLE_EQ(s.proc_ready_time(0), 4.0);
}

// --- Metrics -------------------------------------------------------------------

TEST(Metrics, SpeedupAndEfficiency) {
  TaskGraph g = test::small_diamond();  // total comp 7
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 0, 3.0, 6.0);
  s.assign(2, 1, 2.0, 4.0);
  s.assign(3, 0, 7.0, 8.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 8.0);
  EXPECT_DOUBLE_EQ(speedup(g, s), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(efficiency(g, s), 7.0 / 16.0);
}

TEST(Metrics, NslIsRatio) {
  EXPECT_DOUBLE_EQ(normalized_schedule_length(12.0, 10.0), 1.2);
  EXPECT_DOUBLE_EQ(normalized_schedule_length(8.0, 10.0), 0.8);
  EXPECT_THROW(normalized_schedule_length(1.0, 0.0), Error);
}

TEST(Metrics, BusyTimeAndImbalance) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);   // comp 1
  s.assign(1, 0, 1.0, 4.0);   // comp 3
  s.assign(2, 1, 2.0, 4.0);   // comp 2
  s.assign(3, 0, 4.0, 5.0);   // comp 1
  EXPECT_DOUBLE_EQ(busy_time(g, s, 0), 5.0);
  EXPECT_DOUBLE_EQ(busy_time(g, s, 1), 2.0);
  // max 5 over mean 3.5.
  EXPECT_DOUBLE_EQ(load_imbalance(g, s), 5.0 / 3.5);
}

TEST(Metrics, ImbalanceOfEmptyScheduleIsZero) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  EXPECT_DOUBLE_EQ(load_imbalance(g, s), 0.0);
  EXPECT_DOUBLE_EQ(speedup(g, s), 0.0);
}

TEST(Metrics, LowerBoundCombinesCpAndWork) {
  TaskGraph g = test::small_diamond();
  // computation CP = 5, total comp = 7.
  EXPECT_DOUBLE_EQ(makespan_lower_bound(g, 1), 7.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(g, 2), 5.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(g, 100), 5.0);
  EXPECT_THROW(makespan_lower_bound(g, 0), Error);
}

}  // namespace
}  // namespace flb
