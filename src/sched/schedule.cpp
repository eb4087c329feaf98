#include "flb/sched/schedule.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "flb/util/error.hpp"
#include "flb/util/fnv1a.hpp"

namespace flb {

Schedule::Schedule(ProcId num_procs, TaskId num_tasks)
    : placements_(num_tasks), timelines_(num_procs), prt_(num_procs, 0.0) {
  FLB_REQUIRE(num_procs >= 1, "Schedule: at least one processor required");
}

void Schedule::reset(ProcId num_procs, TaskId num_tasks) {
  FLB_REQUIRE(num_procs >= 1, "Schedule: at least one processor required");
  placements_.resize(num_tasks);
  std::fill(placements_.begin(), placements_.end(), Placement{});
  // resize keeps the outer capacity when shrinking, and each surviving
  // timeline keeps its own buffer across clear(), so a same-shape reuse
  // touches the allocator zero times.
  timelines_.resize(num_procs);
  for (auto& timeline : timelines_) timeline.clear();
  prt_.resize(num_procs);
  std::fill(prt_.begin(), prt_.end(), 0.0);
  num_scheduled_ = 0;
}

void Schedule::assign(TaskId t, ProcId p, Cost start, Cost finish) {
  FLB_REQUIRE(t < placements_.size(), "Schedule::assign: task id out of range");
  FLB_REQUIRE(p < timelines_.size(),
              "Schedule::assign: processor id out of range");
  FLB_REQUIRE(!is_scheduled(t),
              "Schedule::assign: task " + std::to_string(t) +
                  " is already scheduled");
  FLB_REQUIRE(finish >= start, "Schedule::assign: finish precedes start");
  FLB_REQUIRE(start >= 0.0, "Schedule::assign: negative start time");

  auto& timeline = timelines_[p];
  // Position within the timeline, which is kept sorted by
  // (start, duration > 0): a zero-duration task coinciding with a positive
  // task's start sorts before it, so per-processor timeline order is
  // always a feasible execution order (the machine simulator replays it).
  // A key not before the last entry's is an append, the only placement a
  // plain list scheduler makes, and skips the search.
  using Key = std::pair<Cost, bool>;
  const auto key_of = [&](TaskId other) {
    const Placement& pl = placements_[other];
    return Key(pl.start, pl.finish > pl.start);
  };
  const Key key(start, finish > start);
  auto it = timeline.end();
  if (!timeline.empty() && key < key_of(timeline.back()))
    it = std::upper_bound(
        timeline.begin(), timeline.end(), key,
        [&](const Key& k, TaskId other) { return k < key_of(other); });
  // Two executions conflict only when they share positive measure, so
  // zero-duration tasks (legal for zero-cost graph nodes) never overlap
  // anything and are skipped when locating the binding neighbours.
  if (finish > start) {
    for (auto left = it; left != timeline.begin();) {
      --left;
      const Placement& prev = placements_[*left];
      if (prev.finish <= prev.start) continue;  // zero-duration
      FLB_REQUIRE(prev.finish <= start,
                  "Schedule::assign: task " + std::to_string(t) +
                      " would overlap task " + std::to_string(*left) +
                      " on processor " + std::to_string(p));
      break;
    }
    for (auto right = it; right != timeline.end(); ++right) {
      const Placement& next = placements_[*right];
      if (next.finish <= next.start) continue;  // zero-duration
      FLB_REQUIRE(finish <= next.start,
                  "Schedule::assign: task " + std::to_string(t) +
                      " would overlap task " + std::to_string(*right) +
                      " on processor " + std::to_string(p));
      break;
    }
  }

  placements_[t] = {p, start, finish};
  timeline.insert(it, t);
  prt_[p] = std::max(prt_[p], finish);
  ++num_scheduled_;
}

Cost Schedule::earliest_gap(ProcId p, Cost earliest, Cost duration) const {
  FLB_REQUIRE(p < timelines_.size(),
              "Schedule::earliest_gap: processor id out of range");
  FLB_REQUIRE(duration >= 0.0,
              "Schedule::earliest_gap: negative duration");
  Cost candidate = std::max(earliest, 0.0);
  for (TaskId other : timelines_[p]) {
    const Placement& pl = placements_[other];
    if (pl.start >= candidate + duration) break;  // fits before `other`
    candidate = std::max(candidate, pl.finish);
  }
  return candidate;
}

Cost Schedule::makespan() const {
  Cost m = 0.0;
  for (Cost r : prt_) m = std::max(m, r);
  return m;
}

std::uint64_t schedule_digest(const Schedule& s) {
  Fnv1a h;
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    h.add_u64(s.proc(t));
    h.add_u64(std::bit_cast<std::uint64_t>(s.start(t)));
    h.add_u64(std::bit_cast<std::uint64_t>(s.finish(t)));
  }
  return h.value();
}

}  // namespace flb
