#include "flb/algos/duplication.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"

namespace flb {

DupSchedule::DupSchedule(ProcId num_procs, TaskId num_tasks)
    : instances_(num_tasks), timelines_(num_procs), slots_(num_procs) {
  FLB_REQUIRE(num_procs >= 1, "DupSchedule: at least one processor required");
}

void DupSchedule::place(TaskId t, ProcId p, Cost start, Cost finish) {
  FLB_REQUIRE(t < instances_.size(), "DupSchedule::place: task out of range");
  FLB_REQUIRE(p < timelines_.size(),
              "DupSchedule::place: processor out of range");
  FLB_REQUIRE(finish >= start, "DupSchedule::place: finish precedes start");
  FLB_REQUIRE(start >= 0.0, "DupSchedule::place: negative start time");
  FLB_REQUIRE(instance_on(t, p) == nullptr,
              "DupSchedule::place: task " + std::to_string(t) +
                  " already has an instance on processor " +
                  std::to_string(p));

  auto& slots = slots_[p];
  auto it = std::upper_bound(
      slots.begin(), slots.end(), start,
      [](Cost s, const Placement& pl) { return s < pl.start; });
  // As in Schedule::assign: only positive-measure executions can conflict.
  if (finish > start) {
    for (auto left = it; left != slots.begin();) {
      --left;
      if (left->finish <= left->start) continue;  // zero-duration
      FLB_REQUIRE(left->finish <= start,
                  "DupSchedule::place: overlap on processor " +
                      std::to_string(p));
      break;
    }
    for (auto right = it; right != slots.end(); ++right) {
      if (right->finish <= right->start) continue;  // zero-duration
      FLB_REQUIRE(finish <= right->start,
                  "DupSchedule::place: overlap on processor " +
                      std::to_string(p));
      break;
    }
  }

  std::size_t idx = static_cast<std::size_t>(it - slots.begin());
  slots.insert(it, Placement{p, start, finish});
  timelines_[p].insert(timelines_[p].begin() + static_cast<std::ptrdiff_t>(idx),
                       t);
  instances_[t].push_back({p, start, finish});
  ++num_instances_;
}

const Placement* DupSchedule::instance_on(TaskId t, ProcId p) const {
  for (const Placement& pl : instances_[t])
    if (pl.proc == p) return &pl;
  return nullptr;
}

Cost DupSchedule::earliest_finish(TaskId t) const {
  FLB_ASSERT(has_instance(t));
  Cost best = kInfiniteTime;
  for (const Placement& pl : instances_[t]) best = std::min(best, pl.finish);
  return best;
}

const Placement& DupSchedule::placement_on(TaskId t, ProcId p) const {
  const Placement* pl = instance_on(t, p);
  FLB_ASSERT(pl != nullptr);
  return *pl;
}

Cost DupSchedule::earliest_gap(ProcId p, Cost earliest, Cost duration) const {
  Cost candidate = std::max(earliest, 0.0);
  for (const Placement& pl : slots_[p]) {
    if (pl.start >= candidate + duration) break;
    candidate = std::max(candidate, pl.finish);
  }
  return candidate;
}

Cost DupSchedule::data_ready(const TaskGraph& g, TaskId t, ProcId p) const {
  Cost ready = 0.0;
  for (const Adj& a : g.predecessors(t)) {
    FLB_ASSERT(has_instance(a.node));
    Cost best = kInfiniteTime;
    for (const Placement& pl : instances_[a.node]) {
      Cost arrival = pl.finish + (pl.proc == p ? 0.0 : a.comm);
      best = std::min(best, arrival);
    }
    ready = std::max(ready, best);
  }
  return ready;
}

Cost DupSchedule::makespan() const {
  Cost m = 0.0;
  for (ProcId p = 0; p < num_procs(); ++p)
    if (!slots_[p].empty()) m = std::max(m, slots_[p].back().finish);
  return m;
}

std::vector<Violation> validate_dup_schedule(const TaskGraph& g,
                                             const DupSchedule& s) {
  std::vector<Violation> out;
  auto report = [&](Violation::Kind kind, TaskId t, std::string detail) {
    out.push_back({kind, t, std::move(detail)});
  };

  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.has_instance(t)) {
      report(Violation::Kind::kUnscheduledTask, t,
             "task " + std::to_string(t) + " has no instance");
      continue;
    }
    for (const Placement& pl : s.instances(t)) {
      if (pl.start < -kTimeTolerance) {
        report(Violation::Kind::kNegativeStart, t,
               "task " + std::to_string(t) + " instance starts before 0");
      }
      if (std::abs(pl.finish - (pl.start + g.comp(t))) > kTimeTolerance) {
        report(Violation::Kind::kWrongDuration, t,
               "task " + std::to_string(t) + " instance has wrong duration");
      }
    }
  }

  // Per-processor exclusivity: running-maximum sweep over the start-sorted
  // timeline; only positive-measure executions can conflict (zero-duration
  // instances are free to coincide with anything).
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    auto tasks = s.tasks_on(p);
    Cost max_finish = -kInfiniteTime;
    TaskId max_task = kInvalidTask;
    for (TaskId cur : tasks) {
      const Placement& pl = s.placement_on(cur, p);
      bool zero_duration = pl.finish <= pl.start + kTimeTolerance;
      if (!zero_duration && pl.start < max_finish - kTimeTolerance) {
        std::ostringstream os;
        os << "instances of " << max_task << " and " << cur
           << " overlap on processor " << p;
        report(Violation::Kind::kProcessorOverlap, cur, os.str());
      }
      if (pl.finish > max_finish) {
        max_finish = pl.finish;
        max_task = cur;
      }
    }
  }

  // Precedence: every instance must start after the best arrival from each
  // predecessor (over that predecessor's instances).
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    for (const Placement& pl : s.instances(t)) {
      for (const Adj& a : g.predecessors(t)) {
        if (!s.has_instance(a.node)) continue;  // reported above
        Cost best = kInfiniteTime;
        for (const Placement& src : s.instances(a.node))
          best = std::min(best,
                          src.finish + (src.proc == pl.proc ? 0.0 : a.comm));
        if (pl.start < best - kTimeTolerance) {
          std::ostringstream os;
          os << "instance of task " << t << " on p" << pl.proc
             << " starts at " << pl.start << " before data from "
             << a.node << " can arrive at " << best;
          report(Violation::Kind::kPrecedence, t, os.str());
        }
      }
    }
  }
  return out;
}

bool is_valid_dup_schedule(const TaskGraph& g, const DupSchedule& s) {
  return validate_dup_schedule(g, s).empty();
}

namespace {

/// Evaluation of one (task, processor) candidate: the achievable start and
/// the duplicates (in placement order) it requires. Tentative intervals are
/// tracked locally so the evaluation never mutates the schedule.
struct Candidate {
  Cost start = kInfiniteTime;
  std::vector<std::pair<TaskId, Cost>> dups;  // (parent, its start on p)
};

class DupEngine {
 public:
  DupEngine(const TaskGraph& g, ProcId num_procs)
      : g_(g), num_procs_(num_procs), sched_(num_procs, g.num_tasks()) {}

  DupSchedule run() {
    const std::vector<Cost> bl = bottom_levels(g_);
    for (const TaskId t :
         priority_order(g_, [&](TaskId u) { return -bl[u]; })) {
      ProcId best_p = 0;
      Candidate best;
      for (ProcId p = 0; p < num_procs_; ++p) {
        Candidate c = evaluate(t, p);
        if (c.start < best.start) {
          best = std::move(c);
          best_p = p;
        }
      }

      // Commit the duplicates, then the task itself.
      for (auto [parent, start] : best.dups)
        sched_.place(parent, best_p, start, start + g_.comp(parent));
      sched_.place(t, best_p, best.start, best.start + g_.comp(t));
    }
    return std::move(sched_);
  }

 private:
  // Earliest gap on p of length `duration` from `earliest`, avoiding both
  // committed slots and the tentative intervals in `overlay` (kept sorted).
  Cost gap_with_overlay(ProcId p, Cost earliest, Cost duration,
                        const std::vector<std::pair<Cost, Cost>>& overlay) {
    Cost candidate = std::max(earliest, 0.0);
    for (int guard = 0; guard < 64; ++guard) {
      Cost from_sched = sched_.earliest_gap(p, candidate, duration);
      Cost adjusted = from_sched;
      for (const auto& [s, f] : overlay) {
        if (s < adjusted + duration && adjusted < f) adjusted = f;
      }
      if (adjusted == from_sched) return adjusted;
      candidate = adjusted;
    }
    return candidate;  // pathological overlays; still feasible upward
  }

  // Arrival time of predecessor u's data at processor p using committed
  // instances plus a possible tentative duplicate finish time.
  Cost arrival(TaskId u, ProcId p, const Adj& edge,
               const std::vector<std::pair<TaskId, Cost>>& dups) {
    Cost best = kInfiniteTime;
    for (const Placement& pl : sched_.instances(u))
      best = std::min(best, pl.finish + (pl.proc == p ? 0.0 : edge.comm));
    for (auto [dup_task, dup_start] : dups)
      if (dup_task == u) best = std::min(best, dup_start + g_.comp(u));
    return best;
  }

  Candidate evaluate(TaskId t, ProcId p) {
    Candidate c;
    std::vector<std::pair<Cost, Cost>> overlay;  // tentative busy intervals

    auto data_ready = [&]() {
      Cost ready = 0.0;
      for (const Adj& a : g_.predecessors(t))
        ready = std::max(ready, arrival(a.node, p, a, c.dups));
      return ready;
    };

    c.start = gap_with_overlay(p, data_ready(), g_.comp(t), overlay);

    // Greedy critical-parent duplication: while the start is dominated by a
    // message from a parent with no instance on p, try copying that parent
    // into p's idle time (fed by its own committed instances only).
    for (std::size_t round = 0; round < g_.in_degree(t); ++round) {
      // Find the parent whose arrival equals the data-ready time.
      TaskId critical = kInvalidTask;
      Cost ready = 0.0;
      const Adj* critical_edge = nullptr;
      for (const Adj& a : g_.predecessors(t)) {
        Cost arr = arrival(a.node, p, a, c.dups);
        if (arr > ready) {
          ready = arr;
          critical = a.node;
          critical_edge = &a;
        }
      }
      // Duplication only helps while the start is message-bound: if the
      // task could start strictly later than its data-ready time, the
      // processor (not a message) is the bottleneck.
      if (critical == kInvalidTask || ready < c.start) break;
      (void)critical_edge;
      // Already local (or already duplicated)? Nothing to gain.
      if (sched_.instance_on(critical, p) != nullptr) break;
      bool already_dup = false;
      for (auto [dt, ds] : c.dups)
        if (dt == critical) already_dup = true;
      if (already_dup) break;

      // The duplicate is fed by committed instances of ITS predecessors.
      Cost dup_ready = sched_.data_ready(g_, critical, p);
      Cost dup_start =
          gap_with_overlay(p, dup_ready, g_.comp(critical), overlay);
      std::vector<std::pair<TaskId, Cost>> trial = c.dups;
      trial.emplace_back(critical, dup_start);

      // Recompute t's start with the duplicate in place.
      Cost new_ready = 0.0;
      for (const Adj& a : g_.predecessors(t))
        new_ready = std::max(new_ready, arrival(a.node, p, a, trial));
      std::vector<std::pair<Cost, Cost>> trial_overlay = overlay;
      trial_overlay.emplace_back(dup_start, dup_start + g_.comp(critical));
      Cost new_start =
          gap_with_overlay(p, new_ready, g_.comp(t), trial_overlay);

      if (new_start < c.start) {
        c.start = new_start;
        c.dups = std::move(trial);
        overlay = std::move(trial_overlay);
      } else {
        break;  // duplication no longer pays off
      }
    }
    return c;
  }

  const TaskGraph& g_;
  ProcId num_procs_;
  DupSchedule sched_;
};

}  // namespace

DupSchedule DupScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "DUP: at least one processor required");
  DupEngine engine(g, num_procs);
  return engine.run();
}

}  // namespace flb
