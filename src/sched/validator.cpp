#include "flb/sched/validator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "flb/platform/cost_model.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/error.hpp"

namespace flb {

namespace {

// The one validation pass behind both validate_schedule overloads. Without
// `durations` a task must run for comp(t), checked beside its other
// per-task rules; with them it must run for durations[t] (kUndefinedTime:
// any length), checked last, so those findings follow the precedence ones.
std::vector<Violation> validate(const TaskGraph& g, const Schedule& s,
                                const std::vector<Cost>* durations) {
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(s.num_tasks() == n,
              "validate_schedule: the schedule was built for a graph with a "
              "different task count");
  FLB_REQUIRE(durations == nullptr || durations->size() == n,
              "validate_schedule: durations must have one entry per task");
  std::vector<Violation> out;

  auto report = [&](Violation::Kind kind, TaskId t, std::string detail) {
    out.push_back({kind, t, std::move(detail)});
  };

  // Tasks whose times are NaN or infinite are reported once here and then
  // excluded from the interval checks below: every comparison against a NaN
  // is false (a silent pass), and NaN starts would break the strict weak
  // ordering the overlap sweep sorts by.
  std::vector<char> finite(n, 1);

  // Per-task checks.
  for (TaskId t = 0; t < n; ++t) {
    if (!s.is_scheduled(t)) {
      report(Violation::Kind::kUnscheduledTask, t,
             "task " + std::to_string(t) + " was never scheduled");
      continue;
    }
    const Placement& pl = s.placement(t);
    if (!std::isfinite(pl.start) || !std::isfinite(pl.finish)) {
      std::ostringstream os;
      os << "task " << t << " has non-finite times: start " << pl.start
         << ", finish " << pl.finish;
      report(Violation::Kind::kNonFiniteTime, t, os.str());
      finite[t] = 0;
      continue;
    }
    if (pl.start < -kTimeTolerance) {
      std::ostringstream os;
      os << "task " << t << " starts at negative time " << pl.start;
      report(Violation::Kind::kNegativeStart, t, os.str());
    }
    if (durations == nullptr &&
        std::abs(pl.finish - (pl.start + g.comp(t))) > kTimeTolerance) {
      std::ostringstream os;
      os << "task " << t << ": finish " << pl.finish << " != start "
         << pl.start << " + comp " << g.comp(t);
      report(Violation::Kind::kWrongDuration, t, os.str());
    }
  }

  // Per-processor exclusivity: order each processor's tasks by (start,
  // id), then sweep with a running maximum finish. Two executions conflict
  // only when they share positive measure, so zero-duration tasks neither
  // trigger nor mask an overlap; tracking the running maximum (rather than
  // just the previous task) also catches a long task engulfing a later
  // short one. We deliberately check the order rather than trust the
  // Schedule's, sorting only a processor whose tasks are out of order. One
  // buffer, sized for the busiest processor, serves every processor.
  auto by_start = [&](TaskId a, TaskId b) {
    return std::make_tuple(s.start(a), a) < std::make_tuple(s.start(b), b);
  };
  std::size_t busiest = 0;
  for (ProcId p = 0; p < s.num_procs(); ++p)
    busiest = std::max(busiest, s.tasks_on(p).size());
  std::vector<TaskId> tasks;
  tasks.reserve(busiest);
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    tasks.clear();
    for (TaskId t : s.tasks_on(p))
      if (finite[t]) tasks.push_back(t);
    if (!std::is_sorted(tasks.begin(), tasks.end(), by_start))
      std::sort(tasks.begin(), tasks.end(), by_start);
    Cost max_finish = -kInfiniteTime;
    TaskId max_task = kInvalidTask;
    for (TaskId cur : tasks) {
      bool zero_duration = s.finish(cur) <= s.start(cur) + kTimeTolerance;
      if (!zero_duration && s.start(cur) < max_finish - kTimeTolerance) {
        std::ostringstream os;
        os << "tasks " << max_task << " and " << cur
           << " overlap on processor " << p << ": [" << s.start(max_task)
           << ", " << s.finish(max_task) << ") vs [" << s.start(cur) << ", "
           << s.finish(cur) << ")";
        report(Violation::Kind::kProcessorOverlap, cur, os.str());
      }
      if (s.finish(cur) > max_finish) {
        max_finish = s.finish(cur);
        max_task = cur;
      }
    }
  }

  // Precedence + communication: ST(t) >= FT(pred) (+ comm if remote).
  for (TaskId t = 0; t < n; ++t) {
    if (!s.is_scheduled(t) || !finite[t]) continue;
    for (const Adj& a : g.predecessors(t)) {
      // Unscheduled / non-finite predecessors were already reported above.
      if (!s.is_scheduled(a.node) || !finite[a.node]) continue;
      Cost arrival = s.finish(a.node) +
                     (s.proc(a.node) == s.proc(t) ? 0.0 : a.comm);
      if (s.start(t) < arrival - kTimeTolerance) {
        std::ostringstream os;
        os << "task " << t << " starts at " << s.start(t)
           << " before data from predecessor " << a.node << " arrives at "
           << arrival << " (pred finish " << s.finish(a.node) << ", comm "
           << a.comm << ", " << (s.proc(a.node) == s.proc(t) ? "same" : "remote")
           << " processor)";
        report(Violation::Kind::kPrecedence, t, os.str());
      }
    }
  }

  if (durations != nullptr)
    for (TaskId t = 0; t < n; ++t) {
      const Cost expected = (*durations)[t];
      if (!s.is_scheduled(t) || !finite[t]) continue;  // already reported
      if (expected == kUndefinedTime) continue;
      const Placement& pl = s.placement(t);
      if (std::abs(pl.finish - (pl.start + expected)) > kTimeTolerance) {
        std::ostringstream os;
        os << "task " << t << ": finish " << pl.finish << " != start "
           << pl.start << " + expected duration " << expected;
        report(Violation::Kind::kWrongDuration, t, os.str());
      }
    }

  return out;
}

}  // namespace

std::vector<Violation> validate_schedule(const TaskGraph& g,
                                         const Schedule& s) {
  return validate(g, s, nullptr);
}

std::vector<Violation> validate_schedule(const TaskGraph& g, const Schedule& s,
                                         const std::vector<Cost>& durations) {
  return validate(g, s, &durations);
}

bool is_valid_schedule(const TaskGraph& g, const Schedule& s) {
  return validate_schedule(g, s).empty();
}

bool is_valid_schedule(const TaskGraph& g, const Schedule& s,
                       const std::vector<Cost>& durations) {
  return validate_schedule(g, s, durations).empty();
}

std::vector<Violation> validate_link_occupancies(
    const Topology& topology,
    const std::vector<platform::LinkOccupancy>& occupancies) {
  std::vector<Violation> out;
  const std::size_t links = topology.num_links();

  // Malformed entries are reported once and excluded from the sweep (NaN
  // endpoints would break the sort's ordering, bad link indices the
  // grouping).
  std::vector<char> usable(occupancies.size(), 1);
  for (std::size_t i = 0; i < occupancies.size(); ++i) {
    const platform::LinkOccupancy& o = occupancies[i];
    const bool known_link = o.link < links;
    const bool finite = std::isfinite(o.begin) && std::isfinite(o.end);
    const bool negative = o.begin < -kTimeTolerance;
    if (known_link && finite && !negative &&
        !(o.end < o.begin - kTimeTolerance))
      continue;
    std::ostringstream os;
    if (!known_link) {
      os << "occupancy " << i << " names link " << o.link
         << " but the topology has only " << links;
    } else if (!finite) {
      os << "occupancy " << i << " on link " << o.link
         << " has non-finite endpoints: [" << o.begin << ", " << o.end << ")";
    } else if (negative) {
      os << "occupancy " << i << " on link " << o.link
         << " begins at negative time " << o.begin;
    } else {
      os << "occupancy " << i << " on link " << o.link
         << " ends at " << o.end << " before it begins at " << o.begin;
    }
    out.push_back({Violation::Kind::kLinkBusyViolation, kInvalidTask,
                   os.str()});
    usable[i] = 0;
  }

  // Per-link exclusivity: sort each link's reservations by begin, sweep
  // with a running maximum end. Zero-length occupancies carry no measure
  // and neither trigger nor mask a conflict — same convention as the
  // processor-overlap sweep.
  std::vector<std::vector<std::size_t>> by_link(links);
  for (std::size_t i = 0; i < occupancies.size(); ++i)
    if (usable[i]) by_link[occupancies[i].link].push_back(i);
  for (std::size_t link = 0; link < links; ++link) {
    std::vector<std::size_t>& ids = by_link[link];
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return std::make_tuple(occupancies[a].begin, a) <
             std::make_tuple(occupancies[b].begin, b);
    });
    Cost max_end = -kInfiniteTime;
    std::size_t max_id = 0;
    for (std::size_t id : ids) {
      const platform::LinkOccupancy& o = occupancies[id];
      const bool zero_length = o.end <= o.begin + kTimeTolerance;
      if (!zero_length && o.begin < max_end - kTimeTolerance) {
        const platform::LinkOccupancy& m = occupancies[max_id];
        std::ostringstream os;
        os << "transfers overlap on link " << link << ": [" << m.begin
           << ", " << m.end << ") vs [" << o.begin << ", " << o.end << ")";
        out.push_back({Violation::Kind::kLinkBusyViolation, kInvalidTask,
                       os.str()});
      }
      if (o.end > max_end) {
        max_end = o.end;
        max_id = id;
      }
    }
  }
  return out;
}

std::string to_string(const Violation& v) {
  const char* kind = "";
  switch (v.kind) {
    case Violation::Kind::kUnscheduledTask: kind = "unscheduled-task"; break;
    case Violation::Kind::kNonFiniteTime: kind = "non-finite-time"; break;
    case Violation::Kind::kWrongDuration: kind = "wrong-duration"; break;
    case Violation::Kind::kNegativeStart: kind = "negative-start"; break;
    case Violation::Kind::kProcessorOverlap: kind = "processor-overlap"; break;
    case Violation::Kind::kPrecedence: kind = "precedence"; break;
    case Violation::Kind::kLinkBusyViolation: kind = "link-busy"; break;
  }
  return std::string("[") + kind + "] " + v.detail;
}

}  // namespace flb
