#include "flb/sched/improve.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/algos/mapping.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb {

namespace {

/// Full sweeps of improve_schedule before it gives up.
constexpr std::size_t kMaxPasses = 4;
/// anneal_schedule's initial temperature, as a fraction of the starting
/// makespan.
constexpr double kInitialTempFraction = 0.05;

}  // namespace

ImproveResult improve_schedule(const TaskGraph& g, const Schedule& s,
                               const ImproveOptions& options) {
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(s.num_tasks() == n,
              "improve_schedule: the schedule was built for a graph with a "
              "different task count");
  FLB_REQUIRE(s.complete(), "improve_schedule: schedule is incomplete");
  const ProcId procs = s.num_procs();

  std::vector<ProcId> assignment(n);
  for (TaskId t = 0; t < n; ++t) assignment[t] = s.proc(t);

  // One task order for every evaluation; candidates are re-timed into one
  // buffer, which trades places with the incumbent when it wins.
  const FixedAssignmentRetimer retimer(g);
  Schedule current(procs, n);
  retimer.retime_into(assignment, procs, current);
  ImproveResult result{std::move(current), 0.0, 0.0, 0, 1};
  result.initial_makespan = result.schedule.makespan();
  result.final_makespan = result.initial_makespan;
  if (procs == 1 || n == 0) return result;
  Schedule candidate(procs, n);

  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    // Sweep tasks in descending finish time of the current schedule: the
    // tasks closing out the makespan are the profitable movers.
    std::vector<TaskId> order(n);
    std::iota(order.begin(), order.end(), 0);
    // Total order: latest finish first, id as the tie-break — ties must
    // not land in unspecified order or the improvement pass (and every
    // digest downstream of it) flaps across STL implementations.
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return std::make_tuple(result.schedule.finish(b), a) <
             std::make_tuple(result.schedule.finish(a), b);
    });

    bool improved_this_pass = false;
    for (TaskId t : order) {
      ProcId original = assignment[t];
      for (ProcId p = 0; p < procs; ++p) {
        if (p == original) continue;
        if (result.evaluations >= options.max_evaluations) break;
        assignment[t] = p;
        retimer.retime_into(assignment, procs, candidate);
        ++result.evaluations;
        if (candidate.makespan() < result.final_makespan - 1e-12) {
          std::swap(result.schedule, candidate);
          result.final_makespan = result.schedule.makespan();
          ++result.moves;
          improved_this_pass = true;
          original = p;  // accepted; keep climbing from here
        } else {
          assignment[t] = original;
        }
      }
      if (result.evaluations >= options.max_evaluations) break;
    }
    if (!improved_this_pass ||
        result.evaluations >= options.max_evaluations)
      break;
  }
  return result;
}

ImproveResult anneal_schedule(const TaskGraph& g, const Schedule& s,
                              const AnnealOptions& options) {
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(s.num_tasks() == n,
              "anneal_schedule: the schedule was built for a graph with a "
              "different task count");
  FLB_REQUIRE(s.complete(), "anneal_schedule: schedule is incomplete");
  const ProcId procs = s.num_procs();

  std::vector<ProcId> assignment(n);
  for (TaskId t = 0; t < n; ++t) assignment[t] = s.proc(t);

  const FixedAssignmentRetimer retimer(g);
  Schedule current(procs, n);
  retimer.retime_into(assignment, procs, current);
  Cost current_len = current.makespan();
  ImproveResult result{std::move(current), current_len, current_len, 0, 1};
  if (procs == 1 || n == 0 || options.iterations == 0) return result;
  Schedule candidate(procs, n);

  Rng rng(options.seed);
  const double t0 =
      kInitialTempFraction * static_cast<double>(result.initial_makespan);
  // Geometric cooling down to t0 / 1000 across the run.
  const double alpha =
      std::pow(1e-3, 1.0 / static_cast<double>(options.iterations));
  double temp = t0;

  for (std::size_t it = 0; it < options.iterations; ++it, temp *= alpha) {
    TaskId t = static_cast<TaskId>(rng.next_below(n));
    ProcId old_p = assignment[t];
    ProcId new_p =
        static_cast<ProcId>(rng.next_below(procs - 1));
    if (new_p >= old_p) ++new_p;  // uniform over the other processors

    assignment[t] = new_p;
    retimer.retime_into(assignment, procs, candidate);
    ++result.evaluations;
    Cost len = candidate.makespan();
    double delta = static_cast<double>(len - current_len);
    bool accept = delta <= 0.0 ||
                  rng.next_double() < std::exp(-delta / std::max(temp, 1e-12));
    if (accept) {
      current_len = len;
      ++result.moves;
      if (len < result.final_makespan - 1e-12) {
        result.final_makespan = len;
        std::swap(result.schedule, candidate);
      }
    } else {
      assignment[t] = old_p;
    }
  }
  return result;
}

}  // namespace flb
