#pragma once

#include <cstddef>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"

/// \file improve.hpp
/// Post-pass local search on schedules: keep each task's processor
/// assignment as the search state, re-derive timing by bottom-level list
/// scheduling under that fixed assignment (algos/mapping.hpp), and
/// hill-climb by moving single tasks between processors. Used by the
/// bench_improvement ablation to measure how much makespan each
/// algorithm's schedule leaves on the table — a proxy for distance from
/// local optimality that puts the one-step heuristics' quality in
/// perspective. Hill climbing makes at most four full sweeps; annealing
/// starts at a temperature of 5% of the starting makespan.

namespace flb {

/// Options for improve_schedule.
struct ImproveOptions {
  /// Hard cap on schedule re-evaluations (each re-times the assignment
  /// along one task order computed per call, O(V + E)); bounds worst-case
  /// cost on large instances.
  std::size_t max_evaluations = 20000;
};

/// Result of a local-search run.
struct ImproveResult {
  Schedule schedule;       ///< the improved (or original-equivalent) schedule
  Cost initial_makespan;   ///< makespan of the re-derived input assignment
  Cost final_makespan;     ///< makespan after the search
  std::size_t moves = 0;   ///< accepted single-task moves
  std::size_t evaluations = 0;  ///< schedules evaluated
};

/// First-improvement hill climbing from `s`'s assignment, for up to four
/// full sweeps (each tries to move every task to every other processor)
/// or until a sweep accepts no move. The result is
/// always feasible; its makespan never exceeds the makespan of the input
/// assignment re-timed by list scheduling (which may differ slightly from
/// s.makespan() when s was built with a different intra-processor order).
/// Tasks are swept in descending finish time so makespan-critical tasks
/// move first. Throws flb::Error unless `s` is a complete schedule of `g`.
ImproveResult improve_schedule(const TaskGraph& g, const Schedule& s,
                               const ImproveOptions& options = {});

/// Options for anneal_schedule.
struct AnnealOptions {
  std::size_t iterations = 5000;  ///< single-task-move proposals
  std::uint64_t seed = 1;
};

/// Simulated annealing over the same move space as improve_schedule
/// (random single-task processor moves, timing re-derived per proposal).
/// The acceptance temperature starts at 5% of the starting makespan and
/// cools geometrically to 1e-3 of that over the run.
/// Escapes the single-move local optima hill climbing gets stuck in, at
/// `iterations` full re-evaluations of cost. Keeps the best schedule seen.
/// Throws flb::Error unless `s` is a complete schedule of `g`.
ImproveResult anneal_schedule(const TaskGraph& g, const Schedule& s,
                              const AnnealOptions& options = {});

}  // namespace flb
