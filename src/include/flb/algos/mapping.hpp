#pragma once

#include <vector>

#include "flb/algos/dsc.hpp"
#include "flb/sched/schedule.hpp"

/// \file mapping.hpp
/// Cluster-mapping steps for multi-step scheduling (paper Sections 1/3.3).
/// A multi-step method first clusters for an unbounded machine (DSC,
/// Sarkar) and then maps clusters onto the P physical processors. LLB
/// (llb.hpp) is the mapping FLB's authors proposed; this header provides
/// the simpler classical alternatives LLB was shown to outperform, so the
/// multi-step comparison the paper cites ([8]) can be reproduced:
///
///  * wrap mapping      — cluster i goes to processor i mod P (the
///                        round-robin "wrap" rule);
///  * work mapping      — clusters sorted by total computation, heaviest
///                        first, each to the currently least-loaded
///                        processor (LPT-style load balancing on cluster
///                        weights, communication-blind).
///
/// Both then order tasks by list scheduling with bottom-level priorities
/// under the fixed task->processor assignment.

namespace flb {

/// List-schedule g under a FIXED task->processor assignment: repeatedly
/// take the ready task with the largest bottom level (comm-inclusive,
/// ties toward smaller id) and start it as early as its assigned
/// processor and messages allow. The assignment must map every task to a
/// processor < num_procs. Exposed for reuse and testing.
Schedule schedule_with_fixed_assignment(const TaskGraph& g,
                                        const std::vector<ProcId>& proc_of,
                                        ProcId num_procs);

/// schedule_with_fixed_assignment for many assignments of one graph: the
/// bottom-level task order depends on the graph alone, so it is computed
/// once, at construction, and each retime_into() only re-times along it
/// (O(V + E)). The local-search improvers (sched/improve.hpp) evaluate
/// every candidate through one. `g` must outlive the retimer.
class FixedAssignmentRetimer {
 public:
  explicit FixedAssignmentRetimer(const TaskGraph& g);

  /// Write schedule_with_fixed_assignment(g, proc_of, num_procs) into
  /// `out`, re-dimensioned with its capacity kept. Throws flb::Error on
  /// the same inputs as that function.
  void retime_into(const std::vector<ProcId>& proc_of, ProcId num_procs,
                   Schedule& out) const;

 private:
  const TaskGraph& g_;
  std::vector<TaskId> order_;
};

/// Round-robin cluster mapping: cluster c -> processor c mod P.
Schedule wrap_map(const TaskGraph& g, const Clustering& clustering,
                  ProcId num_procs);

/// Load-balancing cluster mapping: clusters descending by total
/// computation, each to the least-loaded processor so far.
Schedule work_map(const TaskGraph& g, const Clustering& clustering,
                  ProcId num_procs);

}  // namespace flb
