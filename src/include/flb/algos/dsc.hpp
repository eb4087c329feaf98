#pragma once

#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/util/types.hpp"

/// \file dsc.hpp
/// DSC — Dominant Sequence Clustering (Yang & Gerasoulis, IEEE TPDS 1994),
/// the clustering step of the DSC-LLB multi-step method (paper
/// Section 3.3). DSC schedules the DAG on an *unbounded* number of virtual
/// processors (clusters) to minimize communication:
///
///  * task priorities are tlevel + blevel, where blevel is static and
///    tlevel is computed incrementally as tasks are scheduled;
///  * tasks are examined in priority order among the free (ready) tasks;
///  * the destination is either the cluster the task's last message arrives
///    from, or a fresh cluster — whichever lets the task start earlier
///    (zeroing the communication of every predecessor already in the
///    receiving cluster), exactly the acceptance rule the FLB paper's
///    Section 3.3 describes;
///  * each cluster executes its tasks back-to-back in assignment order.
///
/// Complexity O((E + V) log V) — independent of P, which is why DSC-LLB's
/// running time stays flat across Fig. 2's processor sweep.

namespace flb {

/// Identifier of a cluster produced by DSC.
using ClusterId = std::uint32_t;

/// Result of the clustering step.
struct Clustering {
  /// cluster_of[t] — the cluster of task t; clusters are dense 0..C-1.
  std::vector<ClusterId> cluster_of;
  /// Number of clusters C.
  ClusterId num_clusters = 0;
  /// DSC's own (unbounded-processor) start times, one per task.
  std::vector<Cost> start;
  /// DSC's own finish times, one per task.
  std::vector<Cost> finish;
  /// Tasks per cluster in DSC's execution order.
  std::vector<std::vector<TaskId>> members;

  /// DSC's unbounded-processor schedule length.
  [[nodiscard]] Cost schedule_length() const;

  /// Throws flb::Error unless the clustering can be mapped onto num_procs
  /// processors: one cluster per task of g, every cluster id below
  /// num_clusters, and num_procs >= 1. The mappers (llb_map, wrap_map,
  /// work_map) check this first.
  void validate(const TaskGraph& g, ProcId num_procs) const;
};

/// Run DSC on g. The returned clustering is feasible for its own virtual
/// schedule: tasks of one cluster run back-to-back and every message
/// arrives before its consumer starts.
Clustering dsc_cluster(const TaskGraph& g);

}  // namespace flb
