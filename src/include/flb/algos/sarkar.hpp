#pragma once

#include "flb/algos/dsc.hpp"
#include "flb/graph/task_graph.hpp"

/// \file sarkar.hpp
/// Sarkar's edge-zeroing clustering (V. Sarkar, "Partitioning and
/// Scheduling Parallel Programs for Execution on Multiprocessors", 1989 —
/// the paper's reference [9] and, with DSC, the classic first step of
/// multi-step scheduling).
///
/// Algorithm: start from singleton clusters; examine edges in descending
/// communication-cost order; merge the two endpoint clusters iff doing so
/// does not increase the unbounded-processor schedule length. The schedule
/// length of a tentative clustering is evaluated by list scheduling with
/// computation-and-communication bottom-level priorities, each cluster
/// acting as one processor and intra-cluster messages costing zero. The
/// priorities ignore the clustering, so one priority_order, computed once,
/// serves every evaluation: O(V + E) per evaluation (plus union-find
/// lookups), O(E (V + E)) in total, far above DSC's O((E+V) log V); the
/// multi-step bench shows both the cost gap and the quality comparison.

namespace flb {

/// Run Sarkar's clustering on g. The returned Clustering carries the final
/// evaluation's start/finish times (its unbounded-processor schedule).
Clustering sarkar_cluster(const TaskGraph& g);

}  // namespace flb
