#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/error.hpp"
#include "flb/util/types.hpp"

/// \file properties.hpp
/// Static DAG properties used by the schedulers and the experiments:
/// topological and priority orders, top/bottom levels, critical path, ALAP
/// (latest possible start) times and level decomposition.
///
/// Conventions (matching the paper and the DSC/MCP literature):
///  * bottom level BL(t) includes comp(t) and all edge costs on the longest
///    downward path: BL(t) = comp(t) + max over successors s of
///    (comm(t,s) + BL(s)); BL(exit) = comp(exit).
///  * top level TL(t) excludes comp(t): TL(t) = max over predecessors p of
///    (TL(p) + comp(p) + comm(p,t)); TL(entry) = 0.
///  * critical path CP = max_t (TL(t) + BL(t)) — the sequential length of
///    the heaviest path including communication.
///  * ALAP(t) = CP - BL(t) — the latest possible start time, MCP's priority.

namespace flb {

/// A topological order of the tasks (Kahn; stable: among simultaneously
/// ready tasks, smaller ids first). Size equals num_tasks().
std::vector<TaskId> topological_order(const TaskGraph& g);

/// Allocation-free topological_order() writing into caller storage: `order`
/// and `indeg` must both have size num_tasks(). Returns how many tasks it
/// ordered: num_tasks() for a DAG, fewer when the adjacency has a cycle
/// (only TaskGraphBuilder::build, which rejects it, can see one). The
/// ordered prefix of `order` is the vector flavour's order. `indeg` is
/// scratch, clobbered.
std::size_t topological_order_into(const TaskGraph& g,
                                   std::span<TaskId> order,
                                   std::span<std::uint32_t> indeg);

/// The order in which a ready list with static keys hands out g's tasks:
/// each step takes the ready task with the least key_of(t), the smaller id
/// on a tie, and a task becomes ready once every predecessor is taken.
/// Placement cannot change which tasks are ready, so a list scheduler with
/// static priorities (HLFET, MCP, HEFT, ...) walks this order and keeps no
/// ready list of its own. key_of must return a totally ordered value;
/// negate a priority to take its largest first. O(V log W + E) on a d-ary
/// heap, plus one key_of call per task.
template <typename KeyOf>
std::vector<TaskId> priority_order(const TaskGraph& g, KeyOf&& key_of) {
  using Key =
      std::pair<std::remove_cvref_t<std::invoke_result_t<KeyOf&, TaskId>>,
                TaskId>;  // (key, id)
  const TaskId n = g.num_tasks();
  Arena arena;
  DaryIndexedHeap<Key> ready(arena, n);
  std::vector<std::size_t> unscheduled_preds(n);
  for (TaskId t = 0; t < n; ++t) {
    unscheduled_preds[t] = g.in_degree(t);
    if (unscheduled_preds[t] == 0) ready.push(t, {key_of(t), t});
  }
  std::vector<TaskId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const auto t = static_cast<TaskId>(ready.pop());
    order.push_back(t);
    for (const Adj& a : g.successors(t))
      if (--unscheduled_preds[a.node] == 0)
        ready.push(a.node, {key_of(a.node), a.node});
  }
  FLB_ASSERT(order.size() == n);
  return order;
}

/// Bottom levels (computation + communication), indexed by task id: a copy
/// of the levels the graph stores (TaskGraph::bottom_levels()).
std::vector<Cost> bottom_levels(const TaskGraph& g);

/// Recompute the bottom levels into caller storage, without allocating:
/// `bl`, `order` and `indeg` must all have size num_tasks(). It runs the
/// sweep TaskGraphBuilder::build stores its levels with, over
/// topological_order_into(), so results are bit-identical to
/// TaskGraph::bottom_levels(). `order` and `indeg` are scratch, clobbered.
void bottom_levels_into(const TaskGraph& g, std::span<Cost> bl,
                        std::span<TaskId> order,
                        std::span<std::uint32_t> indeg);

/// Bottom levels counting only computation costs (edges cost zero). Used by
/// DSC-LLB's LLB step, which orders within clusters where communication has
/// already been zeroed.
std::vector<Cost> computation_bottom_levels(const TaskGraph& g);

/// Top levels (computation + communication), indexed by task id.
std::vector<Cost> top_levels(const TaskGraph& g);

/// Critical path length including communication costs.
Cost critical_path(const TaskGraph& g);

/// Critical path length counting computation only (a schedule-length lower
/// bound valid for any processor count, since same-processor communication
/// is free).
Cost computation_critical_path(const TaskGraph& g);

/// ALAP latest-possible-start times: ALAP(t) = CP - BL(t).
std::vector<Cost> alap_times(const TaskGraph& g);

/// Precedence depth of each task: entry tasks are level 0; otherwise
/// 1 + max level over predecessors.
std::vector<std::size_t> depth_levels(const TaskGraph& g);

/// Tasks grouped by precedence depth: result[d] lists the tasks at depth d.
std::vector<std::vector<TaskId>> level_decomposition(const TaskGraph& g);

/// The largest number of tasks at any single precedence depth. This is a
/// cheap lower bound on the task graph width W (any level is an antichain).
std::size_t max_level_width(const TaskGraph& g);

}  // namespace flb
