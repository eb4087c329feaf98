#pragma once

#include <algorithm>
#include <span>

#include "flb/graph/task_graph.hpp"
#include "flb/util/error.hpp"

/// \file level_sweep.hpp
/// Internal helper shared by TaskGraphBuilder::build and bottom_levels_into:
/// the one bottom-level sweep, so the levels a graph stores and a fresh
/// recomputation agree bit for bit.

namespace flb::detail {

/// Bottom levels over a complete topological `order` of g (both spans of
/// size num_tasks()): each task's level from its successors', last task
/// first.
inline void sweep_bottom_levels(const TaskGraph& g,
                                std::span<const TaskId> order,
                                std::span<Cost> bl) {
  FLB_ASSERT(order.size() == g.num_tasks() && bl.size() == g.num_tasks());
  for (std::size_t i = order.size(); i-- > 0;) {
    const TaskId t = order[i];
    Cost best = 0.0;
    for (const Adj& a : g.successors(t))
      best = std::max(best, bl[a.node] + a.comm);
    bl[t] = g.comp(t) + best;
  }
}

}  // namespace flb::detail
