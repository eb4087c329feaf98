#include "flb/graph/properties.hpp"

#include <algorithm>

#include "flb/util/error.hpp"
#include "level_sweep.hpp"

namespace flb {

std::vector<TaskId> topological_order(const TaskGraph& g) {
  std::vector<TaskId> order(g.num_tasks());
  std::vector<std::uint32_t> indeg(g.num_tasks());
  const std::size_t ordered = topological_order_into(g, order, indeg);
  FLB_ASSERT(ordered == g.num_tasks());
  return order;
}

std::size_t topological_order_into(const TaskGraph& g,
                                   std::span<TaskId> order,
                                   std::span<std::uint32_t> indeg) {
  const TaskId n = g.num_tasks();
  FLB_ASSERT(order.size() == n && indeg.size() == n);
  std::size_t filled = 0;
  for (TaskId t = 0; t < n; ++t) {
    indeg[t] = static_cast<std::uint32_t>(g.in_degree(t));
    if (indeg[t] == 0) order[filled++] = t;
  }
  for (std::size_t i = 0; i < filled; ++i) {
    for (const Adj& a : g.successors(order[i]))
      if (--indeg[a.node] == 0) order[filled++] = a.node;
  }
  return filled;
}

void bottom_levels_into(const TaskGraph& g, std::span<Cost> bl,
                        std::span<TaskId> order,
                        std::span<std::uint32_t> indeg) {
  const std::size_t ordered = topological_order_into(g, order, indeg);
  FLB_ASSERT(ordered == g.num_tasks());
  detail::sweep_bottom_levels(g, order, bl);
}

std::vector<Cost> bottom_levels(const TaskGraph& g) {
  const std::span<const Cost> bl = g.bottom_levels();
  return {bl.begin(), bl.end()};
}

std::vector<Cost> computation_bottom_levels(const TaskGraph& g) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> bl(g.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TaskId t = *it;
    Cost best = 0.0;
    for (const Adj& a : g.successors(t)) best = std::max(best, bl[a.node]);
    bl[t] = g.comp(t) + best;
  }
  return bl;
}

std::vector<Cost> top_levels(const TaskGraph& g) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<Cost> tl(g.num_tasks(), 0.0);
  for (TaskId t : order) {
    Cost best = 0.0;
    for (const Adj& a : g.predecessors(t))
      best = std::max(best, tl[a.node] + g.comp(a.node) + a.comm);
    tl[t] = best;
  }
  return tl;
}

Cost critical_path(const TaskGraph& g) {
  std::vector<Cost> bl = bottom_levels(g);
  Cost cp = 0.0;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (g.is_entry(t)) cp = std::max(cp, bl[t]);
  return cp;
}

Cost computation_critical_path(const TaskGraph& g) {
  std::vector<Cost> bl = computation_bottom_levels(g);
  Cost cp = 0.0;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (g.is_entry(t)) cp = std::max(cp, bl[t]);
  return cp;
}

std::vector<Cost> alap_times(const TaskGraph& g) {
  std::vector<Cost> bl = bottom_levels(g);
  Cost cp = 0.0;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (g.is_entry(t)) cp = std::max(cp, bl[t]);
  std::vector<Cost> alap(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) alap[t] = cp - bl[t];
  return alap;
}

std::vector<std::size_t> depth_levels(const TaskGraph& g) {
  std::vector<TaskId> order = topological_order(g);
  std::vector<std::size_t> depth(g.num_tasks(), 0);
  for (TaskId t : order) {
    for (const Adj& a : g.predecessors(t))
      depth[t] = std::max(depth[t], depth[a.node] + 1);
  }
  return depth;
}

std::vector<std::vector<TaskId>> level_decomposition(const TaskGraph& g) {
  std::vector<std::size_t> depth = depth_levels(g);
  std::size_t max_depth = 0;
  for (std::size_t d : depth) max_depth = std::max(max_depth, d);
  std::vector<std::vector<TaskId>> levels(g.num_tasks() == 0 ? 0
                                                             : max_depth + 1);
  for (TaskId t = 0; t < g.num_tasks(); ++t) levels[depth[t]].push_back(t);
  return levels;
}

std::size_t max_level_width(const TaskGraph& g) {
  std::size_t best = 0;
  for (const auto& level : level_decomposition(g))
    best = std::max(best, level.size());
  return best;
}

}  // namespace flb
