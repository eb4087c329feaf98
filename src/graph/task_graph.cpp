#include "flb/graph/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"
#include "level_sweep.hpp"

namespace flb {

std::vector<TaskId> TaskGraph::entry_tasks() const {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < num_tasks(); ++t)
    if (is_entry(t)) out.push_back(t);
  return out;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < num_tasks(); ++t)
    if (is_exit(t)) out.push_back(t);
  return out;
}

std::vector<Edge> TaskGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (TaskId t = 0; t < num_tasks(); ++t)
    for (const Adj& a : successors(t)) out.push_back({t, a.node, a.comm});
  return out;
}

Cost TaskGraph::ccr() const {
  if (num_edges() == 0 || num_tasks() == 0 || total_comp_ == 0.0) return 0.0;
  Cost avg_comm = total_comm_ / static_cast<Cost>(num_edges());
  Cost avg_comp = total_comp_ / static_cast<Cost>(num_tasks());
  return avg_comm / avg_comp;
}

TaskId TaskGraphBuilder::add_task(Cost comp) {
  FLB_REQUIRE(std::isfinite(comp), "add_task: computation cost must be finite");
  FLB_REQUIRE(comp >= 0.0, "add_task: computation cost must be non-negative");
  comp_.push_back(comp);
  return static_cast<TaskId>(comp_.size() - 1);
}

TaskId TaskGraphBuilder::add_tasks(std::size_t count, Cost comp) {
  FLB_REQUIRE(count > 0, "add_tasks: count must be positive");
  FLB_REQUIRE(std::isfinite(comp), "add_tasks: computation cost must be finite");
  FLB_REQUIRE(comp >= 0.0, "add_tasks: computation cost must be non-negative");
  TaskId first = static_cast<TaskId>(comp_.size());
  comp_.insert(comp_.end(), count, comp);
  return first;
}

void TaskGraphBuilder::add_edge(TaskId from, TaskId to, Cost comm) {
  FLB_REQUIRE(from < comp_.size(), "add_edge: source task id out of range");
  FLB_REQUIRE(to < comp_.size(), "add_edge: target task id out of range");
  FLB_REQUIRE(from != to, "add_edge: self-loops are not allowed");
  FLB_REQUIRE(std::isfinite(comm), "add_edge: communication cost must be finite");
  FLB_REQUIRE(comm >= 0.0, "add_edge: communication cost must be non-negative");
  edges_.push_back({from, to, comm});
}

TaskGraph TaskGraphBuilder::build() && {
  const std::size_t n = comp_.size();
  const std::size_t m = edges_.size();
  FLB_REQUIRE(m <= std::numeric_limits<std::uint32_t>::max(),
              "build: " + std::to_string(m) +
                  " edges do not fit the 32-bit edge ids");

  // Detect duplicate edges by sorting a copy of (from, to).
  {
    std::vector<Edge> sorted = edges_;
    std::sort(sorted.begin(), sorted.end(), [](const Edge& a, const Edge& b) {
      return a.from != b.from ? a.from < b.from : a.to < b.to;
    });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      FLB_REQUIRE(sorted[i - 1].from != sorted[i].from ||
                      sorted[i - 1].to != sorted[i].to,
                  "build: duplicate edge " + std::to_string(sorted[i].from) +
                      " -> " + std::to_string(sorted[i].to));
    }
  }

  TaskGraph g;
  g.comp_ = std::move(comp_);
  g.name_ = std::move(name_);
  for (Cost c : g.comp_) g.total_comp_ += c;

  // Build CSR in both directions with counting sort over edge endpoints.
  g.succ_off_.assign(n + 1, 0);
  g.pred_off_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++g.succ_off_[e.from + 1];
    ++g.pred_off_[e.to + 1];
    g.total_comm_ += e.comm;
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.succ_off_[i + 1] += g.succ_off_[i];
    g.pred_off_[i + 1] += g.pred_off_[i];
  }
  g.succ_.resize(m);
  g.pred_.resize(m);
  g.pred_edge_.resize(m);
  std::vector<std::size_t> scur(g.succ_off_.begin(), g.succ_off_.end() - 1);
  std::vector<std::size_t> pcur(g.pred_off_.begin(), g.pred_off_.end() - 1);
  for (const Edge& e : edges_) {
    const std::size_t id = scur[e.from]++;
    g.succ_[id] = {e.to, e.comm};
    g.pred_edge_[pcur[e.to]] = static_cast<std::uint32_t>(id);
    g.pred_[pcur[e.to]++] = {e.from, e.comm};
  }

  // Acyclicity check: Kahn's algorithm orders every task of a DAG. The
  // stored bottom levels are the sweep bottom_levels_into runs over it.
  std::vector<TaskId> order(n);
  std::vector<std::uint32_t> indeg(n);
  FLB_REQUIRE(topological_order_into(g, order, indeg) == n,
              "build: the task graph contains a cycle");
  g.bottom_levels_.resize(n);
  detail::sweep_bottom_levels(g, order, g.bottom_levels_);

  return g;
}

}  // namespace flb
