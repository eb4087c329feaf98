#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "flb/util/types.hpp"

/// \file task_graph.hpp
/// The task-graph model of Section 2 of the paper: a weighted DAG
/// G = (V, E) where node weights are computation costs and edge weights are
/// communication costs.

namespace flb {

/// One adjacency entry: a neighbouring task and the communication cost of
/// the connecting edge.
struct Adj {
  TaskId node;  ///< The neighbour (successor or predecessor).
  Cost comm;    ///< Communication cost of the edge.
};

/// An edge in (from, to, comm) form, used for construction and export.
struct Edge {
  TaskId from;
  TaskId to;
  Cost comm;
};

class TaskGraphBuilder;

/// Immutable weighted DAG. Construct through TaskGraphBuilder, which
/// validates shape (no self-loops, no duplicate edges, acyclic) and builds
/// CSR adjacency in both directions so that successor and predecessor scans
/// are contiguous — every scheduler here is adjacency-scan bound. Beside
/// the two adjacency arrays (16 bytes per edge each) the builder records
/// each predecessor entry's edge id (in_edge_ids, 4 bytes per edge), so
/// state kept per edge, such as a replay's message arrivals, is reachable
/// from both endpoints in O(1), and each task's bottom level (8 bytes per
/// task), swept once over the topological order its acyclicity check
/// computes, so an engine that resumes on one graph many times reads them
/// instead of re-deriving them.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Number of tasks V.
  [[nodiscard]] TaskId num_tasks() const {
    return static_cast<TaskId>(comp_.size());
  }

  /// Number of edges E.
  [[nodiscard]] std::size_t num_edges() const { return succ_.size(); }

  /// Computation cost of task t.
  [[nodiscard]] Cost comp(TaskId t) const { return comp_[t]; }

  /// Successors of t with edge communication costs.
  [[nodiscard]] std::span<const Adj> successors(TaskId t) const {
    return {succ_.data() + succ_off_[t], succ_off_[t + 1] - succ_off_[t]};
  }

  /// Predecessors of t with edge communication costs.
  [[nodiscard]] std::span<const Adj> predecessors(TaskId t) const {
    return {pred_.data() + pred_off_[t], pred_off_[t + 1] - pred_off_[t]};
  }

  /// Edge id of t's first outgoing edge. Edge ids number the edges
  /// 0..E-1 in successor-CSR order, the order edges() lists them in:
  /// successors(t)[i] is edge out_edge_begin(t) + i.
  [[nodiscard]] std::size_t out_edge_begin(TaskId t) const {
    return succ_off_[t];
  }

  /// Edge ids of t's incoming edges, parallel to predecessors(t), so a
  /// consumer finds the id of the edge from its i-th predecessor in O(1)
  /// instead of scanning that producer's successors. build() records one
  /// std::uint32_t per edge and rejects graphs whose edge ids do not fit.
  [[nodiscard]] std::span<const std::uint32_t> in_edge_ids(TaskId t) const {
    return {pred_edge_.data() + pred_off_[t], pred_off_[t + 1] - pred_off_[t]};
  }

  /// Bottom level of every task, indexed by task id: comp(t) plus the
  /// longest (communication + computation) path from t to an exit task.
  /// Bit-identical to bottom_levels_into (graph/properties.hpp): build()
  /// stores them with the sweep that function runs.
  [[nodiscard]] std::span<const Cost> bottom_levels() const {
    return bottom_levels_;
  }

  /// In-degree of t.
  [[nodiscard]] std::size_t in_degree(TaskId t) const {
    return pred_off_[t + 1] - pred_off_[t];
  }

  /// Out-degree of t.
  [[nodiscard]] std::size_t out_degree(TaskId t) const {
    return succ_off_[t + 1] - succ_off_[t];
  }

  /// True iff t has no predecessors (an entry task).
  [[nodiscard]] bool is_entry(TaskId t) const { return in_degree(t) == 0; }

  /// True iff t has no successors (an exit task).
  [[nodiscard]] bool is_exit(TaskId t) const { return out_degree(t) == 0; }

  /// All entry tasks, ascending by id.
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;

  /// All exit tasks, ascending by id.
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

  /// All edges in (from, to, comm) form, grouped by source task.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Sum of all computation costs (the sequential execution time T_seq).
  [[nodiscard]] Cost total_comp() const { return total_comp_; }

  /// Sum of all communication costs.
  [[nodiscard]] Cost total_comm() const { return total_comm_; }

  /// Communication-to-computation ratio: average edge weight over average
  /// node weight (paper Section 2). Zero for edgeless or zero-comp graphs.
  [[nodiscard]] Cost ccr() const;

  /// Optional human-readable name (set by generators, e.g. "LU(n=62)").
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class TaskGraphBuilder;

  std::vector<Cost> comp_;
  std::vector<std::size_t> succ_off_, pred_off_;
  std::vector<Adj> succ_, pred_;
  std::vector<std::uint32_t> pred_edge_;  ///< edge id of each pred_ entry
  std::vector<Cost> bottom_levels_;       ///< see bottom_levels()
  Cost total_comp_ = 0.0;
  Cost total_comm_ = 0.0;
  std::string name_;
};

/// Incremental builder for TaskGraph. Usage:
///
///     TaskGraphBuilder b;
///     TaskId a = b.add_task(2.0);
///     TaskId c = b.add_task(3.0);
///     b.add_edge(a, c, 1.0);
///     TaskGraph g = std::move(b).build();
///
/// build() throws flb::Error on self-loops, duplicate edges, out-of-range
/// ids, negative weights, cycles, or more edges than a std::uint32_t edge
/// id can number.
class TaskGraphBuilder {
 public:
  TaskGraphBuilder() = default;

  /// Add a task with computation cost `comp` (>= 0); returns its id.
  TaskId add_task(Cost comp);

  /// Add `count` tasks all with cost `comp`; returns the first id.
  TaskId add_tasks(std::size_t count, Cost comp);

  /// Add a dependence edge with communication cost `comm` (>= 0).
  void add_edge(TaskId from, TaskId to, Cost comm);

  /// Number of tasks added so far.
  [[nodiscard]] TaskId num_tasks() const {
    return static_cast<TaskId>(comp_.size());
  }

  /// Number of edges added so far.
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// Set the graph's display name.
  void set_name(std::string name) { name_ = std::move(name); }

  /// Validate and produce the immutable graph. The builder is consumed.
  [[nodiscard]] TaskGraph build() &&;

 private:
  std::vector<Cost> comp_;
  std::vector<Edge> edges_;
  std::string name_;
};

}  // namespace flb
