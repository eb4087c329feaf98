#pragma once

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "flb/core/flb.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/workloads.hpp"

/// \file test_support.hpp
/// Shared helpers for the flb test suite.

namespace flb::test {

/// Render all violations of a schedule for diagnostics in EXPECT messages.
inline std::string violations_to_string(const TaskGraph& g,
                                        const Schedule& s) {
  std::string out;
  for (const Violation& v : validate_schedule(g, s)) {
    out += to_string(v);
    out += '\n';
  }
  return out.empty() ? "(no violations)" : out;
}

/// A small fixed DAG used by several suites:
///
///        a(1)
///       /    \          edge weights:
///   (2)/      \(1)      a->b 2, a->c 1,
///     b(3)    c(2)      b->d 1, c->d 3
///       \      /
///    (1) \    / (3)
///         d(1)
inline TaskGraph small_diamond() {
  TaskGraphBuilder b;
  b.set_name("small-diamond");
  TaskId a = b.add_task(1);
  TaskId bb = b.add_task(3);
  TaskId c = b.add_task(2);
  TaskId d = b.add_task(1);
  b.add_edge(a, bb, 2);
  b.add_edge(a, c, 1);
  b.add_edge(bb, d, 1);
  b.add_edge(c, d, 3);
  return std::move(b).build();
}

/// A copy of `g` whose edges cost `factor` times as much: a what-if sweep
/// over message costs. Tasks, edges and their successor order (and so
/// every edge id) are those of `g`.
inline TaskGraph scale_comm(const TaskGraph& g, Cost factor) {
  TaskGraphBuilder b;
  b.set_name(g.name());
  for (TaskId t = 0; t < g.num_tasks(); ++t) b.add_task(g.comp(t));
  for (const Edge& e : g.edges()) b.add_edge(e.from, e.to, e.comm * factor);
  return std::move(b).build();
}

/// Complete FLB schedules of a V=20 and a V=60 Random graph, each to be
/// checked against the other's graph: an entry point that indexes a
/// schedule by its graph's task ids must reject both pairings.
struct MismatchedSchedules {
  TaskGraph small = make_workload("Random", 20, WorkloadParams{});
  TaskGraph large = make_workload("Random", 60, WorkloadParams{});
  Schedule of_small = FlbScheduler().run(small, 3);
  Schedule of_large = FlbScheduler().run(large, 3);
};

/// Deterministic fuzzing corpus: a spread of random DAG shapes that the
/// property tests sweep. Index selects shape and seed.
inline TaskGraph fuzz_graph(std::size_t index) {
  WorkloadParams params;
  params.seed = 1000 + index;
  params.ccr = (index % 3 == 0) ? 0.2 : (index % 3 == 1 ? 1.0 : 5.0);
  switch (index % 7) {
    case 0:
      return random_dag(20 + index % 30, 0.15, params);
    case 1:
      return random_layered_graph(4 + index % 5, 3 + index % 6, 0.4, params);
    case 2:
      return fork_join_graph(2 + index % 4, 3 + index % 5, params);
    case 3:
      return random_dag(10 + index % 15, 0.35, params);
    case 4:
      return series_parallel_graph(15 + index % 25, 0.5, params);
    case 5:
      return cholesky_graph(3 + index % 4, params);
    default:
      return diamond_graph(3 + index % 4, params);
  }
}

/// Seeded random connected interconnect: a random spanning tree over
/// shuffled node ids (each node links to a random earlier one) plus every
/// other pair with probability `extra`.
inline Topology random_topology(std::uint64_t seed, ProcId nodes,
                                double extra) {
  Rng rng(seed);
  std::vector<ProcId> id(nodes);
  std::iota(id.begin(), id.end(), ProcId{0});
  rng.shuffle(id);
  std::vector<std::pair<ProcId, ProcId>> links;
  for (ProcId i = 1; i < nodes; ++i)
    links.emplace_back(id[i], id[rng.next_below(i)]);
  for (ProcId a = 0; a < nodes; ++a)
    for (ProcId b = a + 1; b < nodes; ++b)
      if (rng.bernoulli(extra)) links.emplace_back(a, b);
  return Topology::from_links(nodes, std::move(links));
}

/// The interconnects routing properties are checked over: every built-in
/// shape, including degenerate sizes, plus 24 seeded random connected
/// graphs of 2-20 nodes, from spanning trees to graphs with a quarter of
/// all node pairs linked.
inline std::vector<Topology> topology_zoo() {
  std::vector<Topology> out = {
      Topology::clique(1),     Topology::clique(5),    Topology::ring(2),
      Topology::ring(6),       Topology::ring(7),      Topology::mesh2d(1, 4),
      Topology::mesh2d(3, 3),  Topology::mesh2d(4, 4), Topology::mesh2d(3, 5),
      Topology::torus2d(2, 3), Topology::torus2d(3, 3),
      Topology::torus2d(4, 5), Topology::star(2),      Topology::star(6),
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    out.push_back(random_topology(seed, static_cast<ProcId>(2 + seed % 19),
                                  0.05 * static_cast<double>(seed % 6)));
  return out;
}

}  // namespace flb::test
