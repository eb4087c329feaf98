#include "flb/graph/task_graph.hpp"

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "flb/graph/dot.hpp"
#include "flb/graph/properties.hpp"
#include "flb/graph/serialize.hpp"
#include "flb/util/error.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

TEST(TaskGraphBuilder, EmptyGraphBuilds) {
  TaskGraphBuilder b;
  TaskGraph g = std::move(b).build();
  EXPECT_EQ(g.num_tasks(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_comp(), 0.0);
  EXPECT_DOUBLE_EQ(g.ccr(), 0.0);
}

TEST(TaskGraphBuilder, SingleTask) {
  TaskGraphBuilder b;
  TaskId t = b.add_task(3.5);
  TaskGraph g = std::move(b).build();
  EXPECT_EQ(t, 0u);
  EXPECT_EQ(g.num_tasks(), 1u);
  EXPECT_DOUBLE_EQ(g.comp(0), 3.5);
  EXPECT_TRUE(g.is_entry(0));
  EXPECT_TRUE(g.is_exit(0));
}

TEST(TaskGraphBuilder, AddTasksBulk) {
  TaskGraphBuilder b;
  TaskId first = b.add_tasks(5, 2.0);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(b.num_tasks(), 5u);
  TaskGraph g = std::move(b).build();
  for (TaskId t = 0; t < 5; ++t) EXPECT_DOUBLE_EQ(g.comp(t), 2.0);
}

TEST(TaskGraphBuilder, RejectsNegativeComp) {
  TaskGraphBuilder b;
  EXPECT_THROW(b.add_task(-1.0), Error);
}

TEST(TaskGraphBuilder, RejectsSelfLoop) {
  TaskGraphBuilder b;
  TaskId t = b.add_task(1);
  EXPECT_THROW(b.add_edge(t, t, 1.0), Error);
}

TEST(TaskGraphBuilder, RejectsOutOfRangeEndpoints) {
  TaskGraphBuilder b;
  b.add_task(1);
  EXPECT_THROW(b.add_edge(0, 5, 1.0), Error);
  EXPECT_THROW(b.add_edge(5, 0, 1.0), Error);
}

TEST(TaskGraphBuilder, RejectsNegativeComm) {
  TaskGraphBuilder b;
  TaskId a = b.add_task(1), c = b.add_task(1);
  EXPECT_THROW(b.add_edge(a, c, -0.5), Error);
}

TEST(TaskGraphBuilder, RejectsDuplicateEdge) {
  TaskGraphBuilder b;
  TaskId a = b.add_task(1), c = b.add_task(1);
  b.add_edge(a, c, 1.0);
  b.add_edge(a, c, 2.0);
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(TaskGraphBuilder, RejectsTwoNodeCycle) {
  TaskGraphBuilder b;
  TaskId a = b.add_task(1), c = b.add_task(1);
  b.add_edge(a, c, 1.0);
  b.add_edge(c, a, 1.0);
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(TaskGraphBuilder, RejectsLongerCycle) {
  TaskGraphBuilder b;
  TaskId t0 = b.add_task(1), t1 = b.add_task(1), t2 = b.add_task(1),
         t3 = b.add_task(1);
  b.add_edge(t0, t1, 1.0);
  b.add_edge(t1, t2, 1.0);
  b.add_edge(t2, t3, 1.0);
  b.add_edge(t3, t1, 1.0);
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(TaskGraph, AdjacencyIsConsistentBothWays) {
  TaskGraph g = test::small_diamond();
  ASSERT_EQ(g.num_tasks(), 4u);
  ASSERT_EQ(g.num_edges(), 4u);

  // successors(a) = {b(2), c(1)}
  auto sa = g.successors(0);
  ASSERT_EQ(sa.size(), 2u);
  EXPECT_EQ(sa[0].node, 1u);
  EXPECT_DOUBLE_EQ(sa[0].comm, 2.0);
  EXPECT_EQ(sa[1].node, 2u);
  EXPECT_DOUBLE_EQ(sa[1].comm, 1.0);

  // predecessors(d) = {b(1), c(3)}
  auto pd = g.predecessors(3);
  ASSERT_EQ(pd.size(), 2u);
  EXPECT_EQ(pd[0].node, 1u);
  EXPECT_DOUBLE_EQ(pd[0].comm, 1.0);
  EXPECT_EQ(pd[1].node, 2u);
  EXPECT_DOUBLE_EQ(pd[1].comm, 3.0);

  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
}

// Every predecessor entry's recorded edge id names the edge a linear scan
// of the producer's successors finds, and edges() lists edges in id order.
void expect_edge_ids_match_scan(const TaskGraph& g) {
  const std::vector<Edge> edges = g.edges();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const auto preds = g.predecessors(t);
    const auto ids = g.in_edge_ids(t);
    ASSERT_EQ(ids.size(), preds.size()) << g.name() << ", task " << t;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const auto succs = g.successors(preds[i].node);
      std::size_t pos = 0;
      while (pos < succs.size() && succs[pos].node != t) ++pos;
      ASSERT_LT(pos, succs.size()) << g.name() << ", task " << t;
      EXPECT_EQ(ids[i], g.out_edge_begin(preds[i].node) + pos)
          << g.name() << ": edge " << preds[i].node << " -> " << t;
      ASSERT_LT(ids[i], edges.size());
      EXPECT_EQ(edges[ids[i]].from, preds[i].node);
      EXPECT_EQ(edges[ids[i]].to, t);
    }
  }
  // The bottom levels build() stores equal a fresh sweep bit for bit.
  const TaskId n = g.num_tasks();
  std::vector<Cost> swept(n);
  std::vector<TaskId> order(n);
  std::vector<std::uint32_t> indeg(n);
  bottom_levels_into(g, swept, order, indeg);
  const std::span<const Cost> stored = g.bottom_levels();
  ASSERT_EQ(stored.size(), n) << g.name();
  for (TaskId t = 0; t < n; ++t)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stored[t]),
              std::bit_cast<std::uint64_t>(swept[t]))
        << g.name() << ", task " << t;
}

TEST(TaskGraph, InEdgeIdsMatchSuccessorScan) {
  for (std::size_t i = 0; i < 28; ++i)
    expect_edge_ids_match_scan(test::fuzz_graph(i));
  expect_edge_ids_match_scan(test::small_diamond());
}

// Edges added in shuffled order: the CSR groups them by source in
// insertion order, and the ids still line up with the scan.
TEST(TaskGraph, InEdgeIdsSurviveShuffledInsertion) {
  const TaskGraph ref = make_workload("Laplace", 300, WorkloadParams{});
  std::vector<Edge> edges = ref.edges();
  Rng rng(7);
  rng.shuffle(edges);
  TaskGraphBuilder b;
  for (TaskId t = 0; t < ref.num_tasks(); ++t) b.add_task(ref.comp(t));
  for (const Edge& e : edges) b.add_edge(e.from, e.to, e.comm);
  const TaskGraph g = std::move(b).build();
  ASSERT_EQ(g.num_edges(), ref.num_edges());
  expect_edge_ids_match_scan(g);
}

TEST(TaskGraph, EntryAndExitLists) {
  TaskGraph g = test::small_diamond();
  EXPECT_EQ(g.entry_tasks(), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.exit_tasks(), (std::vector<TaskId>{3}));
}

TEST(TaskGraph, EdgesRoundTripThroughAccessor) {
  TaskGraph g = test::small_diamond();
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), 4u);
  // Grouped by source ascending.
  EXPECT_EQ(edges[0].from, 0u);
  EXPECT_EQ(edges[3].from, 2u);
  EXPECT_EQ(edges[3].to, 3u);
  EXPECT_DOUBLE_EQ(edges[3].comm, 3.0);
}

TEST(TaskGraph, TotalsAndCcr) {
  TaskGraph g = test::small_diamond();
  EXPECT_DOUBLE_EQ(g.total_comp(), 7.0);   // 1+3+2+1
  EXPECT_DOUBLE_EQ(g.total_comm(), 7.0);   // 2+1+1+3
  // CCR = (7/4) / (7/4) = 1.
  EXPECT_DOUBLE_EQ(g.ccr(), 1.0);
}

TEST(TaskGraph, CcrScalesWithCommWeights) {
  TaskGraphBuilder b;
  TaskId a = b.add_task(2), c = b.add_task(2);
  b.add_edge(a, c, 10.0);
  TaskGraph g = std::move(b).build();
  // avg comm 10, avg comp 2 -> CCR 5.
  EXPECT_DOUBLE_EQ(g.ccr(), 5.0);
}

TEST(TaskGraph, NamePropagates) {
  TaskGraphBuilder b;
  b.set_name("my-graph");
  b.add_task(1);
  TaskGraph g = std::move(b).build();
  EXPECT_EQ(g.name(), "my-graph");
}

// --- DOT export ---------------------------------------------------------------

TEST(Dot, ContainsNodesAndEdges) {
  TaskGraph g = test::small_diamond();
  std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("t2 -> t3"), std::string::npos);
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);  // edge c->d
}

TEST(Dot, UsesGraphName) {
  TaskGraph g = test::small_diamond();
  EXPECT_NE(to_dot(g).find("small-diamond"), std::string::npos);
}

// --- Serialization --------------------------------------------------------------

TEST(Serialize, RoundTripPreservesEverything) {
  TaskGraph g = test::small_diamond();
  TaskGraph h = from_text(to_text(g));
  ASSERT_EQ(h.num_tasks(), g.num_tasks());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.name(), g.name());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_DOUBLE_EQ(h.comp(t), g.comp(t));
  auto ge = g.edges(), he = h.edges();
  for (std::size_t i = 0; i < ge.size(); ++i) {
    EXPECT_EQ(he[i].from, ge[i].from);
    EXPECT_EQ(he[i].to, ge[i].to);
    EXPECT_DOUBLE_EQ(he[i].comm, ge[i].comm);
  }
}

TEST(Serialize, RoundTripPreservesRandomWeightsExactly) {
  WorkloadParams params;
  params.seed = 99;
  params.ccr = 3.7;
  TaskGraph g = random_dag(40, 0.2, params);
  TaskGraph h = from_text(to_text(g));
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_EQ(h.comp(t), g.comp(t));  // bitwise equality via %.17g
  auto ge = g.edges(), he = h.edges();
  ASSERT_EQ(ge.size(), he.size());
  for (std::size_t i = 0; i < ge.size(); ++i)
    EXPECT_EQ(he[i].comm, ge[i].comm);
}

TEST(Serialize, AcceptsCommentsAndBlankLines) {
  std::string text =
      "# a comment\n"
      "flb-taskgraph 1\n"
      "\n"
      "tasks 2\n"
      "# another\n"
      "edges 1\n"
      "t 0 1.5\n"
      "t 1 2.5\n"
      "e 0 1 0.5\n";
  TaskGraph g = from_text(text);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_DOUBLE_EQ(g.comp(1), 2.5);
}

TEST(Serialize, RejectsBadMagic) {
  EXPECT_THROW(from_text("not-a-graph 1\n"), Error);
}

TEST(Serialize, RejectsTruncatedTaskList) {
  EXPECT_THROW(from_text("flb-taskgraph 1\ntasks 2\nedges 0\nt 0 1\n"),
               Error);
}

TEST(Serialize, RejectsOutOfOrderIds) {
  EXPECT_THROW(
      from_text("flb-taskgraph 1\ntasks 2\nedges 0\nt 1 1\nt 0 1\n"),
      Error);
}

TEST(Serialize, RejectsEdgeOutOfRange) {
  EXPECT_THROW(
      from_text("flb-taskgraph 1\ntasks 1\nedges 1\nt 0 1\ne 0 7 1\n"),
      Error);
}

TEST(Serialize, NamelessGraphStaysNameless) {
  TaskGraphBuilder b;
  b.add_task(1);
  TaskGraph g = std::move(b).build();
  TaskGraph h = from_text(to_text(g));
  EXPECT_TRUE(h.name().empty());
}

}  // namespace
}  // namespace flb
