#include "flb/graph/properties.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/util/rng.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// Checks that `order` is a valid topological order of g.
void expect_topological(const TaskGraph& g, const std::vector<TaskId>& order) {
  ASSERT_EQ(order.size(), g.num_tasks());
  std::vector<std::size_t> pos(g.num_tasks());
  std::set<TaskId> seen;
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = i;
    EXPECT_TRUE(seen.insert(order[i]).second) << "duplicate in order";
  }
  for (const Edge& e : g.edges())
    EXPECT_LT(pos[e.from], pos[e.to])
        << "edge " << e.from << "->" << e.to << " violated";
}

TEST(TopologicalOrder, ValidOnDiamond) {
  TaskGraph g = test::small_diamond();
  expect_topological(g, topological_order(g));
}

TEST(TopologicalOrder, ValidOnFuzzCorpus) {
  for (std::size_t i = 0; i < 20; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    expect_topological(g, topological_order(g));
  }
}

TEST(TopologicalOrder, EmptyGraph) {
  TaskGraphBuilder b;
  TaskGraph g = std::move(b).build();
  EXPECT_TRUE(topological_order(g).empty());
}

// The naive ready list priority_order() must agree with: each step scans
// every task for the least (key, id) among those whose predecessors are
// all taken. O(V^2).
template <typename Key>
std::vector<TaskId> naive_priority_order(const TaskGraph& g,
                                         const std::vector<Key>& key) {
  const TaskId n = g.num_tasks();
  std::vector<std::size_t> waiting(n);
  for (TaskId t = 0; t < n; ++t) waiting[t] = g.in_degree(t);
  std::vector<char> taken(n, 0);
  std::vector<TaskId> order;
  for (TaskId step = 0; step < n; ++step) {
    TaskId best = kInvalidTask;
    for (TaskId t = 0; t < n; ++t)
      if (taken[t] == 0 && waiting[t] == 0 &&
          (best == kInvalidTask || key[t] < key[best]))
        best = t;  // strict '<' over ascending ids: the smaller id wins ties
    taken[best] = 1;
    order.push_back(best);
    for (const Adj& a : g.successors(best)) --waiting[a.node];
  }
  return order;
}

template <typename Key>
void expect_matches_naive(const TaskGraph& g, const std::vector<Key>& key,
                          const std::string& what) {
  const std::vector<TaskId> order =
      priority_order(g, [&](TaskId t) { return key[t]; });
  expect_topological(g, order);
  EXPECT_EQ(order, naive_priority_order(g, key)) << g.name() << ": " << what;
}

// Three key families: bottom levels taken largest first (FCP's and the
// mappers' priority), all-equal keys (pure id order among ready tasks) and
// random pairs whose first part repeats often (MCP's (ALAP, tie) shape).
void expect_matches_naive_for_keys(const TaskGraph& g) {
  std::vector<Cost> neg_bl = bottom_levels(g);
  for (Cost& v : neg_bl) v = -v;
  expect_matches_naive(g, neg_bl, "-bottom level");
  expect_matches_naive(g, std::vector<Cost>(g.num_tasks(), 0.0), "all equal");
  Rng rng(g.num_tasks());
  std::vector<std::pair<Cost, double>> pairs(g.num_tasks());
  for (auto& [first, second] : pairs) {
    first = static_cast<Cost>(rng.next_below(3));
    second = rng.next_double();
  }
  expect_matches_naive(g, pairs, "random pairs");
}

TEST(PriorityOrder, MatchesNaiveReadyListReference) {
  for (std::size_t i = 0; i < 12; ++i)
    expect_matches_naive_for_keys(test::fuzz_graph(i));
  for (const std::string& name : workload_names())
    expect_matches_naive_for_keys(make_workload(name, 200, WorkloadParams{}));
  expect_matches_naive_for_keys(paper_example_graph());

  TaskGraphBuilder b;
  const TaskGraph empty = std::move(b).build();
  EXPECT_TRUE(priority_order(empty, [](TaskId) { return 0.0; }).empty());
}

TEST(BottomLevels, HandComputedDiamond) {
  TaskGraph g = test::small_diamond();
  auto bl = bottom_levels(g);
  EXPECT_DOUBLE_EQ(bl[3], 1.0);  // d
  EXPECT_DOUBLE_EQ(bl[1], 5.0);  // b: 3 + 1 + 1
  EXPECT_DOUBLE_EQ(bl[2], 6.0);  // c: 2 + 3 + 1
  EXPECT_DOUBLE_EQ(bl[0], 8.0);  // a: 1 + max(2+5, 1+6)
}

TEST(BottomLevels, PaperExampleMatchesTable1) {
  TaskGraph g = paper_example_graph();
  auto bl = bottom_levels(g);
  EXPECT_DOUBLE_EQ(bl[0], 15.0);
  EXPECT_DOUBLE_EQ(bl[1], 11.0);
  EXPECT_DOUBLE_EQ(bl[2], 9.0);
  EXPECT_DOUBLE_EQ(bl[3], 12.0);
  EXPECT_DOUBLE_EQ(bl[4], 6.0);
  EXPECT_DOUBLE_EQ(bl[5], 8.0);
  EXPECT_DOUBLE_EQ(bl[6], 6.0);
  EXPECT_DOUBLE_EQ(bl[7], 2.0);
}

TEST(BottomLevels, ComputationOnlyVariantIgnoresComm) {
  TaskGraph g = test::small_diamond();
  auto bl = computation_bottom_levels(g);
  EXPECT_DOUBLE_EQ(bl[3], 1.0);
  EXPECT_DOUBLE_EQ(bl[1], 4.0);
  EXPECT_DOUBLE_EQ(bl[2], 3.0);
  EXPECT_DOUBLE_EQ(bl[0], 5.0);
}

TEST(BottomLevels, ExitTaskEqualsOwnComp) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto bl = bottom_levels(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      if (g.is_exit(t)) EXPECT_DOUBLE_EQ(bl[t], g.comp(t));
  }
}

TEST(BottomLevels, MonotoneAlongEdges) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto bl = bottom_levels(g);
    for (const Edge& e : g.edges())
      EXPECT_GE(bl[e.from], g.comp(e.from) + e.comm + bl[e.to] - 1e-12);
  }
}

TEST(TopLevels, HandComputedDiamond) {
  TaskGraph g = test::small_diamond();
  auto tl = top_levels(g);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[1], 3.0);  // 0 + 1 + 2
  EXPECT_DOUBLE_EQ(tl[2], 2.0);  // 0 + 1 + 1
  EXPECT_DOUBLE_EQ(tl[3], 7.0);  // max(3+3+1, 2+2+3)
}

TEST(TopLevels, EntryTasksAreZero) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto tl = top_levels(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      if (g.is_entry(t)) EXPECT_DOUBLE_EQ(tl[t], 0.0);
  }
}

TEST(CriticalPath, DiamondAndPaperExample) {
  EXPECT_DOUBLE_EQ(critical_path(test::small_diamond()), 8.0);
  EXPECT_DOUBLE_EQ(critical_path(paper_example_graph()), 15.0);
}

TEST(CriticalPath, EqualsMaxTlPlusBl) {
  for (std::size_t i = 0; i < 15; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto tl = top_levels(g);
    auto bl = bottom_levels(g);
    Cost best = 0.0;
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      best = std::max(best, tl[t] + bl[t]);
    EXPECT_NEAR(critical_path(g), best, 1e-9);
  }
}

TEST(CriticalPath, ComputationVariantIsAtMostFull) {
  for (std::size_t i = 0; i < 15; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    EXPECT_LE(computation_critical_path(g), critical_path(g) + 1e-12);
  }
}

TEST(CriticalPath, ChainIsSumOfEverything) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 2.0;
  TaskGraph g = chain_graph(5, p);
  // 5 comps of 1 plus 4 comms of 2.
  EXPECT_DOUBLE_EQ(critical_path(g), 5.0 + 8.0);
  EXPECT_DOUBLE_EQ(computation_critical_path(g), 5.0);
}

TEST(Alap, DiamondValues) {
  TaskGraph g = test::small_diamond();
  auto alap = alap_times(g);
  EXPECT_DOUBLE_EQ(alap[0], 0.0);
  EXPECT_DOUBLE_EQ(alap[1], 3.0);
  EXPECT_DOUBLE_EQ(alap[2], 2.0);
  EXPECT_DOUBLE_EQ(alap[3], 7.0);
}

TEST(Alap, NonNegativeAndMonotoneAlongEdges) {
  for (std::size_t i = 0; i < 15; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto alap = alap_times(g);
    for (TaskId t = 0; t < g.num_tasks(); ++t) EXPECT_GE(alap[t], -1e-9);
    for (const Edge& e : g.edges())
      EXPECT_LT(alap[e.from], alap[e.to] + 1e-9);
  }
}

TEST(DepthLevels, DiamondDepths) {
  TaskGraph g = test::small_diamond();
  auto depth = depth_levels(g);
  EXPECT_EQ(depth[0], 0u);
  EXPECT_EQ(depth[1], 1u);
  EXPECT_EQ(depth[2], 1u);
  EXPECT_EQ(depth[3], 2u);
}

TEST(LevelDecomposition, PartitionsAllTasks) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    auto levels = level_decomposition(g);
    std::size_t total = 0;
    for (const auto& level : levels) {
      EXPECT_FALSE(level.empty());
      total += level.size();
    }
    EXPECT_EQ(total, g.num_tasks());
  }
}

TEST(LevelDecomposition, StencilLevelsAreTimeSteps) {
  WorkloadParams p;
  p.random_weights = false;
  TaskGraph g = stencil_graph(7, 5, p);
  auto levels = level_decomposition(g);
  ASSERT_EQ(levels.size(), 5u);
  for (const auto& level : levels) EXPECT_EQ(level.size(), 7u);
  EXPECT_EQ(max_level_width(g), 7u);
}

TEST(MaxLevelWidth, IndependentTasksAreOneLevel) {
  TaskGraph g = independent_graph(12);
  EXPECT_EQ(max_level_width(g), 12u);
}

}  // namespace
}  // namespace flb
