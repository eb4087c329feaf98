// Tests for the multi-step building blocks beyond DSC-LLB: Sarkar's
// edge-zeroing clustering and the wrap / work-balance cluster mappings.

#include <set>

#include <gtest/gtest.h>

#include "flb/algos/llb.hpp"
#include "flb/algos/mapping.hpp"
#include "flb/algos/sarkar.hpp"
#include "flb/graph/properties.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// Shared feasibility check for a clustering's own unbounded schedule
// (duplicated intentionally from dsc_llb_test to stay independent).
void expect_clustering_feasible(const TaskGraph& g, const Clustering& c) {
  ASSERT_EQ(c.cluster_of.size(), g.num_tasks());
  ASSERT_EQ(c.members.size(), c.num_clusters);
  std::set<TaskId> seen;
  for (ClusterId cl = 0; cl < c.num_clusters; ++cl)
    for (TaskId t : c.members[cl]) {
      EXPECT_EQ(c.cluster_of[t], cl);
      EXPECT_TRUE(seen.insert(t).second);
    }
  EXPECT_EQ(seen.size(), g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_NEAR(c.finish[t], c.start[t] + g.comp(t), 1e-9);
  for (ClusterId cl = 0; cl < c.num_clusters; ++cl)
    for (std::size_t i = 1; i < c.members[cl].size(); ++i)
      EXPECT_GE(c.start[c.members[cl][i]],
                c.finish[c.members[cl][i - 1]] - 1e-9);
  for (const Edge& e : g.edges()) {
    Cost comm = c.cluster_of[e.from] == c.cluster_of[e.to] ? 0.0 : e.comm;
    EXPECT_GE(c.start[e.to], c.finish[e.from] + comm - 1e-9);
  }
}

// --- Sarkar ------------------------------------------------------------------

TEST(Sarkar, FeasibleOnFuzzCorpus) {
  for (std::size_t i = 0; i < 14; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    expect_clustering_feasible(g, sarkar_cluster(g));
  }
}

TEST(Sarkar, FeasibleOnWorkloads) {
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 29;
    params.ccr = 5.0;
    TaskGraph g = make_workload(name, 150, params);
    expect_clustering_feasible(g, sarkar_cluster(g));
  }
}

TEST(Sarkar, NeverWorseThanSingletonClustering) {
  // Merges are only accepted when the evaluated length does not grow, so
  // the final length cannot exceed the no-clustering list schedule.
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    Clustering c = sarkar_cluster(g);
    // Singleton baseline = comm-inclusive list schedule on unbounded
    // procs; its length is bounded by the critical path... compare against
    // the critical path directly (the singleton evaluation achieves it:
    // every task starts at its arrival-bound).
    EXPECT_LE(c.schedule_length(), critical_path(g) + 1e-9) << g.name();
  }
}

TEST(Sarkar, ChainCollapsesToOneCluster) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 3.0;
  TaskGraph g = chain_graph(10, p);
  Clustering c = sarkar_cluster(g);
  EXPECT_EQ(c.num_clusters, 1u);
  EXPECT_DOUBLE_EQ(c.schedule_length(), 10.0);
}

TEST(Sarkar, IndependentTasksStaySeparate) {
  TaskGraph g = independent_graph(7);
  Clustering c = sarkar_cluster(g);
  EXPECT_EQ(c.num_clusters, 7u);
}

TEST(Sarkar, ZeroesHeaviestEdgesFirst) {
  // A fork with one very expensive edge and cheap others: the expensive
  // edge must end up intra-cluster.
  TaskGraphBuilder b;
  TaskId root = b.add_task(1.0);
  TaskId heavy = b.add_task(1.0);
  TaskId light1 = b.add_task(1.0);
  TaskId light2 = b.add_task(1.0);
  b.add_edge(root, heavy, 50.0);
  b.add_edge(root, light1, 0.1);
  b.add_edge(root, light2, 0.1);
  TaskGraph g = std::move(b).build();
  Clustering c = sarkar_cluster(g);
  EXPECT_EQ(c.cluster_of[root], c.cluster_of[heavy]);
}

TEST(Sarkar, EmptyGraph) {
  TaskGraphBuilder b;
  TaskGraph g = std::move(b).build();
  Clustering c = sarkar_cluster(g);
  EXPECT_EQ(c.num_clusters, 0u);
}

// --- Fixed-assignment list scheduling ------------------------------------------

TEST(FixedAssignment, RespectsTheAssignment) {
  TaskGraph g = test::fuzz_graph(2);
  std::vector<ProcId> proc_of(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) proc_of[t] = t % 3;
  Schedule s = schedule_with_fixed_assignment(g, proc_of, 3);
  ASSERT_TRUE(is_valid_schedule(g, s)) << test::violations_to_string(g, s);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_EQ(s.proc(t), proc_of[t]);
}

TEST(FixedAssignment, RejectsBadInput) {
  TaskGraph g = test::small_diamond();
  std::vector<ProcId> wrong_size(2, 0);
  EXPECT_THROW((void)schedule_with_fixed_assignment(g, wrong_size, 2), Error);
  std::vector<ProcId> out_of_range(4, 5);
  EXPECT_THROW((void)schedule_with_fixed_assignment(g, out_of_range, 2),
               Error);
}

TEST(FixedAssignment, AllOnOneProcIsSequential) {
  TaskGraph g = test::fuzz_graph(8);
  std::vector<ProcId> proc_of(g.num_tasks(), 0);
  Schedule s = schedule_with_fixed_assignment(g, proc_of, 2);
  EXPECT_NEAR(s.makespan(), g.total_comp(), 1e-9);
}

// --- Wrap and work mappings -----------------------------------------------------

TEST(Mappings, ValidAndClusterPreserving) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    Clustering c = dsc_cluster(g);
    for (ProcId procs : {2u, 4u}) {
      for (auto* map_fn : {&wrap_map, &work_map}) {
        Schedule s = (*map_fn)(g, c, procs);
        ASSERT_TRUE(is_valid_schedule(g, s))
            << g.name() << " P=" << procs << "\n"
            << test::violations_to_string(g, s);
        // Co-location: a cluster never splits across processors.
        for (ClusterId cl = 0; cl < c.num_clusters; ++cl)
          for (std::size_t k = 1; k < c.members[cl].size(); ++k)
            ASSERT_EQ(s.proc(c.members[cl][k]), s.proc(c.members[cl][0]));
      }
    }
  }
}

TEST(Mappings, WrapIsRoundRobin) {
  TaskGraph g = independent_graph(6);
  Clustering c = dsc_cluster(g);  // 6 singleton clusters, ids 0..5
  Schedule s = wrap_map(g, c, 4);
  for (TaskId t = 0; t < 6; ++t)
    EXPECT_EQ(s.proc(t), c.cluster_of[t] % 4);
}

TEST(Mappings, WorkMapBalancesClusterWeights) {
  // 4 unit tasks + 1 heavy task as singleton clusters on 2 procs: LPT puts
  // the heavy one alone-ish; max load should be near optimum.
  TaskGraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task(1.0);
  b.add_task(4.0);
  TaskGraph g = std::move(b).build();
  Clustering c = dsc_cluster(g);
  Schedule s = work_map(g, c, 2);
  ASSERT_TRUE(is_valid_schedule(g, s));
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);  // {heavy} vs {1,1,1,1}
}

// Every mapper rejects input it cannot map: no processor to map onto (wrap
// mapping used to divide by zero, work mapping to write past its load
// table) and a cluster id at or beyond num_clusters (work and LLB mapping
// used to index past their per-cluster tables).
TEST(Mappings, RejectBadInputWithError) {
  const TaskGraph g = test::fuzz_graph(3);
  const Clustering good = dsc_cluster(g);
  Clustering bad_id = good;
  bad_id.cluster_of.back() = good.num_clusters;
  Clustering bad_size = good;
  bad_size.cluster_of.pop_back();
  for (auto* map_fn : {&wrap_map, &work_map, &llb_map}) {
    EXPECT_THROW((void)(*map_fn)(g, good, 0), Error);
    EXPECT_THROW((void)(*map_fn)(g, bad_id, 2), Error);
    EXPECT_THROW((void)(*map_fn)(g, bad_size, 2), Error);
    EXPECT_TRUE(is_valid_schedule(g, (*map_fn)(g, good, 2)));
  }
}

TEST(Mappings, LlbBeatsNaiveMappingsOnAverage) {
  // The reason the authors built LLB: communication-aware mapping. Compare
  // the three mappings on DSC clusterings over the paper workloads.
  double llb_sum = 0.0, wrap_sum = 0.0, work_sum = 0.0;
  int cells = 0;
  for (const std::string& name : workload_names()) {
    WorkloadParams params;
    params.seed = 31;
    params.ccr = 2.0;
    TaskGraph g = make_workload(name, 250, params);
    Clustering c = dsc_cluster(g);
    llb_sum += llb_map(g, c, 8).makespan();
    wrap_sum += wrap_map(g, c, 8).makespan();
    work_sum += work_map(g, c, 8).makespan();
    ++cells;
  }
  EXPECT_LE(llb_sum, wrap_sum * 1.02);
  EXPECT_LE(llb_sum, work_sum * 1.02);
}

}  // namespace
}  // namespace flb
