// Tests for interconnect topologies and topology-aware schedule execution.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// --- Topology construction and routing -----------------------------------------

TEST(Topology, CliqueShape) {
  Topology t = Topology::clique(5);
  EXPECT_EQ(t.num_nodes(), 5u);
  EXPECT_EQ(t.num_links(), 10u);
  EXPECT_EQ(t.diameter(), 1u);
  EXPECT_EQ(t.hops(0, 4), 1u);
  EXPECT_EQ(t.hops(2, 2), 0u);
  EXPECT_EQ(t.route(1, 3).size(), 1u);
  EXPECT_TRUE(t.route(2, 2).empty());
}

TEST(Topology, RingShape) {
  Topology t = Topology::ring(6);
  EXPECT_EQ(t.num_links(), 6u);
  EXPECT_EQ(t.diameter(), 3u);
  EXPECT_EQ(t.hops(0, 3), 3u);
  EXPECT_EQ(t.hops(0, 5), 1u);  // wraparound link
  EXPECT_EQ(t.route(0, 2).size(), 2u);
}

TEST(Topology, TinyRings) {
  EXPECT_EQ(Topology::ring(1).num_links(), 0u);
  EXPECT_EQ(Topology::ring(2).num_links(), 1u);
  EXPECT_EQ(Topology::ring(3).num_links(), 3u);
}

TEST(Topology, Mesh2dShape) {
  Topology t = Topology::mesh2d(3, 4);
  EXPECT_EQ(t.num_nodes(), 12u);
  // links: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
  EXPECT_EQ(t.num_links(), 17u);
  // Manhattan distance: (0,0) -> (2,3) = 5 hops.
  EXPECT_EQ(t.hops(0, 11), 5u);
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(Topology, Torus2dShape) {
  Topology t = Topology::torus2d(3, 3);
  EXPECT_EQ(t.num_nodes(), 9u);
  // Mesh links (3*2 horizontal + 2*3 vertical = 12) plus one wraparound
  // per row and per column.
  EXPECT_EQ(t.num_links(), 18u);
  EXPECT_EQ(t.hops(0, 2), 1u);  // row wraparound beats the 2-hop mesh path
  EXPECT_EQ(t.hops(0, 6), 1u);  // column wraparound
  EXPECT_EQ(t.diameter(), 2u);

  // Dimensions of size <= 2 add no duplicate wrap links: a 2x2 torus is
  // exactly the 2x2 mesh (a 4-cycle).
  EXPECT_EQ(Topology::torus2d(2, 2).num_links(),
            Topology::mesh2d(2, 2).num_links());
  // A 1xN torus degenerates to a ring.
  EXPECT_EQ(Topology::torus2d(1, 5).num_links(), Topology::ring(5).num_links());
  EXPECT_EQ(Topology::torus2d(1, 5).diameter(), Topology::ring(5).diameter());
}

TEST(Topology, StarShape) {
  Topology t = Topology::star(6);
  EXPECT_EQ(t.num_links(), 5u);
  EXPECT_EQ(t.diameter(), 2u);
  EXPECT_EQ(t.hops(1, 2), 2u);   // leaf -> hub -> leaf
  EXPECT_EQ(t.hops(0, 3), 1u);
  auto r = t.route(1, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(t.link(r[0]), (std::pair<ProcId, ProcId>(0, 1)));
  EXPECT_EQ(t.link(r[1]), (std::pair<ProcId, ProcId>(0, 2)));
}

// Every route has hops(a, b) links and is prefix-closed: dropping its last
// link (u, b) leaves the route from a to u. route_tree(a) lists exactly
// those last links, one per other node, each after its parent's.
TEST(Topology, RoutesAreConsistentWithHopCounts) {
  for (const Topology& t : test::topology_zoo()) {
    const ProcId n = t.num_nodes();
    for (ProcId a = 0; a < n; ++a) {
      for (ProcId b = 0; b < n; ++b) {
        const auto r = t.route(a, b);
        ASSERT_EQ(r.size(), t.hops(a, b)) << a << "->" << b;
        if (a == b) continue;
        const auto [x, y] = t.link(r.back());
        ASSERT_TRUE(x == b || y == b) << a << "->" << b;
        const ProcId u = x == b ? y : x;
        const auto head = t.route(a, u);
        ASSERT_EQ(head.size() + 1, r.size()) << a << "->" << b;
        EXPECT_TRUE(std::equal(head.begin(), head.end(), r.begin()))
            << "route " << a << "->" << b << " is not prefix-closed";
      }
      std::vector<bool> seen(n, false);
      seen[a] = true;
      const auto tree = t.route_tree(a);
      ASSERT_EQ(tree.size(), n - 1u);
      for (const Topology::TreeEdge& e : tree) {
        ASSERT_LT(e.node, n);
        EXPECT_FALSE(seen[e.node]) << "node " << e.node << " listed twice";
        EXPECT_TRUE(seen[e.parent]) << "parent " << e.parent << " of "
                                    << e.node << " listed after it";
        seen[e.node] = true;
        EXPECT_EQ(t.route(a, e.node).back(), e.link);
        EXPECT_EQ(t.hops(a, e.node), t.hops(a, e.parent) + 1);
      }
    }
  }
}

TEST(Topology, FromLinksDeduplicatesAndValidates) {
  Topology t = Topology::from_links(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_EQ(t.num_links(), 2u);
  EXPECT_THROW(Topology::from_links(3, {{0, 5}}), Error);
  EXPECT_THROW(Topology::from_links(3, {{1, 1}}), Error);
  // Disconnected network rejected.
  EXPECT_THROW(Topology::from_links(4, {{0, 1}, {2, 3}}), Error);
}

// --- Topology-aware execution ----------------------------------------------------

TEST(TopologySim, CliqueMatchesDedicatedLinkExpectations) {
  // Root fans out to 3 children on distinct processors: on a clique every
  // pair has its own link, so all messages travel in parallel — identical
  // to the contention-free model.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = out_tree_graph(2, 3, p);
  Schedule s(4, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 5.0, 6.0);
  s.assign(2, 2, 5.0, 6.0);
  s.assign(3, 3, 5.0, 6.0);
  TopologySimResult r =
      simulate_on_topology(g, s, Topology::clique(4));
  EXPECT_DOUBLE_EQ(r.sim.makespan, 6.0);
  EXPECT_EQ(r.total_hops, 3u);
  EXPECT_DOUBLE_EQ(r.max_link_busy, 4.0);
  EXPECT_DOUBLE_EQ(r.total_link_busy, 12.0);
}

TEST(TopologySim, StarHubSerializesEverything) {
  // Same fan-out on a star rooted elsewhere: all three messages cross a
  // hub link; the three transfers into the hub share no link (0-1, 0-2,
  // 0-3 are distinct star links when the producer sits on the hub)...
  // place the producer on leaf 1 instead so every message first crosses
  // link (0,1), which then serializes them.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = out_tree_graph(2, 3, p);
  Schedule s(4, 4);
  s.assign(0, 1, 0.0, 1.0);   // producer on leaf 1
  s.assign(1, 0, 5.0, 6.0);   // hub: 1 hop
  s.assign(2, 2, 9.0, 10.0);  // leaf: 2 hops
  s.assign(3, 3, 9.0, 10.0);
  TopologySimResult r = simulate_on_topology(g, s, Topology::star(4));
  // Link (0,1) carries three 4-unit transfers starting at 1: busy till 13;
  // the last message then hops to its leaf.
  EXPECT_DOUBLE_EQ(r.max_link_busy, 12.0);
  EXPECT_GE(r.sim.makespan, 13.0 + 4.0);  // last arrival >= 17
  EXPECT_EQ(r.total_hops, 1u + 2u + 2u);
}

TEST(TopologySim, CliqueNeverFasterThanSparseTopologies) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    const ProcId procs = 4;
    Schedule s = flb.run(g, procs);
    Cost clique =
        simulate_on_topology(g, s, Topology::clique(procs)).sim.makespan;
    Cost ring =
        simulate_on_topology(g, s, Topology::ring(procs)).sim.makespan;
    Cost star =
        simulate_on_topology(g, s, Topology::star(procs)).sim.makespan;
    Cost mesh =
        simulate_on_topology(g, s, Topology::mesh2d(2, 2)).sim.makespan;
    EXPECT_LE(clique, ring + 1e-9) << g.name();
    EXPECT_LE(clique, star + 1e-9) << g.name();
    EXPECT_LE(clique, mesh + 1e-9) << g.name();
  }
}

TEST(TopologySim, CliqueLowerBoundedByContentionFreeModel) {
  // Clique links are dedicated per pair but still serialize repeated
  // messages between the same pair, so the clique simulation can never
  // beat the paper's contention-free model.
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, 3);
    Cost free = simulate(g, s).makespan;
    Cost clique =
        simulate_on_topology(g, s, Topology::clique(3)).sim.makespan;
    EXPECT_GE(clique, free - 1e-9) << g.name();
  }
}

TEST(TopologySim, SingleNodeRunsSequentially) {
  TaskGraph g = test::fuzz_graph(4);
  FlbScheduler flb;
  Schedule s = flb.run(g, 1);
  TopologySimResult r = simulate_on_topology(g, s, Topology::clique(1));
  EXPECT_NEAR(r.sim.makespan, g.total_comp(), 1e-9);
  EXPECT_EQ(r.total_hops, 0u);
}

TEST(TopologySim, RejectsMismatchedSizes) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  EXPECT_THROW((void)simulate_on_topology(g, s, Topology::clique(3)), Error);
}

TEST(TopologySim, WorkOverrideReplacesDurations) {
  // Replaying with per-task overrides (the repair-replay recipe): each
  // task runs for exactly its override; kUndefinedTime keeps the graph's
  // weight.
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  std::vector<Cost> override_work(g.num_tasks(), kUndefinedTime);
  override_work[0] = g.comp(0) * 0.5;
  override_work[1] = 0.0;
  TopologySimResult r = simulate_on_topology(g, s, Topology::ring(3), 1.0,
                                             &override_work);
  ASSERT_TRUE(r.sim.complete());
  EXPECT_NEAR(r.sim.finish[0] - r.sim.start[0], g.comp(0) * 0.5, 1e-9);
  EXPECT_NEAR(r.sim.finish[1] - r.sim.start[1], 0.0, 1e-9);
  for (TaskId t = 2; t < g.num_tasks(); ++t)
    EXPECT_NEAR(r.sim.finish[t] - r.sim.start[t], g.comp(t), 1e-9)
        << g.name();

  // A wrong-sized override is rejected.
  std::vector<Cost> wrong(g.num_tasks() + 1, kUndefinedTime);
  EXPECT_THROW(
      (void)simulate_on_topology(g, s, Topology::ring(3), 1.0, &wrong),
      Error);
}

// --- Weight perturbation -----------------------------------------------------------

TEST(PerturbWeights, PreservesStructure) {
  TaskGraph g = test::fuzz_graph(2);
  TaskGraph h = perturb_weights(g, 0.3, 7);
  ASSERT_EQ(h.num_tasks(), g.num_tasks());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  auto ge = g.edges(), he = h.edges();
  for (std::size_t i = 0; i < ge.size(); ++i) {
    EXPECT_EQ(he[i].from, ge[i].from);
    EXPECT_EQ(he[i].to, ge[i].to);
    EXPECT_GE(he[i].comm, ge[i].comm * 0.7 - 1e-12);
    EXPECT_LE(he[i].comm, ge[i].comm * 1.3 + 1e-12);
  }
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_GE(h.comp(t), g.comp(t) * 0.7 - 1e-12);
    EXPECT_LE(h.comp(t), g.comp(t) * 1.3 + 1e-12);
  }
}

TEST(PerturbWeights, ZeroSpreadIsIdentity) {
  TaskGraph g = test::fuzz_graph(3);
  TaskGraph h = perturb_weights(g, 0.0, 9);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_DOUBLE_EQ(h.comp(t), g.comp(t));
}

TEST(PerturbWeights, SeededAndValidated) {
  TaskGraph g = test::fuzz_graph(1);
  TaskGraph a = perturb_weights(g, 0.5, 11);
  TaskGraph b = perturb_weights(g, 0.5, 11);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_DOUBLE_EQ(a.comp(t), b.comp(t));
  EXPECT_THROW((void)perturb_weights(g, 1.0, 1), Error);
  EXPECT_THROW((void)perturb_weights(g, -0.1, 1), Error);
}

TEST(PerturbWeights, NominalScheduleReexecutesOnPerturbedGraph) {
  // The robustness-study recipe: schedule with nominal weights, execute
  // the same dispatch order on perturbed weights via the simulator.
  TaskGraph g = test::fuzz_graph(6);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  TaskGraph perturbed = perturb_weights(g, 0.2, 13);
  SimResult r = simulate(perturbed, s);
  EXPECT_GT(r.makespan, 0.0);
  // Every task ran exactly once with the perturbed duration.
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_NEAR(r.finish[t] - r.start[t], perturbed.comp(t), 1e-9);
}

}  // namespace
}  // namespace flb
