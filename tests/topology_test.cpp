// Tests for interconnect topologies and for routed schedule replay
// (simulate with SimOptions::topology).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/error.hpp"
#include "flb/util/fnv1a.hpp"
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

/// A routed replay of `s` on `t`.
SimResult replay(const TaskGraph& g, const Schedule& s, const Topology& t,
                 const std::vector<Cost>* work = nullptr) {
  return simulate(g, s, {.topology = &t, .work_override = work});
}

/// Busy time per link, summed from a replay's reservation log.
std::vector<Cost> link_busy(const Topology& t, const SimResult& r) {
  std::vector<Cost> busy(t.num_links(), 0.0);
  for (const platform::LinkOccupancy& o : r.link_occupancies)
    busy[o.link] += o.end - o.begin;
  return busy;
}

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
  const Topology clique = Topology::clique(4);
  SimResult r = replay(g, s, clique);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_EQ(r.link_occupancies.size(), 3u);
  const std::vector<Cost> busy = link_busy(clique, r);
  EXPECT_DOUBLE_EQ(*std::max_element(busy.begin(), busy.end()), 4.0);
  EXPECT_DOUBLE_EQ(std::accumulate(busy.begin(), busy.end(), 0.0), 12.0);
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
  const Topology star = Topology::star(4);
  SimResult r = replay(g, s, star);
  // Link (0,1) carries three 4-unit transfers starting at 1: busy till 13;
  // the last message then hops to its leaf.
  const std::vector<Cost> busy = link_busy(star, r);
  EXPECT_DOUBLE_EQ(*std::max_element(busy.begin(), busy.end()), 12.0);
  EXPECT_GE(r.makespan, 13.0 + 4.0);  // last arrival >= 17
  EXPECT_EQ(r.link_occupancies.size(), 1u + 2u + 2u);
}

TEST(TopologySim, CliqueNeverFasterThanSparseTopologies) {
  const ProcId procs = 4;
  const Topology clique = Topology::clique(procs);
  const Topology ring = Topology::ring(procs);
  const Topology star = Topology::star(procs);
  const Topology mesh = Topology::mesh2d(2, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, procs);
    const Cost on_clique = replay(g, s, clique).makespan;
    EXPECT_LE(on_clique, replay(g, s, ring).makespan + 1e-9) << g.name();
    EXPECT_LE(on_clique, replay(g, s, star).makespan + 1e-9) << g.name();
    EXPECT_LE(on_clique, replay(g, s, mesh).makespan + 1e-9) << g.name();
  }
}

TEST(TopologySim, CliqueLowerBoundedByContentionFreeModel) {
  // Clique links are dedicated per pair but still serialize repeated
  // messages between the same pair, so the clique simulation can never
  // beat the paper's contention-free model.
  const Topology clique = Topology::clique(3);
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, 3);
    Cost free = simulate(g, s).makespan;
    EXPECT_GE(replay(g, s, clique).makespan, free - 1e-9) << g.name();
  }
}

TEST(TopologySim, SingleNodeRunsSequentially) {
  TaskGraph g = test::fuzz_graph(4);
  FlbScheduler flb;
  Schedule s = flb.run(g, 1);
  SimResult r = replay(g, s, Topology::clique(1));
  EXPECT_NEAR(r.makespan, g.total_comp(), 1e-9);
  EXPECT_TRUE(r.link_occupancies.empty());
}

TEST(TopologySim, RejectsMismatchedSizes) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  EXPECT_THROW((void)replay(g, s, Topology::clique(3)), Error);
}

// A routed replay models neither ports nor faults: asking for either is an
// error, not a silent contention-free run.
TEST(TopologySim, RejectsPortModelsAndFaultPlans) {
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  const Topology ring = Topology::ring(3);
  for (SimNetwork net :
       {SimNetwork::kSinglePortSend, SimNetwork::kSinglePortSendRecv})
    EXPECT_THROW(
        (void)simulate(g, s, {.network = net, .topology = &ring}), Error);

  FaultPlan plan;
  plan.failures.push_back({1, 0.5 * s.makespan()});
  EXPECT_THROW((void)simulate(g, s, {.topology = &ring, .faults = &plan}),
               Error);
  // A trivial plan injects nothing, so the routed replay runs.
  const FaultPlan trivial;
  EXPECT_TRUE(
      simulate(g, s, {.topology = &ring, .faults = &trivial}).complete());
}

TEST(TopologySim, WorkOverrideReplacesDurations) {
  // Replaying with per-task overrides (the repair-replay recipe): each
  // task runs for exactly its override; kUndefinedTime keeps the graph's
  // weight.
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  const Topology ring = Topology::ring(3);
  std::vector<Cost> override_work(g.num_tasks(), kUndefinedTime);
  override_work[0] = g.comp(0) * 0.5;
  override_work[1] = 0.0;
  SimResult r = replay(g, s, ring, &override_work);
  ASSERT_TRUE(r.complete());
  EXPECT_NEAR(r.finish[0] - r.start[0], g.comp(0) * 0.5, 1e-9);
  EXPECT_NEAR(r.finish[1] - r.start[1], 0.0, 1e-9);
  for (TaskId t = 2; t < g.num_tasks(); ++t)
    EXPECT_NEAR(r.finish[t] - r.start[t], g.comp(t), 1e-9) << g.name();

  // A wrong-sized override is rejected.
  std::vector<Cost> wrong(g.num_tasks() + 1, kUndefinedTime);
  EXPECT_THROW((void)replay(g, s, ring, &wrong), Error);
}

// --- Bit-identity pin of the routed replay ---------------------------------------

/// The 48 replays of one interconnect: FLB's schedules of fuzz_graph(0..11)
/// on all of its nodes, each replayed on the graph and on a copy with
/// halved edge costs, without and with every even task's work overridden
/// to 0.7 x its computation.
template <typename Replay>
void for_each_replay(const Topology& t, Replay&& replay) {
  for (std::size_t i = 0; i < 12; ++i) {
    const TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    const Schedule s = flb.run(g, t.num_nodes());
    std::vector<Cost> work(g.num_tasks(), kUndefinedTime);
    for (TaskId v = 0; v < g.num_tasks(); v += 2) work[v] = 0.7 * g.comp(v);
    const TaskGraph halved = test::scale_comm(g, 0.5);
    for (const TaskGraph* h : {&g, &halved}) {
      replay(*h, s, nullptr);
      replay(*h, s, &work);
    }
  }
}

struct ReplayGolden {
  std::uint64_t digest;  ///< FNV-1a chained over the row's 48 replays
  std::size_t hops;      ///< reserved hops summed over them
};

// One row per test::topology_zoo() interconnect, in zoo order.
const ReplayGolden kReplays[] = {
    {0x2367883d9bea6e03ull, 0},
    {0x41c28644ae5b24feull, 932},
    {0x9d28b49bd97ce284ull, 728},
    {0x0722ed8da1326050ull, 1644},
    {0xd056ed44c9acd464ull, 1916},
    {0xf045e3af3443fd01ull, 1628},
    {0xfaf2e19d1aebe063ull, 2032},
    {0x0247ec05fb6f9339ull, 2268},
    {0x471327ce98f8c2a4ull, 2300},
    {0xd6c0f1db905d49ebull, 1272},
    {0x75a709f9720ad916ull, 1420},
    {0xf76a264b29ba59efull, 1884},
    {0x9d28b49bd97ce284ull, 728},
    {0xac10a6ddb5357602ull, 1320},
    {0x85218180edac6bd5ull, 1092},
    {0xe90b2d2322aa1e0eull, 1636},
    {0x9654279e8c6bc831ull, 1436},
    {0x3d6fbada4ec89434ull, 1636},
    {0xa0059dcc1822081bull, 1988},
    {0x0266232a5ea122a3ull, 1752},
    {0x7c110c543de4663eull, 2480},
    {0x560e837fa49c59b2ull, 2172},
    {0xa3405f1aa6c12cceull, 2036},
    {0x971e2673bfb0fbf0ull, 2432},
    {0x544957fd60a859b2ull, 2176},
    {0x85bf2d02c7b298fbull, 3308},
    {0x4c829f1410f430c0ull, 2504},
    {0x9c1f039e96e6fb4full, 2168},
    {0x8394d22fa843fa6cull, 2260},
    {0x02de82ea7edea094ull, 1824},
    {0xd2d1c0578c60d7a6ull, 1644},
    {0x681c2f7a7d7b7056ull, 3540},
    {0x9d28b49bd97ce284ull, 728},
    {0xd3ff36bdfc9f1050ull, 856},
    {0x25eae39c4e9d1aaeull, 1656},
    {0x88c8be389ec531a3ull, 1372},
    {0xf978371cb14032c9ull, 1260},
    {0x5d7f292c6f121a5bull, 1816},
};

// Every start and finish bit, the message count, the network busy time and
// the makespan of every replay, chained per interconnect.
TEST(TopologySim, ReplaysBitIdentical) {
  const std::vector<Topology> zoo = test::topology_zoo();
  ASSERT_EQ(zoo.size(), std::size(kReplays));
  for (std::size_t z = 0; z < zoo.size(); ++z) {
    Fnv1a h;
    std::size_t hops = 0;
    for_each_replay(zoo[z], [&](const TaskGraph& g, const Schedule& s,
                                const std::vector<Cost>* work) {
      const SimResult r = replay(g, s, zoo[z], work);
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        h.add_u64(std::bit_cast<std::uint64_t>(r.start[v]));
        h.add_u64(std::bit_cast<std::uint64_t>(r.finish[v]));
      }
      h.add_u64(r.messages);
      h.add_u64(std::bit_cast<std::uint64_t>(r.network_busy));
      h.add_u64(std::bit_cast<std::uint64_t>(r.makespan));
      hops += r.link_occupancies.size();
    });
    EXPECT_EQ(h.value(), kReplays[z].digest)
        << "zoo[" << z << "] {0x" << std::hex << h.value() << "ull, "
        << std::dec << hops << "},";
    EXPECT_EQ(hops, kReplays[z].hops) << "zoo[" << z << "]";
  }
}

// The reservation log of every replay honours link exclusivity and holds
// one entry per hop of every remote message's route.
TEST(TopologySim, LinkLogHonorsLinkExclusivity) {
  for (const Topology& t : test::topology_zoo()) {
    for_each_replay(t, [&](const TaskGraph& g, const Schedule& s,
                           const std::vector<Cost>* work) {
      const SimResult r = replay(g, s, t, work);
      std::size_t hops = 0;
      for (TaskId v = 0; v < g.num_tasks(); ++v)
        for (const Adj& a : g.successors(v))
          hops += t.hops(s.proc(v), s.proc(a.node));
      EXPECT_EQ(r.link_occupancies.size(), hops) << g.name();
      for (const Violation& v :
           validate_link_occupancies(t, r.link_occupancies))
        ADD_FAILURE() << g.name() << " on " << t.num_nodes()
                      << " nodes: " << to_string(v);
    });
  }
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
