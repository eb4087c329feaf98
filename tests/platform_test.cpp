#include "flb/platform/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flb/algos/dls.hpp"
#include "flb/algos/etf.hpp"
#include "flb/algos/heft.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/properties.hpp"
#include "flb/platform/speed_profile.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

using platform::Availability;
using platform::CommMode;
using platform::CostModel;
using platform::LinkOccupancy;
using platform::SpeedProfile;

// ---------------------------------------------------------------------------
// Golden bit-identity regression. The refactor's central promise: pricing
// clique-mode FLB through platform::CostModel changes NOTHING — not merely
// "equal makespans" but the same placements with bit-identical start/finish
// times. The digests below were captured from the pre-refactor engine.
// A failure here means the CostModel arithmetic drifted from the former
// private copy (e.g. an added `* 1.0` reordering, a max() flipped).

TEST(PlatformGolden, PaperExampleBitIdentical) {
  TaskGraph g = paper_example_graph();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  EXPECT_EQ(s.makespan(), 0x1.cp+3);
  EXPECT_EQ(schedule_digest(s), 5113259804641662334ull);
}

struct Golden {
  std::size_t fuzz_index;
  ProcId procs;
  double makespan;  // exact bits, captured pre-refactor
  std::uint64_t digest;
};

TEST(PlatformGolden, FuzzCorpusBitIdentical) {
  static const Golden kTable[] = {
      {0, 2, 0x1.5dc8027d3557fp+3, 6163402817620380191ull},
      {0, 4, 0x1.d550f6a3c200ep+2, 11984822218006859182ull},
      {0, 8, 0x1.cff4a4a4cbd88p+2, 7677375797997336011ull},
      {1, 2, 0x1.46858f397f60ep+3, 868977671700199420ull},
      {1, 4, 0x1.3670f364c0c88p+3, 8841111725626044235ull},
      {1, 8, 0x1.3670f364c0c88p+3, 14809793358818105679ull},
      {2, 2, 0x1.fa272025984d8p+4, 5508825296550152750ull},
      {2, 4, 0x1.fa272025984d8p+4, 10482687934106115347ull},
      {2, 8, 0x1.fa272025984d8p+4, 10482687934106115347ull},
      {3, 2, 0x1.02d7ad895cc41p+3, 13063748773484960717ull},
      {3, 4, 0x1.c318689a5ddc8p+2, 12371456930988836003ull},
      {3, 8, 0x1.c318689a5ddc8p+2, 4290929887168875626ull},
      {4, 2, 0x1.0e0606b5ebf5p+4, 1317999482311433074ull},
      {4, 4, 0x1.0e0606b5ebf5p+4, 16569072749546089919ull},
      {4, 8, 0x1.0e0606b5ebf5p+4, 16569072749546089919ull},
      {5, 2, 0x1.2a37db85ef14ap+4, 712509713851413856ull},
      {5, 4, 0x1.2a37db85ef14ap+4, 712509713851413856ull},
      {5, 8, 0x1.2a37db85ef14ap+4, 712509713851413856ull},
      {6, 2, 0x1.10c209b6df015p+4, 4087980554848760377ull},
      {6, 4, 0x1.c6c4f8af08d6ap+3, 5142832088180793264ull},
      {6, 8, 0x1.c6c4f8af08d6ap+3, 14266918385966217797ull},
      {7, 2, 0x1.99de8f1c62b1fp+3, 6214158040572120765ull},
      {7, 4, 0x1.312b659f0c8a2p+3, 10574706086649598071ull},
      {7, 8, 0x1.02bf97a682b29p+3, 10778113853671602819ull},
  };
  for (const Golden& row : kTable) {
    TaskGraph g = test::fuzz_graph(row.fuzz_index);
    FlbScheduler flb;
    Schedule s = flb.run(g, row.procs);
    EXPECT_EQ(s.makespan(), row.makespan)
        << "fuzz[" << row.fuzz_index << "] P=" << row.procs << " ("
        << g.name() << ")";
    EXPECT_EQ(schedule_digest(s), row.digest)
        << "fuzz[" << row.fuzz_index << "] P=" << row.procs << " ("
        << g.name() << ")";
  }
}

// Exact-scan goldens. Routed, link-busy and cold-cache resumes make EST
// destination-dependent, so the engine prices the non-EP candidate on
// every alive processor (the exact scan) instead of by Corollary 2. The
// digests, makespans and occupancy counts below were captured from the
// per-processor route-probe scan; any change to how that scan prices or
// breaks ties shows here.

// Laplace (V~200, CCR 5) on `procs` processors, fresh clique FLB run, cut
// at 0.3 of its makespan: the kept prefix is every task finished by then.
struct ExactProblem {
  TaskGraph g;
  Schedule prefix;
  Cost release;
};

ExactProblem exact_problem(ProcId procs) {
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 7;
  TaskGraph g = make_workload("Laplace", 200, params);
  Schedule fresh = FlbScheduler().run(g, procs);
  const Cost release = 0.3 * fresh.makespan();
  Schedule prefix(procs, g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (fresh.finish(t) <= release)
      prefix.assign(t, fresh.proc(t), fresh.start(t), fresh.finish(t));
  return {std::move(g), std::move(prefix), release};
}

struct ExactGolden {
  const char* name;
  double makespan;  // exact bits
  std::uint64_t digest;
  std::size_t occupancies;
};

void expect_golden(const ExactGolden& row, const Schedule& s,
                   std::size_t occupancies) {
  EXPECT_EQ(s.makespan(), row.makespan) << row.name;
  EXPECT_EQ(schedule_digest(s), row.digest) << row.name;
  EXPECT_EQ(occupancies, row.occupancies) << row.name;
}

// Calls f(golden, problem, model) for each exact-scan case: the kept
// prefix of exact_problem(procs) and the model the resume prices against —
// processor 1 dead, the rest admitted from the release, and in the cold
// cases processors 2 and 4 rebooted at it.
template <class F>
void for_each_exact_scan_case(F f) {
  const Topology mesh = Topology::mesh2d(4, 4);
  const Topology torus = Topology::torus2d(3, 3);
  const Topology ring = Topology::ring(6);
  const Topology star = Topology::star(6);
  const struct {
    const Topology* topology;  // null = clique
    ProcId procs;
    bool link_busy;
    bool cold;
    ExactGolden golden;
  } kCases[] = {
      {&mesh, 16, false, false,
       {"routed mesh2d(4,4)", 0x1.4e5f5c040e4b9p+7, 7544541009401750329ull,
        0}},
      {&mesh, 16, true, false,
       {"link-busy mesh2d(4,4)", 0x1.57c5cc6b4168bp+9,
        4071136009641348822ull, 522}},
      {&torus, 9, true, true,
       {"link-busy torus2d(3,3) + cold", 0x1.eb81efeba2372p+8,
        17534319478833599949ull, 633}},
      {&ring, 6, true, false,
       {"link-busy ring(6)", 0x1.a859ab6770057p+9, 4975385652519757329ull,
        645}},
      {&star, 6, true, false,
       {"link-busy star(6)", 0x1.a5628482f9f48p+9, 14399552044354673513ull,
        201}},
      {nullptr, 8, false, true,
       {"cold clique P=8", 0x1.1b4446f35e571p+7, 15954211974301007238ull,
        0}},
  };
  for (const auto& c : kCases) {
    const ExactProblem pb = exact_problem(c.procs);
    Availability a;
    a.alive.assign(c.procs, true);
    a.alive[1] = false;
    a.release = pb.release;
    if (c.cold) {
      // Processors 2 and 4 rebooted at the release: admitted from it, and
      // their memories lost everything they produced before it.
      a.proc_release.assign(c.procs, 0.0);
      a.cold_before.assign(c.procs, 0.0);
      for (ProcId p : {2u, 4u}) {
        a.proc_release[p] = pb.release;
        a.cold_before[p] = pb.release;
      }
    }
    CostModel model = c.topology == nullptr ? CostModel::clique(c.procs)
                      : c.link_busy ? CostModel::link_busy(*c.topology)
                                    : CostModel::routed(*c.topology);
    model.set_availability(std::move(a));
    f(c.golden, pb, model);
  }
}

TEST(PlatformGolden, ExactScanResumeBitIdentical) {
  for_each_exact_scan_case(
      [](const ExactGolden& golden, const ExactProblem& pb, CostModel& model) {
        Schedule s = FlbScheduler().resume(pb.g, pb.prefix, model);
        ASSERT_TRUE(is_valid_schedule(pb.g, s)) << golden.name;
        expect_golden(golden, s, model.occupancies().size());
      });
}

bool same_bits(Cost a, Cost b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A resume bounded by b either equals the unbounded resume bit for bit, or
// stops right after the one task it placed that finishes after b: every
// task it placed has its unbounded processor, start and finish, and its
// occupancy log is a prefix of the unbounded one. The bounds run from
// before the first resumed finish to past the makespan, and include
// finishes themselves (a task finishing exactly at b does not stop it).
// Returns how many of the bounded resumes stopped early.
std::size_t expect_bounded_resume_exact(const TaskGraph& g,
                                        const Schedule& prefix,
                                        const CostModel& machine,
                                        const std::string& what) {
  CostModel full_model = machine;
  FlbScheduler flb;
  const Schedule full = flb.resume(g, prefix, full_model);
  const std::vector<LinkOccupancy>& log = full_model.occupancies();
  std::vector<Cost> finishes;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (!prefix.is_scheduled(t)) finishes.push_back(full.finish(t));
  std::sort(finishes.begin(), finishes.end());
  if (finishes.empty()) return 0;
  std::size_t stopped = 0;
  std::vector<Cost> bounds = {-1.0, full.makespan(), kInfiniteTime};
  for (std::size_t i = 0; i < 4; ++i) {
    const Cost f = finishes[i * (finishes.size() - 1) / 3];
    bounds.push_back(f);
    bounds.push_back(std::nextafter(f, -kInfiniteTime));
  }
  for (const Cost b : bounds) {
    CostModel model = machine;
    const Schedule part = flb.resume(g, prefix, model, nullptr, b);
    const std::string at = what + ", bound " + std::to_string(b);
    if (part.complete()) {
      EXPECT_EQ(schedule_digest(part), schedule_digest(full)) << at;
      EXPECT_EQ(model.occupancies().size(), log.size()) << at;
    } else {
      EXPECT_LT(b, full.makespan()) << at;
      ++stopped;
    }
    std::size_t past = 0;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (prefix.is_scheduled(t) || !part.is_scheduled(t)) continue;
      EXPECT_EQ(part.proc(t), full.proc(t)) << at << ", task " << t;
      EXPECT_TRUE(same_bits(part.start(t), full.start(t)))
          << at << ", task " << t;
      EXPECT_TRUE(same_bits(part.finish(t), full.finish(t)))
          << at << ", task " << t;
      if (part.finish(t) > b) ++past;
    }
    if (!part.complete()) EXPECT_EQ(past, 1u) << at;
    const std::vector<LinkOccupancy>& got = model.occupancies();
    EXPECT_LE(got.size(), log.size()) << at;
    for (std::size_t i = 0; i < std::min(got.size(), log.size()); ++i)
      EXPECT_TRUE(got[i].link == log[i].link &&
                  same_bits(got[i].begin, log[i].begin) &&
                  same_bits(got[i].end, log[i].end))
          << at << ", occupancy " << i;
  }
  return stopped;
}

TEST(PlatformResume, BoundedResumeIsExact) {
  std::size_t stopped = 0;
  for_each_exact_scan_case([&](const ExactGolden& golden,
                               const ExactProblem& pb, CostModel& model) {
    stopped += expect_bounded_resume_exact(pb.g, pb.prefix, model, golden.name);
  });
  // Fuzz graphs cut at 0.3 of their clique makespan, resumed link-busy on
  // every zoo interconnect of two or more processors, processor 1 dead.
  std::size_t index = 0;
  for (const Topology& topo : test::topology_zoo()) {
    const ProcId procs = topo.num_nodes();
    if (procs < 2) continue;
    const TaskGraph g = test::fuzz_graph(index++ % 8);
    const Schedule fresh = FlbScheduler().run(g, procs);
    const Cost release = 0.3 * fresh.makespan();
    Schedule prefix(procs, g.num_tasks());
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      if (fresh.finish(t) <= release)
        prefix.assign(t, fresh.proc(t), fresh.start(t), fresh.finish(t));
    Availability a;
    a.alive.assign(procs, true);
    a.alive[1] = false;
    a.release = release;
    CostModel model = CostModel::link_busy(topo);
    model.set_availability(std::move(a));
    stopped += expect_bounded_resume_exact(
        g, prefix, model,
        g.name() + " on " + std::to_string(procs) + " link-busy nodes");
  }
  EXPECT_GT(stopped, 0u);
}

TEST(PlatformGolden, LinkBusyGiveBackRepairBitIdentical) {
  const Topology mesh = Topology::mesh2d(4, 4);
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 11;
  TaskGraph g = make_workload("Laplace", 200, params);
  Schedule nominal = FlbScheduler().run(g, 16);
  const Cost span = nominal.makespan();
  FaultPlan plan;
  plan.failures = {{5, 0.25 * span}};
  plan.rejoins = {{5, 0.45 * span}};
  SimOptions sopts;
  sopts.faults = &plan;
  SimResult partial = simulate(g, nominal, sopts);
  RepairOptions ropts;
  ropts.horizon = plan.failures.front().time;
  ropts.topology = &mesh;
  ropts.link_busy = true;
  RepairResult r = repair_schedule(g, nominal, partial, plan, ropts);
  // The serial floor wins: the remainder runs greedily on one processor.
  EXPECT_EQ(r.used, RepairStrategy::kGreedy);
  EXPECT_TRUE(validate_schedule(g, r.schedule, r.durations).empty());
  expect_golden({"give-back repair link-busy mesh2d(4,4)",
                 0x1.124e9bc795f6p+8, 15427852637886248309ull, 103},
                r.schedule, r.link_occupancies.size());
}

// A degraded-machine repair on 16 processors: two processors are throttled
// for good, every task checkpoints with a write overhead and runs a
// perturbed amount of work, and processor 5 dies late in one of its tasks
// (after a durable checkpoint). The continuation therefore prices slowed
// speeds, perturbed and checkpoint-resumed remainders, and the extra wall
// time of the re-executed writes.
struct DegradedEpisode {
  TaskGraph g;
  Schedule nominal;
  FaultPlan plan;
  SimResult partial;
};

DegradedEpisode degraded_episode() {
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 15;
  TaskGraph g = make_workload("Laplace", 200, params);
  Schedule nominal = FlbScheduler().run(g, 16);
  const Cost span = nominal.makespan();
  const Cost mean_comp = g.total_comp() / static_cast<Cost>(g.num_tasks());
  FaultPlan plan;
  plan.slowdowns = {{6, 0.1 * span, 0.5}, {10, 0.2 * span, 0.75}};
  plan.checkpoint.interval = 0.25 * mean_comp;
  plan.checkpoint.overhead = 0.05 * mean_comp;
  plan.runtime_spread = 0.1;
  SimOptions sopts;
  sopts.faults = &plan;
  // The kill lands at 90% of the first task processor 5 finishes after 0.3
  // of the nominal makespan; a failure changes nothing before its instant,
  // so the run without it locates that task.
  const SimResult healthy = simulate(g, nominal, sopts);
  Cost at = 0.0;
  for (TaskId t : nominal.tasks_on(5))
    if (healthy.finish[t] > 0.3 * span) {
      at = healthy.start[t] + 0.9 * (healthy.finish[t] - healthy.start[t]);
      break;
    }
  plan.failures = {{5, at}};
  SimResult partial = simulate(g, nominal, sopts);
  return {std::move(g), std::move(nominal), std::move(plan),
          std::move(partial)};
}

TEST(PlatformGolden, DegradedRepairBitIdentical) {
  const Topology mesh = Topology::mesh2d(4, 4);
  const DegradedEpisode ep = degraded_episode();
  const struct {
    const Topology* topology;  // null = clique
    bool link_busy;
    RepairStrategy strategy;
    ExactGolden golden;
  } kCases[] = {
      {nullptr, false, RepairStrategy::kFlbResume,
       {"FLB degraded repair, clique", 0x1.19a041241418p+7,
        10755749203037609721ull, 0}},
      {&mesh, false, RepairStrategy::kFlbResume,
       {"FLB degraded repair, routed mesh2d(4,4)", 0x1.4aeb1d9459f17p+7,
        3297840908354780771ull, 0}},
      {&mesh, true, RepairStrategy::kFlbResume,
       {"FLB degraded repair, link-busy mesh2d(4,4)", 0x1.096d3628837dep+8,
        18048298025885243197ull, 74}},
      {&mesh, true, RepairStrategy::kGreedy,
       {"greedy degraded repair, link-busy mesh2d(4,4)",
        0x1.ff66417840b1fp+7, 4828937421136651461ull, 74}},
      {nullptr, false, RepairStrategy::kGreedy,
       {"greedy degraded repair, clique", 0x1.2d7bf4a342b63p+7,
        6531082872026769941ull, 0}},
      {&mesh, false, RepairStrategy::kGreedy,
       {"greedy degraded repair, routed mesh2d(4,4)", 0x1.832d5705c1767p+7,
        16943873666273604053ull, 0}},
  };
  for (const auto& c : kCases) {
    RepairOptions ropts;
    ropts.strategy = c.strategy;
    ropts.horizon = ep.plan.failures.front().time;
    ropts.topology = c.topology;
    ropts.link_busy = c.link_busy;
    RepairResult r =
        repair_schedule(ep.g, ep.nominal, ep.partial, ep.plan, ropts);
    EXPECT_EQ(r.used, c.strategy) << c.golden.name;
    EXPECT_EQ(r.degraded_procs, 2u) << c.golden.name;
    EXPECT_GT(r.checkpoint_work_saved, 0.0) << c.golden.name;
    for (const Violation& v : validate_schedule(ep.g, r.schedule, r.durations))
      ADD_FAILURE() << c.golden.name << ": " << to_string(v);
    expect_golden(c.golden, r.schedule, r.link_occupancies.size());
  }
}

// A hedged repair on a routed mesh: suspected processor 3 is listed dead
// in the plan but keeps its in-flight task, and processor 15 sits behind a
// partition, so the not-yet-started head of its queue stays in place. The
// pin starts are lifted against routed (hop-scaled) arrivals.
TEST(PlatformGolden, HedgedRepairOnRoutedMeshBitIdentical) {
  const Topology mesh = Topology::mesh2d(4, 4);
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 19;
  TaskGraph g = make_workload("Laplace", 200, params);
  Schedule nominal = FlbScheduler().run(g, 16);
  // Suspect processor 3 midway through the first task it finishes after
  // 0.3 of the makespan, so that task is in flight at the horizon.
  Cost at = 0.0;
  for (TaskId t : nominal.tasks_on(3))
    if (nominal.finish(t) > 0.3 * nominal.makespan()) {
      at = 0.5 * (nominal.start(t) + nominal.finish(t));
      break;
    }
  FaultPlan plan = FaultPlan::single_failure(3, at);
  SimOptions sopts;
  sopts.faults = &plan;
  SimResult partial = simulate(g, nominal, sopts);
  RepairOptions ropts;
  ropts.horizon = at;
  ropts.topology = &mesh;
  ropts.suspects = {3};
  ropts.unreachable = {15};
  RepairResult r = repair_schedule(g, nominal, partial, plan, ropts);
  EXPECT_EQ(r.used, RepairStrategy::kFlbResume);
  EXPECT_EQ(r.unreachable_procs, 1u);
  std::size_t on_suspect = 0, on_unreachable = 0;
  for (TaskId t : r.pinned_tasks) {
    if (r.schedule.proc(t) == 3u) ++on_suspect;
    if (r.schedule.proc(t) == 15u) ++on_unreachable;
  }
  EXPECT_EQ(on_suspect, 1u);
  EXPECT_EQ(on_unreachable, 10u);
  for (const Violation& v : validate_schedule(g, r.schedule, r.durations))
    ADD_FAILURE() << to_string(v);
  expect_golden({"hedged repair, routed mesh2d(4,4)", 0x1.57511c9099674p+7,
                 6913049128041571829ull, 0},
                r.schedule, r.link_occupancies.size());
}

// Fresh ETF, DLS, HEFT and CPOP runs priced through a caller-built model:
// routed and link-busy meshes, a link-busy ring, and a clique of 8 with a
// dead processor, a rejoin admission, two cold horizons and one processor
// twice as fast as the rest. Laplace (V~200, CCR 5) keeps many transfers
// in flight, so link-busy selections queue behind earlier commits.
TEST(PlatformGolden, ModelPricedListSchedulersBitIdentical) {
  const Topology mesh = Topology::mesh2d(4, 4);
  const Topology ring = Topology::ring(6);
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 7;
  const TaskGraph g = make_workload("Laplace", 200, params);
  enum class Machine { kRoutedMesh, kLinkBusyMesh, kLinkBusyRing, kColdClique };
  const auto machine = [&](Machine m) {
    switch (m) {
      case Machine::kRoutedMesh:
        return CostModel::routed(mesh);
      case Machine::kLinkBusyMesh:
        return CostModel::link_busy(mesh);
      case Machine::kLinkBusyRing:
        return CostModel::link_busy(ring);
      case Machine::kColdClique:
        break;
    }
    CostModel model = CostModel::clique(8);
    Availability a;
    a.alive.assign(8, true);
    a.alive[1] = false;
    a.proc_release.assign(8, 0.0);
    a.proc_release[2] = 30.0;
    a.cold_before.assign(8, 0.0);
    a.cold_before[2] = 30.0;
    a.cold_before[5] = 40.0;
    model.set_availability(std::move(a));
    std::vector<double> speeds(8, 1.0);
    speeds[3] = 2.0;
    model.set_speeds(std::move(speeds));
    return model;
  };
  const struct {
    const char* algo;
    Machine machine;
    ExactGolden golden;
  } kCases[] = {
      {"ETF", Machine::kRoutedMesh,
       {"ETF on routed mesh2d(4,4)", 0x1.233a3ef14e4e2p+7,
        11123005601519346289ull, 0}},
      {"DLS", Machine::kRoutedMesh,
       {"DLS on routed mesh2d(4,4)", 0x1.4e1f4e203609p+7,
        11414809137915546492ull, 0}},
      {"HEFT", Machine::kRoutedMesh,
       {"HEFT on routed mesh2d(4,4)", 0x1.28514f6f5eb3ap+7,
        13995171976730055675ull, 0}},
      {"CPOP", Machine::kRoutedMesh,
       {"CPOP on routed mesh2d(4,4)", 0x1.47f70c0cb5c0cp+7,
        5721252760680552200ull, 0}},
      {"ETF", Machine::kLinkBusyMesh,
       {"ETF on link-busy mesh2d(4,4)", 0x1.c407b7705625bp+9,
        3419528807643044462ull, 653}},
      {"DLS", Machine::kLinkBusyMesh,
       {"DLS on link-busy mesh2d(4,4)", 0x1.59c9977611808p+9,
        2773686896400984528ull, 786}},
      {"HEFT", Machine::kLinkBusyMesh,
       {"HEFT on link-busy mesh2d(4,4)", 0x1.9f9bf63b4e518p+9,
        1828252120833250979ull, 803}},
      {"CPOP", Machine::kLinkBusyMesh,
       {"CPOP on link-busy mesh2d(4,4)", 0x1.308713eb4a4bdp+9,
        14194676628136774772ull, 373}},
      {"ETF", Machine::kLinkBusyRing,
       {"ETF on link-busy ring(6)", 0x1.a9dc49db1646ap+9,
        12853097003795891224ull, 654}},
      {"DLS", Machine::kLinkBusyRing,
       {"DLS on link-busy ring(6)", 0x1.ba08dab9f3fffp+9,
        5418813352149704971ull, 337}},
      {"HEFT", Machine::kLinkBusyRing,
       {"HEFT on link-busy ring(6)", 0x1.e2b7c816c8553p+9,
        992371776004723595ull, 839}},
      {"CPOP", Machine::kLinkBusyRing,
       {"CPOP on link-busy ring(6)", 0x1.852a1321f9b48p+9,
        17862004924813999947ull, 563}},
      {"ETF", Machine::kColdClique,
       {"ETF on cold clique P=8", 0x1.05f82ae6109d7p+7,
        5261522117905757626ull, 0}},
      {"DLS", Machine::kColdClique,
       {"DLS on cold clique P=8", 0x1.10bee5c4832e1p+7,
        16950535614915692048ull, 0}},
      {"HEFT", Machine::kColdClique,
       {"HEFT on cold clique P=8", 0x1.6d0be0060b688p+6,
        8515733969286414938ull, 0}},
      {"CPOP", Machine::kColdClique,
       {"CPOP on cold clique P=8", 0x1.be28483c03d29p+6,
        5971878021981138347ull, 0}},
  };
  for (const auto& c : kCases) {
    CostModel model = machine(c.machine);
    const std::string algo = c.algo;
    const Schedule s = algo == "ETF"    ? EtfScheduler().run_on(g, model)
                       : algo == "DLS"  ? DlsScheduler().run_on(g, model)
                       : algo == "HEFT" ? heft(g, model)
                                        : cpop(g, model);
    std::vector<Cost> durations(g.num_tasks());
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      durations[t] = model.exec(g, t, s.proc(t));
    for (const Violation& v : validate_schedule(g, s, durations))
      ADD_FAILURE() << c.golden.name << ": " << to_string(v);
    expect_golden(c.golden, s, model.occupancies().size());
  }
}

// ---------------------------------------------------------------------------
// SpeedProfile: the segment-based execution model promoted out of the
// machine simulator.

TEST(SpeedProfileTest, TrivialProfileRunsAtUnitSpeed) {
  SpeedProfile p;
  p.finalize();
  EXPECT_TRUE(p.trivial());
  SpeedProfile::Trace tr = p.run(1.0, 4.0, CheckpointPolicy{});
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.end, 5.0);
  EXPECT_EQ(tr.done, 4.0);
  EXPECT_EQ(tr.checkpoints, 0u);
}

TEST(SpeedProfileTest, SlowdownStretchesExecution) {
  SpeedProfile p;
  p.add(0.0, 0.5, 2.0);
  p.finalize();
  EXPECT_FALSE(p.trivial());
  // [0, 2) at half speed completes 1 unit; the remaining 3 run at full
  // speed after recovery, finishing at 5.
  SpeedProfile::Trace tr = p.run(0.0, 4.0, CheckpointPolicy{});
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.end, 5.0);
  EXPECT_EQ(tr.done, 4.0);
}

TEST(SpeedProfileTest, RecoveryReturnsToExactlyUnitSpeed) {
  // finalize() recomputes each segment's product from scratch, so after the
  // last fault expires the speed is exactly 1.0 — no 1/factor drift.
  SpeedProfile p;
  p.add(0.0, 0.3, 1.0);
  p.finalize();
  SpeedProfile::Trace tr = p.run(1.0, 2.0, CheckpointPolicy{});
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.end, 3.0);
}

TEST(SpeedProfileTest, KillCutsExecutionShort) {
  SpeedProfile p;
  p.add(0.0, 0.5);
  p.finalize();
  SpeedProfile::Trace tr = p.run(0.0, 4.0, CheckpointPolicy{}, 2.0);
  EXPECT_FALSE(tr.finished);
  EXPECT_EQ(tr.end, 2.0);
  EXPECT_EQ(tr.done, 1.0);  // 2 wall units at half speed
}

TEST(SpeedProfileTest, CheckpointsMakeWorkDurable) {
  SpeedProfile p;
  p.finalize();
  CheckpointPolicy ckpt{1.0, 0.25};
  // Mark at 1 work unit reached at t=1, write until 1.25; killed at 2.0
  // with 0.75 further units computed but not protected.
  SpeedProfile::Trace tr = p.run(0.0, 3.0, ckpt, 2.0);
  EXPECT_FALSE(tr.finished);
  EXPECT_EQ(tr.checkpoints, 1u);
  EXPECT_EQ(tr.saved, 1.0);
  EXPECT_EQ(tr.overhead, 0.25);
  EXPECT_EQ(tr.end, 2.0);
  EXPECT_EQ(tr.done, 1.75);
}

// ---------------------------------------------------------------------------
// Availability: admission instants and cold-cache horizons.

TEST(AvailabilityTest, DefaultsAdmitEverythingWarm) {
  Availability a;
  EXPECT_TRUE(a.is_alive(3));
  EXPECT_EQ(a.admission(3), 0.0);
  EXPECT_EQ(a.cold_horizon(3), 0.0);
  EXPECT_FALSE(a.any_cold());
}

TEST(AvailabilityTest, RecoveryAdmitsRejoinedProcessorsCold) {
  const std::vector<bool> admitted{true, true, false};
  const std::vector<Cost> available_from{0.0, 7.0, kInfiniteTime};
  Availability a = Availability::recovery(5.0, admitted, available_from);
  EXPECT_EQ(a.release, 5.0);
  EXPECT_TRUE(a.is_alive(0));
  EXPECT_TRUE(a.is_alive(1));
  EXPECT_FALSE(a.is_alive(2));
  // Never-killed processor: admitted at the release instant, warm.
  EXPECT_EQ(a.admission(0), 5.0);
  EXPECT_EQ(a.cold_horizon(0), 0.0);
  // Rejoined processor: admitted from its rejoin, cold before it.
  EXPECT_EQ(a.admission(1), 7.0);
  EXPECT_EQ(a.cold_horizon(1), 7.0);
  EXPECT_TRUE(a.any_cold());
}

// ---------------------------------------------------------------------------
// CostModel: the three communication modes, execution pricing, validation.

TEST(CostModelTest, CliqueFlatPricing) {
  CostModel m = CostModel::clique(4);
  EXPECT_EQ(m.mode(), CommMode::kClique);
  EXPECT_EQ(m.num_procs(), 4u);
  EXPECT_FALSE(m.exact_pricing());
  EXPECT_EQ(m.comm(0, 1, 2.0, 3.0), 5.0);
  EXPECT_EQ(m.comm(1, 1, 2.0, 3.0), 3.0);  // same-processor: free
}

TEST(CostModelTest, ColdCacheRefetchPricing) {
  CostModel m = CostModel::clique(2);
  Availability a;
  a.cold_before = {0.0, 2.0};
  m.set_availability(a);
  EXPECT_TRUE(m.exact_pricing());  // cold caches force exact EST pricing
  // Local data predating proc 1's reboot is re-fetched at cold + comm.
  EXPECT_EQ(m.arrival(1, 1, 3.0, 1.5), 5.0);
  // Data produced after the reboot is warm.
  EXPECT_EQ(m.arrival(1, 1, 3.0, 2.5), 2.5);
  // Proc 0 never rebooted: local data always warm.
  EXPECT_EQ(m.arrival(0, 0, 3.0, 1.5), 1.5);
  // Remote data pays the network price regardless.
  EXPECT_EQ(m.arrival(0, 1, 3.0, 1.5), 4.5);
}

TEST(CostModelTest, AvailabilityGatesAdmission) {
  CostModel m = CostModel::clique(3);
  Availability a;
  a.release = 2.0;
  a.alive = {true, false, true};
  a.proc_release = {0.0, 0.0, 6.0};
  m.set_availability(a);
  EXPECT_TRUE(m.alive(0));
  EXPECT_FALSE(m.alive(1));
  EXPECT_EQ(m.admission(0), 2.0);
  EXPECT_EQ(m.admission(2), 6.0);
}

TEST(CostModelTest, RoutedHopsPricing) {
  Topology ring = Topology::ring(4);
  CostModel m = CostModel::routed(ring);
  EXPECT_EQ(m.mode(), CommMode::kRoutedHops);
  EXPECT_TRUE(m.exact_pricing());
  EXPECT_EQ(m.comm(0, 1, 3.0, 1.0), 4.0);   // 1 hop
  EXPECT_EQ(m.comm(0, 2, 3.0, 1.0), 7.0);   // 2 hops
  EXPECT_EQ(m.comm(2, 2, 3.0, 1.0), 1.0);   // local
  // commit() degenerates to comm(): nothing to reserve, nothing logged.
  EXPECT_EQ(m.commit(0, 2, 3.0, 1.0), 7.0);
  EXPECT_TRUE(m.occupancies().empty());
}

TEST(CostModelTest, LinkBusyProbeCommitAndLog) {
  Topology line = Topology::from_links(3, {{0, 1}, {1, 2}});
  CostModel m = CostModel::link_busy(line);
  // Probing prices against the reservations without claiming anything:
  // two identical probes answer the same.
  EXPECT_EQ(m.comm(0, 2, 2.0, 1.0), 5.0);  // two store-and-forward hops
  EXPECT_EQ(m.comm(0, 2, 2.0, 1.0), 5.0);
  EXPECT_TRUE(m.occupancies().empty());
  // Committing reserves both hops and matches the probe's answer.
  EXPECT_EQ(m.commit(0, 2, 2.0, 1.0), 5.0);
  ASSERT_EQ(m.occupancies().size(), 2u);
  // A later transfer over the first link queues behind the reservation:
  // the link is busy on [1, 3), so departing at 0 still arrives at 5.
  EXPECT_EQ(m.comm(0, 1, 2.0, 0.0), 5.0);
  EXPECT_EQ(m.commit(0, 1, 2.0, 0.0), 5.0);
  // Three hops logged; the 0-1 link carried 2 + 2, the 1-2 link 2.
  ASSERT_EQ(m.occupancies().size(), 3u);
  std::vector<Cost> busy(line.num_links(), 0.0);
  for (const LinkOccupancy& o : m.occupancies())
    busy[o.link] += o.end - o.begin;
  EXPECT_EQ(busy, (std::vector<Cost>{4.0, 2.0}));
  // The commit log honors link exclusivity by construction.
  EXPECT_TRUE(validate_link_occupancies(line, m.occupancies()).empty());
  m.reset_links();
  EXPECT_TRUE(m.occupancies().empty());
  EXPECT_EQ(m.comm(0, 1, 2.0, 0.0), 2.0);  // reservations gone
}

/// A join: `inputs` entry tasks feeding one sink (the last task), with
/// seeded message sizes.
TaskGraph join_graph(Rng& rng, TaskId inputs) {
  TaskGraphBuilder b;
  for (TaskId i = 0; i <= inputs; ++i) b.add_task(1.0);
  for (TaskId i = 0; i < inputs; ++i)
    b.add_edge(i, inputs, rng.uniform(0.0, 5.0));
  return std::move(b).build();
}

/// The join's inputs placed on seeded processors, finishing at seeded
/// instants (zero-length placements never overlap).
Schedule place_inputs(Rng& rng, const TaskGraph& join, ProcId procs) {
  Schedule s(procs, join.num_tasks());
  for (TaskId i = 0; i + 1 < join.num_tasks(); ++i) {
    const Cost finish = rng.uniform(0.0, 30.0);
    s.assign(i, static_cast<ProcId>(rng.next_below(procs)), finish, finish);
  }
  return s;
}

// arrivals() is P arrival() calls in one, and inputs_ready_row() is P
// inputs_ready() calls in one: bit-identical in every mode, cold horizons
// included, against reservations left by seeded commits.
TEST(CostModelTest, ArrivalsMatchPerDestinationArrival) {
  std::uint64_t seed = 0;
  for (const Topology& topo : test::topology_zoo()) {
    const ProcId n = topo.num_nodes();
    for (CommMode mode :
         {CommMode::kClique, CommMode::kRoutedHops, CommMode::kLinkBusy}) {
      CostModel m = mode == CommMode::kClique ? CostModel::clique(n)
                    : mode == CommMode::kRoutedHops
                        ? CostModel::routed(topo)
                        : CostModel::link_busy(topo);
      Rng rng(++seed);
      Availability a;
      a.cold_before.assign(n, 0.0);
      for (Cost& c : a.cold_before)
        if (rng.bernoulli(0.4)) c = rng.uniform(0.0, 20.0);
      m.set_availability(std::move(a));
      std::vector<Cost> row(n), ready(n);
      for (int round = 0; round < 30; ++round) {
        const auto src = static_cast<ProcId>(rng.next_below(n));
        const Cost bytes = rng.uniform(0.0, 5.0);
        const Cost depart = rng.uniform(0.0, 30.0);
        (void)m.commit(src, static_cast<ProcId>(rng.next_below(n)), bytes,
                       depart);
        const Cost finish = rng.uniform(0.0, 30.0);
        m.arrivals(src, bytes, finish, row);
        for (ProcId p = 0; p < n; ++p)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(row[p]),
                    std::bit_cast<std::uint64_t>(
                        m.arrival(src, p, bytes, finish)))
              << "mode " << static_cast<int>(mode) << ", " << n
              << " nodes, seed " << seed << ": " << src << " -> " << p;

        const TaskGraph join =
            join_graph(rng, static_cast<TaskId>(1 + rng.next_below(4)));
        const Schedule s = place_inputs(rng, join, n);
        const TaskId sink = join.num_tasks() - 1;
        for (Cost& r : ready) r = rng.uniform(0.0, 30.0);
        const std::vector<Cost> floor = ready;
        m.inputs_ready_row(join, s, sink, ready, row);
        for (ProcId p = 0; p < n; ++p)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(ready[p]),
                    std::bit_cast<std::uint64_t>(
                        m.inputs_ready(join, s, sink, p, floor[p])))
              << "mode " << static_cast<int>(mode) << ", " << n
              << " nodes, seed " << seed << ": inputs ready on " << p;
      }
    }
  }
}

// commit_inputs() reserves a task's input routes one after another, while
// inputs_ready() probes them all against one link state. The commit is
// therefore never earlier than the probe just before it, equal to it when
// no two input routes share a link, and later when shared links serialize
// the inputs.
TEST(CostModelTest, CommitInputsNeverPrecedesProbe) {
  std::uint64_t seed = 100;
  std::size_t later = 0;
  for (const Topology& topo : test::topology_zoo()) {
    const ProcId n = topo.num_nodes();
    CostModel m = CostModel::link_busy(topo);
    Rng rng(++seed);
    for (int round = 0; round < 30; ++round) {
      (void)m.commit(static_cast<ProcId>(rng.next_below(n)),
                     static_cast<ProcId>(rng.next_below(n)),
                     rng.uniform(0.0, 5.0), rng.uniform(0.0, 30.0));
      const TaskGraph join =
          join_graph(rng, static_cast<TaskId>(1 + rng.next_below(4)));
      const Schedule s = place_inputs(rng, join, n);
      const TaskId sink = join.num_tasks() - 1;
      const auto p = static_cast<ProcId>(rng.next_below(n));
      const Cost floor = rng.uniform(0.0, 10.0);
      bool shared = false;
      std::vector<char> used(topo.num_links(), 0);
      for (const Adj& in : join.predecessors(sink))
        for (std::size_t link : topo.route(s.proc(in.node), p)) {
          if (used[link] != 0) shared = true;
          used[link] = 1;
        }
      const Cost probe = m.inputs_ready(join, s, sink, p, floor);
      const Cost commit = m.commit_inputs(join, s, sink, p, floor);
      ASSERT_GE(commit, probe) << n << " nodes, seed " << seed;
      if (!shared) ASSERT_EQ(commit, probe) << n << " nodes, seed " << seed;
      if (commit > probe) ++later;
    }
  }
  EXPECT_GT(later, 0u);
}

TEST(CostModelTest, ExecutionPricing) {
  CostModel m = CostModel::clique(2);
  TaskGraph g = test::small_diamond();  // comp: 1, 3, 2, 1
  EXPECT_EQ(m.exec(g, 1, 0), 3.0);
  m.set_speeds({1.0, 0.5});
  EXPECT_EQ(m.speed(1), 0.5);
  EXPECT_EQ(m.exec(g, 1, 1), 6.0);
  EXPECT_EQ(m.exec_work(3.0, 1), 6.0);
  EXPECT_EQ(m.mean_exec_work(2.0), 3.0);  // mean inverse speed = 1.5
  // Work override (checkpoint-resumed remainder) replaces the graph cost.
  m.set_work({kUndefinedTime, 1.0, kUndefinedTime, kUndefinedTime});
  EXPECT_EQ(m.work_of(g, 1), 1.0);
  EXPECT_EQ(m.work_of(g, 2), 2.0);  // kUndefinedTime falls back to comp
  EXPECT_EQ(m.exec(g, 1, 1), 2.0);
  // Additive extra time lands after speed scaling.
  m.set_extra_time({0.0, 0.25, 0.0, 0.0});
  EXPECT_EQ(m.exec(g, 1, 1), 2.25);
}

TEST(CostModelTest, RejectsMalformedConfiguration) {
  CostModel m = CostModel::clique(2);
  EXPECT_THROW(m.set_speeds({1.0}), Error);          // wrong size
  EXPECT_THROW(m.set_speeds({1.0, 0.0}), Error);     // non-positive speed
  EXPECT_THROW(m.set_speeds({1.0, -1.0}), Error);
  // Per-entry rules, checked at the setter and named in the error: a NaN,
  // infinite or negative entry would otherwise surface later as an
  // infeasible assignment or an infinite (or, with an infinite speed,
  // zero) makespan.
  const auto setter_error = [&](auto set) {
    try {
      set();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const Cost nan = std::nan("");
  for (const Cost bad : {nan, kInfiniteTime, -kInfiniteTime, -0.5}) {
    EXPECT_NE(setter_error([&] { m.set_work({1.0, bad}); })
                  .find("CostModel::set_work"),
              std::string::npos)
        << bad;
    EXPECT_NE(setter_error([&] { m.set_extra_time({bad, 0.0}); })
                  .find("CostModel::set_extra_time"),
              std::string::npos)
        << bad;
  }
  EXPECT_THROW(m.set_extra_time({kUndefinedTime, 0.0}), Error);
  for (const Cost bad : {nan, kInfiniteTime})
    EXPECT_NE(setter_error([&] { m.set_speeds({bad, 1.0}); })
                  .find("CostModel::set_speeds"),
              std::string::npos)
        << bad;
  // Work's kUndefinedTime sentinel (fall back to the graph) and zero
  // entries stay allowed.
  m.set_work({kUndefinedTime, 0.0});
  m.set_extra_time({0.0, 0.0});
  EXPECT_THROW(CostModel::clique(0), Error);
  const auto rejects = [&](Availability a) {
    EXPECT_THROW(m.set_availability(std::move(a)), Error);
  };
  Availability a;
  a.alive = {true};  // wrong size
  rejects(a);
  a = {};
  a.release = -1.0;
  rejects(a);
  a.release = kInfiniteTime;
  rejects(a);
  a = {};
  a.proc_release = {0.0};  // wrong size
  rejects(a);
  a.proc_release = {0.0, -1.0};
  rejects(a);
  a.proc_release = {0.0, kInfiniteTime};
  rejects(a);
  a = {};
  a.cold_before = {0.0};  // wrong size
  rejects(a);
  a.cold_before = {-1.0, 0.0};
  rejects(a);
  a.cold_before = {std::nan(""), 0.0};
  rejects(a);
}

// Every engine that takes a caller-built model checks that it fits the
// graph first: per-task vectors that do not cover the graph, or a model
// admitting no processor, throw flb::Error instead of reading out of
// bounds or tripping an internal invariant.
TEST(CostModelTest, EntryPointsRejectModelsThatDoNotFitTheGraph) {
  const TaskGraph g = test::small_diamond();  // 4 tasks
  const std::vector<void (*)(CostModel&)> misfits = {
      [](CostModel& m) { m.set_work({1.0, 1.0}); },
      [](CostModel& m) { m.set_extra_time({0.0}); },
      [](CostModel& m) {
        Availability a;
        a.alive = {false, false};
        m.set_availability(std::move(a));
      },
  };
  for (std::size_t i = 0; i < misfits.size(); ++i) {
    CostModel m = CostModel::clique(2);
    misfits[i](m);
    EXPECT_THROW((void)FlbScheduler().resume(g, Schedule(2, 4), m), Error)
        << "resume, misfit " << i;
    EXPECT_THROW((void)heft(g, m), Error) << "heft, misfit " << i;
    EXPECT_THROW((void)cpop(g, m), Error) << "cpop, misfit " << i;
    EXPECT_THROW((void)upward_ranks(g, m), Error) << "upward, misfit " << i;
    EXPECT_THROW((void)downward_ranks(g, m), Error)
        << "downward, misfit " << i;
    EXPECT_THROW((void)EtfScheduler().run_on(g, m), Error)
        << "ETF run_on, misfit " << i;
    EXPECT_THROW((void)DlsScheduler().run_on(g, m), Error)
        << "DLS run_on, misfit " << i;
  }
}

// ---------------------------------------------------------------------------
// Resume through the platform layer.

// FLB resume from an empty prefix on a fresh clique model is exactly run().
TEST(PlatformResume, EmptyPrefixMatchesFreshRun) {
  for (ProcId procs : {3u, 4u}) {
    for (std::size_t i = 0; i < 6; ++i) {
      TaskGraph g = test::fuzz_graph(i);
      FlbScheduler flb;
      Schedule fresh = flb.run(g, procs);
      CostModel model = CostModel::clique(procs);
      Schedule resumed =
          flb.resume(g, Schedule(procs, g.num_tasks()), model);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        EXPECT_EQ(resumed.proc(t), fresh.proc(t))
            << g.name() << " P=" << procs << " task " << t;
        EXPECT_EQ(resumed.start(t), fresh.start(t))
            << g.name() << " P=" << procs << " task " << t;
        EXPECT_EQ(resumed.finish(t), fresh.finish(t))
            << g.name() << " P=" << procs << " task " << t;
      }
    }
  }
}

TEST(PlatformResume, RejectsMismatchedPrefixAndSpeeds) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  CostModel two = CostModel::clique(2);
  EXPECT_THROW((void)flb.resume(g, Schedule(2, 3), two), Error);  // graph
  // A topology whose node count differs from the prefix's processors.
  const Topology three = Topology::ring(3);
  CostModel routed = CostModel::routed(three);
  EXPECT_THROW((void)flb.resume(g, Schedule(2, 4), routed), Error);
  // The resumed engine models throttled processors only.
  two.set_speeds({1.0, 2.0});
  EXPECT_THROW((void)flb.resume(g, Schedule(2, 4), two), Error);
  CostModel clique = CostModel::clique(2);
  EXPECT_THROW((void)flb.resume(g, Schedule(2, 4), clique, nullptr,
                                std::nan("")),
               Error);
  // A prefix must be closed under predecessors: b placed, its predecessor
  // a not. Both a cold engine and a warm one reject it with flb::Error
  // naming the two tasks, and the warm one still resumes afterwards.
  Schedule open_prefix(2, 4);
  open_prefix.assign(1, 0, 3.0, 6.0);
  for (const bool warm : {false, true}) {
    FlbScheduler engine;
    if (warm) (void)engine.run(g, 2);
    try {
      (void)engine.resume(g, open_prefix, clique);
      ADD_FAILURE() << "an open prefix was resumed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("places task 1 but not its "
                                           "predecessor 0"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(engine.resume(g, Schedule(2, 4), clique).complete());
  }
}

// The hand example behind the resume-level link-contention claim.
//
// Topology (3 links):   1 --- 0 --- 2 --- 3
// Producer a ran on processor 0, which then died; its three consumers
// (comm 4, comp 0.5 each) must land on the survivors {1, 3}.
//
// Routed pricing is contention-free: proc 1 is one hop from the data
// (arrival 0.5 + 4 = 4.5), proc 3 is two hops (arrival 8.5), so all three
// consumers pile onto proc 1 and the makespan is 6.
//
// Link-busy pricing serializes the 0-1 transfers: the second consumer's
// message queues on [4.5, 8.5), which makes the *free* two-hop route to
// proc 3 (also arriving at 8.5) equally good and leaves the third consumer
// strictly better off at proc 3 / 8.5 than proc 1 / 12.5. The contended
// link changes the placement — one consumer migrates to the far survivor.
TaskGraph fan_out_graph() {
  TaskGraphBuilder b;
  b.set_name("contended-fan-out");
  TaskId a = b.add_task(0.5);
  TaskId c = b.add_task(0.5);
  TaskId d = b.add_task(0.5);
  TaskId e = b.add_task(0.5);
  b.add_edge(a, c, 4);
  b.add_edge(a, d, 4);
  b.add_edge(a, e, 4);
  return std::move(b).build();
}

TEST(PlatformResume, ContendedLinkSteersPlacement) {
  TaskGraph g = fan_out_graph();
  Topology topo = Topology::from_links(4, {{0, 1}, {0, 2}, {2, 3}});
  Schedule prefix(4, g.num_tasks());
  prefix.assign(0, 0, 0.0, 0.5);  // the producer's executed past

  FlbScheduler flb;
  Availability a;
  a.alive = {false, true, false, true};
  a.release = 0.5;
  CostModel routed_model = CostModel::routed(topo);
  routed_model.set_availability(a);

  Schedule routed = flb.resume(g, prefix, routed_model);
  EXPECT_TRUE(is_valid_schedule(g, routed))
      << test::violations_to_string(g, routed);
  for (TaskId t = 1; t <= 3; ++t)
    EXPECT_EQ(routed.proc(t), 1u) << "routed pricing: consumer " << t;
  EXPECT_EQ(routed.makespan(), 6.0);

  CostModel busy_model = CostModel::link_busy(topo);
  busy_model.set_availability(a);
  Schedule busy = flb.resume(g, prefix, busy_model);
  const std::vector<LinkOccupancy>& occ = busy_model.occupancies();
  EXPECT_TRUE(is_valid_schedule(g, busy))
      << test::violations_to_string(g, busy);
  int on_far = 0;
  for (TaskId t = 1; t <= 3; ++t) {
    if (busy.proc(t) == 3u) {
      ++on_far;
      EXPECT_EQ(busy.start(t), 8.5);
      EXPECT_EQ(busy.finish(t), 9.0);
    } else {
      EXPECT_EQ(busy.proc(t), 1u);
    }
  }
  EXPECT_EQ(on_far, 1) << "exactly one consumer migrates to processor 3";
  EXPECT_EQ(busy.makespan(), 9.0);
  EXPECT_FALSE(occ.empty());
  for (const Violation& v : validate_link_occupancies(topo, occ))
    ADD_FAILURE() << to_string(v);
}

TEST(PlatformResume, RoutedAndLinkBusySchedulesStayFeasible) {
  // Routed and link-busy prices are >= clique prices, so the resumed
  // schedules must stay clean under the clique validator, and the commit
  // log must honor link exclusivity.
  Topology topo = Topology::mesh2d(2, 2);
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    CostModel routed_model = CostModel::routed(topo);
    Schedule routed = flb.resume(g, Schedule(4, g.num_tasks()), routed_model);
    EXPECT_TRUE(is_valid_schedule(g, routed))
        << g.name() << "\n" << test::violations_to_string(g, routed);

    CostModel busy_model = CostModel::link_busy(topo);
    Schedule busy = flb.resume(g, Schedule(4, g.num_tasks()), busy_model);
    EXPECT_TRUE(is_valid_schedule(g, busy))
        << g.name() << "\n" << test::violations_to_string(g, busy);
    for (const Violation& v :
         validate_link_occupancies(topo, busy_model.occupancies()))
      ADD_FAILURE() << g.name() << ": " << to_string(v);
  }
}

// ---------------------------------------------------------------------------
// Repair through the platform layer: a contended link changes which
// survivor the repaired work lands on (closes the ROADMAP item "link
// contention during repair").

TEST(PlatformRepair, ContendedLinkChangesRepairedPlacement) {
  TaskGraph g = fan_out_graph();
  Schedule nominal(4, g.num_tasks());
  nominal.assign(0, 0, 0.0, 0.5);
  nominal.assign(1, 0, 0.5, 1.0);
  nominal.assign(2, 0, 1.0, 1.5);
  nominal.assign(3, 0, 1.5, 2.0);

  FaultPlan plan;
  plan.failures = {{0, 0.6}, {2, 0.6}};  // the producer's proc + proc 2 die
  SimOptions sopts;
  sopts.faults = &plan;
  SimResult partial = simulate(g, nominal, sopts);
  ASSERT_FALSE(partial.complete());

  Topology topo = Topology::from_links(4, {{0, 1}, {0, 2}, {2, 3}});
  RepairOptions ropts;
  ropts.strategy = RepairStrategy::kFlbResume;
  ropts.topology = &topo;

  // Routed repair: contention-free hop pricing sends every consumer to the
  // 1-hop survivor (proc 1).
  RepairResult routed = repair_schedule(g, nominal, partial, plan, ropts);
  EXPECT_EQ(routed.used, RepairStrategy::kFlbResume);
  for (TaskId t = 1; t <= 3; ++t)
    EXPECT_EQ(routed.schedule.proc(t), 1u) << "routed repair: consumer " << t;
  EXPECT_EQ(routed.schedule.makespan(), 6.0);
  EXPECT_TRUE(routed.link_occupancies.empty());

  // Link-busy repair: the serialized 0-1 transfers make the far survivor
  // (proc 3) the better home for one consumer.
  ropts.link_busy = true;
  RepairResult busy = repair_schedule(g, nominal, partial, plan, ropts);
  EXPECT_EQ(busy.used, RepairStrategy::kFlbResume);
  int on_far = 0;
  for (TaskId t = 1; t <= 3; ++t) {
    if (busy.schedule.proc(t) == 3u) {
      ++on_far;
      EXPECT_EQ(busy.schedule.start(t), 8.5);
    } else {
      EXPECT_EQ(busy.schedule.proc(t), 1u);
    }
  }
  EXPECT_EQ(on_far, 1) << "the contended link migrates exactly one consumer";
  EXPECT_EQ(busy.schedule.makespan(), 9.0);
  EXPECT_FALSE(busy.link_occupancies.empty());
  for (const Violation& v :
       validate_link_occupancies(topo, busy.link_occupancies))
    ADD_FAILURE() << to_string(v);
  // The continuation honors the durations oracle computed independently of
  // the placement engine.
  for (const Violation& v : validate_schedule(g, busy.schedule, busy.durations))
    ADD_FAILURE() << to_string(v);
}

TEST(PlatformRepair, LinkBusyRequiresTopology) {
  TaskGraph g = fan_out_graph();
  Schedule nominal(2, g.num_tasks());
  nominal.assign(0, 0, 0.0, 0.5);
  nominal.assign(1, 0, 0.5, 1.0);
  nominal.assign(2, 1, 4.5, 5.0);
  nominal.assign(3, 0, 1.0, 1.5);
  FaultPlan plan = FaultPlan::single_failure(1, 0.1);
  SimOptions sopts;
  sopts.faults = &plan;
  SimResult partial = simulate(g, nominal, sopts);
  RepairOptions ropts;
  ropts.link_busy = true;  // but no topology
  EXPECT_THROW((void)repair_schedule(g, nominal, partial, plan, ropts), Error);
}

// ---------------------------------------------------------------------------
// Comparison algorithms priced through the model.

// The pricing the exhaustive loop's row cache replaced: every step prices
// every (ready task, alive processor) pair through arrival(), one
// destination at a time, and commits the winner's inputs with
// commit_arrival(). `better(t, p, est, b, bp, best_est)` says whether the
// pair (t, p) starting at est beats the incumbent (b, bp) at best_est.
template <typename Better>
Schedule per_pair_reference(const TaskGraph& g, CostModel& model,
                            Better better) {
  const ProcId procs = model.num_procs();
  Schedule sched(procs, g.num_tasks());
  std::vector<std::size_t> pending(g.num_tasks());
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    pending[t] = g.in_degree(t);
    if (pending[t] == 0) ready.push_back(t);
  }
  while (!ready.empty()) {
    std::size_t best_i = 0;
    ProcId best_p = kInvalidProc;
    Cost best_est = kInfiniteTime;
    for (std::size_t i = 0; i < ready.size(); ++i)
      for (ProcId p = 0; p < procs; ++p) {
        if (!model.alive(p)) continue;
        Cost est = std::max(sched.proc_ready_time(p), model.admission(p));
        for (const Adj& a : g.predecessors(ready[i]))
          est = std::max(est, model.arrival(sched.proc(a.node), p, a.comm,
                                            sched.finish(a.node)));
        if (best_p == kInvalidProc ||
            better(ready[i], p, est, ready[best_i], best_p, best_est)) {
          best_i = i;
          best_p = p;
          best_est = est;
        }
      }
    const TaskId t = ready[best_i];
    Cost start = std::max(sched.proc_ready_time(best_p),
                          model.admission(best_p));
    for (const Adj& a : g.predecessors(t))
      start = std::max(start, model.commit_arrival(sched.proc(a.node), best_p,
                                                   a.comm,
                                                   sched.finish(a.node)));
    sched.assign(t, best_p, start, start + model.exec(g, t, best_p));
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_i));
    for (const Adj& a : g.successors(t))
      if (--pending[a.node] == 0) ready.push_back(a.node);
  }
  return sched;
}

// ETF and DLS cache one inputs-ready row per ready task and re-price the
// rows only after a link-busy commit. Placements and the link-occupancy
// log must equal per-pair pricing exactly: on every zoo topology in routed
// and link-busy modes, and on a clique with a dead, a rejoining, a cold and
// a faster processor.
TEST(AlgoModelOverloads, RowCacheMatchesPerPairPricing) {
  std::vector<CostModel> machines;
  const std::vector<Topology> zoo = test::topology_zoo();
  for (const Topology& topo : zoo) {
    machines.push_back(CostModel::routed(topo));
    machines.push_back(CostModel::link_busy(topo));
  }
  {
    CostModel cold = CostModel::clique(8);
    Availability a;
    a.alive.assign(8, true);
    a.alive[1] = false;
    a.proc_release.assign(8, 0.0);
    a.proc_release[2] = 6.0;
    a.cold_before.assign(8, 0.0);
    a.cold_before[2] = 6.0;
    a.cold_before[5] = 4.0;
    cold.set_availability(std::move(a));
    std::vector<double> speeds(8, 1.0);
    speeds[3] = 2.0;
    cold.set_speeds(std::move(speeds));
    machines.push_back(std::move(cold));
  }
  const auto expect_same = [](const std::string& what, const Schedule& got,
                              const CostModel& got_model, const Schedule& want,
                              const CostModel& want_model) {
    for (TaskId t = 0; t < want.num_tasks(); ++t) {
      ASSERT_EQ(got.proc(t), want.proc(t)) << what << " task " << t;
      ASSERT_EQ(got.start(t), want.start(t)) << what << " task " << t;
      ASSERT_EQ(got.finish(t), want.finish(t)) << what << " task " << t;
    }
    const auto& a = got_model.occupancies();
    const auto& b = want_model.occupancies();
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].link, b[i].link) << what << " occupancy " << i;
      ASSERT_EQ(a[i].begin, b[i].begin) << what << " occupancy " << i;
      ASSERT_EQ(a[i].end, b[i].end) << what << " occupancy " << i;
    }
  };
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (std::size_t i : {0u, 2u, 5u, 8u}) {
      const TaskGraph g = test::fuzz_graph(i + m % 3);
      const std::string what = "machine " + std::to_string(m) + " (" +
                               std::to_string(machines[m].num_procs()) +
                               " procs), " + g.name();
      const std::vector<Cost> bl = bottom_levels(g);
      const std::vector<Cost> sl = computation_bottom_levels(g);
      {
        CostModel got_model = machines[m];
        CostModel want_model = machines[m];
        const Schedule got = EtfScheduler().run_on(g, got_model);
        const Schedule want = per_pair_reference(
            g, want_model,
            [&](TaskId t, ProcId p, Cost est, TaskId b, ProcId bp, Cost be) {
              if (est != be) return est < be;
              if (bl[t] != bl[b]) return bl[t] > bl[b];
              return t < b || (t == b && p < bp);
            });
        expect_same("ETF on " + what, got, got_model, want, want_model);
      }
      {
        CostModel got_model = machines[m];
        CostModel want_model = machines[m];
        const Schedule got = DlsScheduler().run_on(g, got_model);
        const Schedule want = per_pair_reference(
            g, want_model,
            [&](TaskId t, ProcId p, Cost est, TaskId b, ProcId bp, Cost be) {
              const Cost dl = sl[t] - est;
              const Cost best_dl = sl[b] - be;
              if (dl != best_dl) return dl > best_dl;
              return t < b || (t == b && p < bp);
            });
        expect_same("DLS on " + what, got, got_model, want, want_model);
      }
    }
  }
}

TEST(AlgoModelOverloads, LinkBusySchedulesAreFeasible) {
  Topology topo = Topology::ring(4);
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    {
      CostModel m = CostModel::link_busy(topo);
      EtfScheduler etf;
      Schedule s = etf.run_on(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "ETF " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "ETF " << g.name();
    }
    {
      CostModel m = CostModel::link_busy(topo);
      DlsScheduler dls;
      Schedule s = dls.run_on(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "DLS " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "DLS " << g.name();
    }
    {
      CostModel m = CostModel::link_busy(topo);
      Schedule s = heft(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "HEFT " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "HEFT " << g.name();
    }
    {
      CostModel m = CostModel::link_busy(topo);
      Schedule s = cpop(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "CPOP " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "CPOP " << g.name();
    }
  }
}

}  // namespace
}  // namespace flb
