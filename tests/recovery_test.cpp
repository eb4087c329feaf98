// Recovery faults and recovery-aware repair: transient slowdowns that
// restore speed, killed processors that rejoin with cold caches, per-
// processor admission in FlbScheduler::resume, the opportunistic give-back
// pass in repair_schedule(), and routed-topology repair determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/error.hpp"
#include "flb/util/fnv1a.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

SimOptions with_faults(const FaultPlan& plan) {
  SimOptions options;
  options.faults = &plan;
  return options;
}

std::string validation_error(const FaultPlan& plan, ProcId procs) {
  try {
    plan.validate(procs);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

// --- Kill/rejoin window validation -------------------------------------------

TEST(Recovery, ValidationRejectsRejoinWithoutFailure) {
  FaultPlan orphan;
  orphan.rejoins.push_back({1, 5.0});
  std::string msg = validation_error(orphan, 4);
  EXPECT_NE(msg.find("rejoins[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no preceding failure"), std::string::npos) << msg;

  // A rejoin of a *different* processor than the one that failed is just as
  // orphaned.
  FaultPlan wrong_proc;
  wrong_proc.failures.push_back({0, 1.0});
  wrong_proc.rejoins.push_back({1, 2.0});
  EXPECT_NE(validation_error(wrong_proc, 4).find("rejoins[0]"),
            std::string::npos);
}

TEST(Recovery, ValidationRejectsOverlappingWindows) {
  // A second failure inside a still-open kill/rejoin window.
  FaultPlan overlap;
  overlap.failures.push_back({0, 1.0});
  overlap.failures.push_back({0, 2.0});
  overlap.rejoins.push_back({0, 3.0});
  std::string msg = validation_error(overlap, 4);
  EXPECT_NE(msg.find("failures[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicates"), std::string::npos) << msg;

  // A rejoin at exactly the kill instant does not close the window.
  FaultPlan instant;
  instant.failures.push_back({0, 1.0});
  instant.rejoins.push_back({0, 1.0});
  EXPECT_NE(validation_error(instant, 4).find("strictly after"),
            std::string::npos);

  // Out-of-range and non-finite rejoin entries are named per-entry.
  FaultPlan range;
  range.failures.push_back({0, 1.0});
  range.rejoins.push_back({9, 2.0});
  EXPECT_NE(validation_error(range, 4).find("rejoins[0]"), std::string::npos);

  // Alternating kill/rejoin cycles are legal.
  FaultPlan cycles;
  cycles.failures.push_back({0, 1.0});
  cycles.rejoins.push_back({0, 2.0});
  cycles.failures.push_back({0, 3.0});
  cycles.rejoins.push_back({0, 4.5});
  EXPECT_NO_THROW(cycles.validate(4));
}

TEST(Recovery, ValidationRejectsBadSlowdownUntil) {
  FaultPlan bad;
  bad.slowdowns.push_back({0, 2.0, 0.5, 1.5});  // recovers before the onset
  EXPECT_NE(validation_error(bad, 4).find("slowdowns[0]"), std::string::npos);
  FaultPlan ok;
  ok.slowdowns.push_back({0, 2.0, 0.5, 6.0});
  ok.slowdowns.push_back({1, 2.0, 0.5});  // kInfiniteTime = permanent
  EXPECT_NO_THROW(ok.validate(4));
}

// --- Resolution: canonical windows, availability, final speeds ---------------

TEST(Recovery, ResolveCanonicalizesWindowsAndAvailability) {
  FaultPlan plan;
  plan.failures.push_back({0, 1.0});
  plan.rejoins.push_back({0, 2.0});
  plan.failures.push_back({0, 3.0});
  plan.failures.push_back({1, 4.0});
  plan.validate(4);
  ResolvedFaults r = resolve_faults(plan);

  // Proc 0 ends dead (second window never closes); proc 1 never recovers;
  // procs 2..3 were never touched.
  EXPECT_EQ(r.available_from(0), kInfiniteTime);
  EXPECT_EQ(r.available_from(1), kInfiniteTime);
  EXPECT_DOUBLE_EQ(r.available_from(2), 0.0);
  EXPECT_DOUBLE_EQ(r.downtime(0, 10.0), (2.0 - 1.0) + (10.0 - 3.0));
  EXPECT_DOUBLE_EQ(r.downtime(1, 10.0), 6.0);
  EXPECT_DOUBLE_EQ(r.downtime(2, 10.0), 0.0);
  // Clamped to a horizon inside the first window.
  EXPECT_DOUBLE_EQ(r.downtime(0, 1.5), 0.5);

  FaultPlan healed;
  healed.failures.push_back({0, 1.0});
  healed.rejoins.push_back({0, 2.5});
  ResolvedFaults h = resolve_faults(healed);
  EXPECT_DOUBLE_EQ(h.available_from(0), 2.5);
  EXPECT_DOUBLE_EQ(h.downtime(0, 10.0), 1.5);
}

TEST(Recovery, BurstStrikesCollidingWithOpenWindowsAreDropped) {
  // An explicit permanent kill at t=5 lands inside the burst's [4, 6)
  // window: the resolved set keeps the alternating state-changing events
  // only, so the collision is swallowed and proc 0 ends alive.
  FaultPlan plan;
  plan.failures.push_back({0, 5.0});
  plan.domains.push_back({"rack0", {0}});
  plan.bursts.push_back({"rack0", 4.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0});
  plan.validate(2);
  ResolvedFaults r = resolve_faults(plan);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_DOUBLE_EQ(r.failures[0].time, 4.0);
  ASSERT_EQ(r.rejoins.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rejoins[0].time, 6.0);
  EXPECT_DOUBLE_EQ(r.available_from(0), 6.0);
}

TEST(Recovery, TransientBurstsHealAndFinalSpeedsIgnoreThem) {
  FaultPlan plan;
  plan.domains.push_back({"rack0", {0, 1}});
  // Transient slowdown burst: factor 0.25 for 3 time units per member.
  plan.bursts.push_back({"rack0", 5.0, 0.0, 1.0, 0.25, 0.0, 0.0, 3.0});
  plan.slowdowns.push_back({2, 1.0, 0.5});       // permanent
  plan.slowdowns.push_back({3, 1.0, 0.5, 9.0});  // transient
  plan.validate(4);
  ResolvedFaults r = resolve_faults(plan);
  ASSERT_EQ(r.slowdowns.size(), 4u);
  for (const SlowdownFault& s : r.slowdowns)
    if (s.proc <= 1) EXPECT_DOUBLE_EQ(s.until, 8.0);

  // final_speeds models the end state: healed throttles do not count.
  std::vector<double> speeds = final_speeds(r, 4);
  EXPECT_DOUBLE_EQ(speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(speeds[1], 1.0);
  EXPECT_DOUBLE_EQ(speeds[2], 0.5);
  EXPECT_DOUBLE_EQ(speeds[3], 1.0);
}

// --- Simulator: transient slowdowns and rejoins ------------------------------

TEST(RecoverySim, SlowdownUntilRestoresSpeedExactly) {
  TaskGraphBuilder b;
  b.add_task(4.0);
  TaskGraph g = std::move(b).build();
  Schedule s(1, 1);
  s.assign(0, 0, 0.0, 4.0);

  // Half speed on [2, 4): 2 units by t=2, 1 unit over [2,4), the last unit
  // at restored full speed -> t=5.
  FaultPlan plan;
  plan.slowdowns.push_back({0, 2.0, 0.5, 4.0});
  SimResult r = simulate(g, s, with_faults(plan));
  ASSERT_TRUE(r.complete());
  EXPECT_DOUBLE_EQ(r.finish[0], 5.0);

  // Two overlapping transients that both end: the speed returns to exactly
  // 1.0 (segment speeds are recomputed, not multiplied back).
  FaultPlan overlap;
  overlap.slowdowns.push_back({0, 1.0, 0.3, 2.0});
  overlap.slowdowns.push_back({0, 1.5, 0.7, 2.0});
  // Work done: 1 (speed 1) + 0.5*0.3 + 0.5*0.21 = 1.255 by t=2; the
  // remaining 2.745 at speed 1 -> t=4.745.
  SimResult o = simulate(g, s, with_faults(overlap));
  ASSERT_TRUE(o.complete());
  EXPECT_DOUBLE_EQ(o.finish[0], 2.0 + (4.0 - 1.255));
}

TEST(RecoverySim, RejoinedProcessorRunsLaterWorkColdly) {
  // A (proc 1, work 5) --comm 2--> B (proc 0, work 1). Proc 0 is killed at
  // t=0.5 and rejoins at t=3: C (proc 0, work 2, independent) was already
  // dispatched and dies with the kill; B only becomes ready at t=5, after
  // the reboot, and runs on the recovered processor.
  TaskGraphBuilder b;
  TaskId a = b.add_task(5.0);
  TaskId bb = b.add_task(1.0);
  TaskId c = b.add_task(2.0);
  b.add_edge(a, bb, 2.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 3);
  s.assign(c, 0, 0.0, 2.0);
  s.assign(a, 1, 0.0, 5.0);
  s.assign(bb, 0, 7.0, 8.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  FaultPlan plan;
  plan.failures.push_back({0, 0.5});
  plan.rejoins.push_back({0, 3.0});
  SimResult r = simulate(g, s, with_faults(plan));
  EXPECT_EQ(r.rejoins, 1u);
  // C died with the kill; its half unit of work is lost.
  EXPECT_EQ(r.start[c], kUndefinedTime);
  EXPECT_DOUBLE_EQ(r.work_lost, 0.5);
  ASSERT_EQ(r.unfinished.size(), 1u);
  EXPECT_EQ(r.unfinished[0], c);
  // B's message arrives at 5 + 2 = 7, after the reboot: no re-fetch needed.
  EXPECT_DOUBLE_EQ(r.start[bb], 7.0);
  EXPECT_DOUBLE_EQ(r.finish[bb], 8.0);
  // Downtime accounting covers only the [0.5, 3) window.
  EXPECT_DOUBLE_EQ(r.dead_proc_idle, 2.5);
}

TEST(RecoverySim, DataDeliveredBeforeRebootIsRefetched) {
  // A (proc 1, work 1) --comm 2--> B (proc 0, work 1). The message lands at
  // t=3, while proc 0 is down [0.5, 10): B must re-fetch it after the
  // reboot and starts at 10 + 2 = 12.
  TaskGraphBuilder b;
  TaskId a = b.add_task(1.0);
  TaskId bb = b.add_task(1.0);
  b.add_edge(a, bb, 2.0);
  TaskGraph g = std::move(b).build();
  Schedule s(2, 2);
  s.assign(a, 1, 0.0, 1.0);
  s.assign(bb, 0, 3.0, 4.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  FaultPlan plan;
  plan.failures.push_back({0, 0.5});
  plan.rejoins.push_back({0, 10.0});
  SimResult r = simulate(g, s, with_faults(plan));
  ASSERT_TRUE(r.complete());
  EXPECT_DOUBLE_EQ(r.start[bb], 12.0);
  EXPECT_DOUBLE_EQ(r.makespan, 13.0);
}

// --- resume(): per-processor admission ---------------------------------------

TEST(RecoveryResume, ProcReleaseDelaysAdmission) {
  // Two independent unit tasks on two processors: normally both start at 0.
  // With proc 1 admitted only from t=5, both land on proc 0 instead.
  TaskGraphBuilder b;
  b.add_task(1.0);
  b.add_task(1.0);
  TaskGraph g = std::move(b).build();
  FlbScheduler flb;
  auto admitted_from = [](std::vector<Cost> proc_release) {
    platform::CostModel model = platform::CostModel::clique(2);
    platform::Availability a;
    a.proc_release = std::move(proc_release);
    model.set_availability(std::move(a));
    return model;
  };

  platform::CostModel late = admitted_from({0.0, 5.0});
  Schedule s = flb.resume(g, Schedule(2, 2), late);
  EXPECT_EQ(s.proc(0), 0u);
  EXPECT_EQ(s.proc(1), 0u);
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);

  // Shrink the admission delay below the queueing delay and the second
  // task moves over.
  platform::CostModel early = admitted_from({0.0, 0.5});
  Schedule t = flb.resume(g, Schedule(2, 2), early);
  EXPECT_EQ(t.proc(1), 1u);
  EXPECT_DOUBLE_EQ(t.start(1), 0.5);

  // Validation: sizes and finiteness of the admission instants, and a
  // topology whose node count differs from the prefix's processors.
  EXPECT_THROW((void)admitted_from({0.0}), Error);
  EXPECT_THROW((void)admitted_from({0.0, -1.0}), Error);
  const Topology three = Topology::ring(3);
  platform::CostModel routed = platform::CostModel::routed(three);
  EXPECT_THROW((void)flb.resume(g, Schedule(2, 2), routed), Error);
}

// --- Repair: opportunistic give-back -----------------------------------------

TEST(RecoveryRepair, GiveBackBeatsNoGiveBackOnIndependentWork) {
  // Twelve unit tasks on two processors. Proc 1 dies at 0.5 and rejoins at
  // 1.0: the no-give-back repair crams everything onto proc 0, the
  // recovery-aware repair hands half of it back.
  TaskGraphBuilder b;
  for (int i = 0; i < 12; ++i) b.add_task(1.0);
  TaskGraph g = std::move(b).build();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);

  FaultPlan plan;
  plan.failures.push_back({1, 0.5});
  plan.rejoins.push_back({1, 1.0});
  SimResult partial = simulate(g, nominal, with_faults(plan));
  EXPECT_EQ(partial.rejoins, 1u);

  RepairOptions no_gb;
  no_gb.give_back = false;
  RepairResult baseline = repair_schedule(g, nominal, partial, plan, no_gb);
  RepairResult repair = repair_schedule(g, nominal, partial, plan);

  ASSERT_TRUE(is_valid_schedule(g, baseline.schedule, baseline.durations));
  ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations));
  EXPECT_EQ(baseline.given_back_tasks, 0u);
  EXPECT_EQ(repair.recovered_procs, 1u);
  EXPECT_GT(repair.given_back_tasks, 0u);
  EXPECT_GT(repair.work_given_back, 0.0);
  EXPECT_LT(repair.schedule.makespan(), baseline.schedule.makespan());
  EXPECT_EQ(repair.survivors, 2u);
  EXPECT_GT(repair.time_recovered, 0.0);
  EXPECT_GT(repair.time_degraded, 0.0);

  // Give-back placements respect the admission instant.
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (partial.finish[t] == kUndefinedTime && repair.schedule.proc(t) == 1)
      EXPECT_GE(repair.schedule.start(t), 1.0 - 1e-9);

  // Metrics carry the recovery accounting through.
  RobustnessMetrics m = robustness_metrics(nominal, partial, repair);
  EXPECT_EQ(m.recovered_procs, 1u);
  EXPECT_EQ(m.given_back_tasks, repair.given_back_tasks);
  EXPECT_DOUBLE_EQ(m.work_given_back, repair.work_given_back);
  EXPECT_DOUBLE_EQ(m.time_recovered, repair.time_recovered);
}

// The acceptance episode across fuzzed workloads: a killed processor
// rejoins mid-schedule; the recovery-aware repair is feasible (validator-
// clean, durations-aware overload) and never worse than the no-give-back
// repair — under the clique and under a routed mesh.
TEST(RecoveryRepair, RejoinEpisodeNeverWorseThanNoGiveBack) {
  Topology mesh = Topology::mesh2d(2, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule nominal = flb.run(g, 4);
    const Cost span = nominal.makespan();

    FaultPlan plan;
    plan.failures.push_back({1, 0.3 * span});
    plan.rejoins.push_back({1, 0.45 * span});
    plan.checkpoint = {0.25 * span, 0.0};
    SimResult partial = simulate(g, nominal, with_faults(plan));

    const Topology* const topologies[] = {nullptr, &mesh};
    for (const Topology* topo : topologies) {
      RepairOptions opts;
      opts.topology = topo;
      RepairOptions no_gb = opts;
      no_gb.give_back = false;

      RepairResult repair = repair_schedule(g, nominal, partial, plan, opts);
      RepairResult baseline =
          repair_schedule(g, nominal, partial, plan, no_gb);
      ASSERT_TRUE(repair.schedule.complete()) << g.name();
      ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations))
          << g.name() << "\n"
          << test::violations_to_string(g, repair.schedule);
      ASSERT_TRUE(
          is_valid_schedule(g, baseline.schedule, baseline.durations))
          << g.name();
      EXPECT_LE(repair.schedule.makespan(),
                baseline.schedule.makespan() + 1e-9)
          << g.name();

      // Migrated tasks never land on the processor during its downtime.
      for (TaskId t = 0; t < g.num_tasks(); ++t)
        if (partial.finish[t] == kUndefinedTime &&
            repair.schedule.proc(t) == 1)
          EXPECT_GE(repair.schedule.start(t), 0.45 * span - 1e-9) << g.name();

      // The continuation replays to completion carrying its durations —
      // under the clique simulator and the routed model alike.
      SimOptions replay_opts;
      replay_opts.work_override = &repair.durations;
      EXPECT_TRUE(simulate(g, repair.schedule, replay_opts).complete())
          << g.name();
      if (topo != nullptr) {
        replay_opts.topology = topo;
        EXPECT_TRUE(simulate(g, repair.schedule, replay_opts).complete())
            << g.name();
      }
    }
  }
}

TEST(RecoveryRepair, AllProcessorsKilledButOneRejoins) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);
  FaultPlan plan;
  plan.failures.push_back({0, 0.1});
  plan.failures.push_back({1, 0.1});
  plan.rejoins.push_back({0, 0.6});
  SimResult partial = simulate(g, nominal, with_faults(plan));

  // give_back=false cannot refuse the only capacity there is: the recovery
  // continuation is mandatory and lands everything on the rejoined proc.
  RepairOptions no_gb;
  no_gb.give_back = false;
  RepairResult repair = repair_schedule(g, nominal, partial, plan, no_gb);
  ASSERT_TRUE(repair.schedule.complete());
  ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations));
  EXPECT_EQ(repair.survivors, 1u);
  EXPECT_EQ(repair.recovered_procs, 1u);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (partial.finish[t] == kUndefinedTime) {
      EXPECT_EQ(repair.schedule.proc(t), 0u);
      EXPECT_GE(repair.schedule.start(t), 0.6 - 1e-9);
    }

  // A plan that kills everyone for good still throws.
  FaultPlan fatal;
  fatal.failures.push_back({0, 0.1});
  fatal.failures.push_back({1, 0.1});
  SimResult dead = simulate(g, nominal, with_faults(fatal));
  EXPECT_THROW((void)repair_schedule(g, nominal, dead, fatal), Error);
}

// --- One engine across repairs ------------------------------------------------

// The recovery controller resumes every repair of an episode on one FLB
// engine. A warm engine must place exactly what a fresh one places however
// the repairs before it sized and dirtied its scratch: from one repair to
// the next the graph size, the processor count and the pricing all change,
// and a link-busy repair abandons the continuations its serial floor
// beats part-way through. The serial floor wins the larger link-busy
// repair here, so each link-busy step also resumes FLB to completion on
// the step's baseline model, warm and fresh.
TEST(Repair, SharedSchedulerMatchesFreshScheduler) {
  const Topology mesh = Topology::mesh2d(4, 4);
  struct Step {
    const char* family;
    std::size_t tasks;
    ProcId procs;
    const Topology* topology;
    bool link_busy;
    RepairStrategy expected;  // the winning continuation's strategy
  };
  constexpr RepairStrategy kFlb = RepairStrategy::kFlbResume;
  constexpr RepairStrategy kGreedy = RepairStrategy::kGreedy;
  const Step steps[] = {
      {"LU", 2000, 8, nullptr, false, kFlb},
      {"Laplace", 120, 16, &mesh, false, kFlb},
      {"Laplace", 2000, 16, &mesh, true, kGreedy},
      {"LU", 120, 4, nullptr, false, kFlb},
      {"Stencil", 2000, 4, nullptr, false, kFlb},
      {"LU", 120, 16, &mesh, true, kFlb},
  };
  FlbScheduler shared;
  std::uint64_t seed = 1;
  std::size_t reservations = 0;
  std::size_t resumed_reservations = 0;
  for (const Step& step : steps) {
    WorkloadParams params;
    params.ccr = 5.0;
    params.seed = seed++;
    const TaskGraph g = make_workload(step.family, step.tasks, params);
    const Schedule nominal = FlbScheduler().run(g, step.procs);
    const Cost span = nominal.makespan();
    FaultPlan plan;
    plan.failures.push_back({1, 0.3 * span});
    plan.rejoins.push_back({1, 0.5 * span});
    const SimResult partial = simulate(g, nominal, with_faults(plan));
    RepairOptions opts;
    opts.topology = step.topology;
    opts.link_busy = step.link_busy;

    const RepairResult warm =
        repair_schedule(g, nominal, partial, plan, opts, shared);
    const RepairResult fresh = repair_schedule(g, nominal, partial, plan, opts);
    const std::string what = std::string(step.family) + " V=" +
                             std::to_string(g.num_tasks()) +
                             " P=" + std::to_string(step.procs);
    EXPECT_EQ(warm.used, step.expected) << what;
    EXPECT_EQ(schedule_digest(warm.schedule), schedule_digest(fresh.schedule))
        << what;
    EXPECT_EQ(warm.durations, fresh.durations) << what;
    EXPECT_EQ(warm.link_occupancies.size(), fresh.link_occupancies.size())
        << what;
    if (!step.link_busy) continue;
    reservations += warm.link_occupancies.size();

    // The baseline continuation's machine, resumed to completion: the
    // executed prefix kept, processor 1 refused, the rest admitted from
    // the kill.
    Schedule prefix(step.procs, g.num_tasks());
    for (TaskId t = 0; t < g.num_tasks(); ++t)
      if (partial.finish[t] != kUndefinedTime)
        prefix.assign(t, nominal.proc(t), partial.start[t], partial.finish[t]);
    platform::Availability a;
    a.alive.assign(step.procs, true);
    a.alive[1] = false;
    a.release = 0.3 * span;
    platform::CostModel warm_model = platform::CostModel::link_busy(mesh);
    warm_model.set_availability(a);
    platform::CostModel fresh_model = platform::CostModel::link_busy(mesh);
    fresh_model.set_availability(std::move(a));
    const Schedule warm_flb = shared.resume(g, prefix, warm_model);
    const Schedule fresh_flb = FlbScheduler().resume(g, prefix, fresh_model);
    ASSERT_TRUE(warm_flb.complete()) << what;
    EXPECT_EQ(schedule_digest(warm_flb), schedule_digest(fresh_flb)) << what;
    EXPECT_EQ(warm_model.occupancies().size(),
              fresh_model.occupancies().size())
        << what;
    resumed_reservations += warm_model.occupancies().size();
  }
  EXPECT_GT(reservations, 0u);  // the link-busy repairs reserved links
  EXPECT_GT(resumed_reservations, 0u);  // and so did the full resumes
}

// Link-busy repair over generated inputs: fuzz graphs on every zoo
// interconnect of two or more processors, each under a seeded kill ->
// rejoin plan. Every continuation is feasible for its durations and
// reserves each link for one transfer at a time; a warm engine repairs
// exactly as a fresh one; and admitting the rejoined processor never
// lengthens the repair, since give-back only adds a candidate. On three
// or more processors a greedy repair is the serial floor's, and the sweep
// sees it win and lose. Every repair's schedule, strategy and link log
// are chained into one pinned digest.
TEST(Repair, LinkBusyRepairSweep) {
  Rng rng(2024);
  FlbScheduler shared;
  Fnv1a digest;
  auto bits = [&](double v) {
    digest.add_u64(std::bit_cast<std::uint64_t>(v));
  };
  std::size_t index = 0;
  std::size_t repairs = 0;
  std::size_t floor_wins = 0;
  std::size_t parallel_wins = 0;
  for (const Topology& topo : test::topology_zoo()) {
    const ProcId procs = topo.num_nodes();
    if (procs < 2) continue;
    for (int round = 0; round < 2; ++round) {
      const TaskGraph g = test::fuzz_graph(index++ % 12);
      const Schedule nominal = FlbScheduler().run(g, procs);
      const Cost span = nominal.makespan();
      const auto victim = static_cast<ProcId>(rng.next_below(procs));
      const Cost kill = span * rng.uniform(0.1, 0.5);
      FaultPlan plan;
      plan.failures.push_back({victim, kill});
      plan.rejoins.push_back({victim, kill + span * rng.uniform(0.05, 0.4)});
      const SimResult partial = simulate(g, nominal, with_faults(plan));
      RepairOptions opts;
      opts.horizon = kill;
      opts.topology = &topo;
      opts.link_busy = true;
      const std::string what = g.name() + " on " + std::to_string(procs) +
                               " nodes, victim " + std::to_string(victim);

      const RepairResult warm =
          repair_schedule(g, nominal, partial, plan, opts, shared);
      const RepairResult fresh =
          repair_schedule(g, nominal, partial, plan, opts);
      for (const Violation& v :
           validate_schedule(g, warm.schedule, warm.durations))
        ADD_FAILURE() << what << ": " << to_string(v);
      for (const Violation& v :
           validate_link_occupancies(topo, warm.link_occupancies))
        ADD_FAILURE() << what << ": " << to_string(v);
      EXPECT_EQ(warm.used, fresh.used) << what;
      EXPECT_EQ(schedule_digest(warm.schedule),
                schedule_digest(fresh.schedule))
          << what;
      EXPECT_EQ(warm.link_occupancies.size(), fresh.link_occupancies.size())
          << what;

      opts.give_back = false;
      const RepairResult refused =
          repair_schedule(g, nominal, partial, plan, opts, shared);
      for (const Violation& v :
           validate_schedule(g, refused.schedule, refused.durations))
        ADD_FAILURE() << what << ", no give-back: " << to_string(v);
      EXPECT_LE(warm.schedule.makespan(), refused.schedule.makespan())
          << what;
      digest.add_u64(schedule_digest(warm.schedule));
      digest.add_u64(static_cast<std::uint64_t>(warm.used));
      for (const platform::LinkOccupancy& o : warm.link_occupancies) {
        digest.add_u64(o.link);
        bits(o.begin);
        bits(o.end);
      }
      ++repairs;
      if (procs > 2 && warm.migrated_tasks > 0)
        ++(warm.used == RepairStrategy::kGreedy ? floor_wins : parallel_wins);
    }
  }
  EXPECT_EQ(repairs, 74u);
  EXPECT_EQ(floor_wins, 21u);
  EXPECT_EQ(parallel_wins, 47u);
  EXPECT_EQ(digest.value(), 0x66b26224f1b2e68cull);
}

// --- Routed-topology repair determinism (mirrors the clique test) ------------

TEST(RecoveryRepair, RoutedRepairIsDeterministic) {
  Topology mesh = Topology::mesh2d(2, 2);
  Topology torus = Topology::torus2d(2, 3);
  struct Case {
    const Topology* topo;
    ProcId procs;
  };
  const Case cases[] = {{&mesh, 4}, {&torus, 6}};
  for (const Case& c : cases) {
    for (std::size_t i = 0; i < 4; ++i) {
      TaskGraph g = test::fuzz_graph(i);
      FlbScheduler flb;
      Schedule nominal = flb.run(g, c.procs);
      const Cost span = nominal.makespan();

      FaultPlan plan;
      plan.seed = 29;
      plan.failures.push_back({1, 0.3 * span});
      plan.rejoins.push_back({1, 0.5 * span});
      plan.slowdowns.push_back({0, 0.2 * span, 0.5, 0.8 * span});
      plan.checkpoint = {0.25 * span, 0.0};

      RepairOptions opts;
      opts.topology = c.topo;

      SimResult partial = simulate(g, nominal, with_faults(plan));
      RepairResult repair = repair_schedule(g, nominal, partial, plan, opts);
      RobustnessMetrics m = robustness_metrics(nominal, partial, repair);

      SimResult partial2 = simulate(g, nominal, with_faults(plan));
      RepairResult repair2 =
          repair_schedule(g, nominal, partial2, plan, opts);
      RobustnessMetrics m2 = robustness_metrics(nominal, partial2, repair2);

      // Bit-identical schedules...
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        ASSERT_EQ(repair.schedule.proc(t), repair2.schedule.proc(t))
            << g.name();
        ASSERT_DOUBLE_EQ(repair.schedule.start(t), repair2.schedule.start(t))
            << g.name();
        ASSERT_DOUBLE_EQ(repair.durations[t], repair2.durations[t])
            << g.name();
      }
      // ...and bit-identical metrics.
      EXPECT_DOUBLE_EQ(m.repaired_makespan, m2.repaired_makespan);
      EXPECT_DOUBLE_EQ(m.degradation_ratio, m2.degradation_ratio);
      EXPECT_DOUBLE_EQ(m.work_lost, m2.work_lost);
      EXPECT_DOUBLE_EQ(m.time_degraded, m2.time_degraded);
      EXPECT_DOUBLE_EQ(m.time_recovered, m2.time_recovered);
      EXPECT_EQ(m.given_back_tasks, m2.given_back_tasks);
      EXPECT_DOUBLE_EQ(m.work_given_back, m2.work_given_back);
      EXPECT_EQ(m.recovered_procs, m2.recovered_procs);

      ASSERT_TRUE(is_valid_schedule(g, repair.schedule, repair.durations))
          << g.name();
    }
  }
}

}  // namespace
}  // namespace flb
