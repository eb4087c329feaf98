// The online recovery runtime (flb::runtime): the simulator's observable
// event stream, the horizon-sliced fault view, and the closed-loop
// controller that repairs with no knowledge of future faults — debounce
// coalescing, bounded retry with backoff, graceful degradation, give-back
// on observed rejoins, per-seed determinism, and the poisoned-future
// guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "flb/core/flb.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/runtime/failure_detector.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/util/error.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

using runtime::BeliefEvent;
using runtime::BeliefKind;
using runtime::FailureDetector;
using runtime::HorizonFaultView;
using runtime::RuntimeOptions;
using runtime::RuntimeResult;
using runtime::belief_log_text;
using runtime::event_log_text;
using runtime::fnv1a_digest;
using runtime::run_online_recovery;

std::size_t count_kind(const std::vector<SimEvent>& events, SimEventKind k) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const SimEvent& e) { return e.kind == k; }));
}

/// `tasks` independent unit tasks scheduled round-robin-free: `per_proc`
/// tasks appended per processor in id order — the deterministic fixture of
/// the controller tests.
Schedule strip_schedule(TaskId tasks, ProcId procs, TaskId per_proc) {
  Schedule s(procs, tasks);
  for (TaskId t = 0; t < tasks; ++t) {
    const ProcId p = static_cast<ProcId>(t / per_proc);
    const Cost start = static_cast<Cost>(t % per_proc);
    s.assign(t, p, start, start + 1.0);
  }
  return s;
}

TaskGraph unit_tasks(TaskId n) {
  TaskGraphBuilder b;
  for (TaskId t = 0; t < n; ++t) b.add_task(1.0);
  return std::move(b).build();
}

// --- The simulator's event stream --------------------------------------------

TEST(SimEventLog, StreamsEveryObservableFaultSortedAndDeterministic) {
  TaskGraph g = unit_tasks(4);
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 0, 1.0, 2.0);
  s.assign(2, 1, 0.0, 1.0);
  s.assign(3, 1, 1.0, 2.0);

  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.25, 0.5, 1.5});
  plan.failures.push_back({1, 0.5});
  plan.rejoins.push_back({1, 3.0});

  std::vector<SimEvent> log;
  SimOptions options;
  options.faults = &plan;
  options.event_log = &log;
  SimResult r = simulate(g, s, options);

  EXPECT_EQ(count_kind(log, SimEventKind::kFailure), 1u);
  EXPECT_EQ(count_kind(log, SimEventKind::kRejoin), 1u);
  EXPECT_EQ(count_kind(log, SimEventKind::kSlowdownBegin), 1u);
  EXPECT_EQ(count_kind(log, SimEventKind::kSlowdownEnd), 1u);
  // Dispatch runs ahead, so the kill at t=0.5 takes both of proc 1's tasks.
  EXPECT_EQ(count_kind(log, SimEventKind::kTaskKilled), 2u);
  EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
  EXPECT_EQ(r.unfinished.size(), 2u);

  // Byte-identical across runs: the log is a pure value of (plan, schedule).
  std::vector<SimEvent> log2;
  options.event_log = &log2;
  (void)simulate(g, s, options);
  EXPECT_EQ(event_log_text(log), event_log_text(log2));
  EXPECT_EQ(fnv1a_digest(event_log_text(log)),
            fnv1a_digest(event_log_text(log2)));

  // A fault-free run has nothing to observe; the log is cleared.
  options.faults = nullptr;
  (void)simulate(g, s, options);
  EXPECT_TRUE(log2.empty());
}

// --- HorizonFaultView --------------------------------------------------------

TEST(HorizonView, CopiesConfigurationButNoFutureFaults) {
  FaultPlan world;
  world.seed = 77;
  world.runtime_spread = 0.1;
  world.checkpoint = {5.0, 0.25, 2.0};
  world.message.loss_probability = 0.5;
  world.failures.push_back({1, 4.0});
  world.slowdowns.push_back({0, 1.0, 0.5});

  HorizonFaultView view(world, 4);
  EXPECT_EQ(view.plan().seed, 77u);
  EXPECT_DOUBLE_EQ(view.plan().runtime_spread, 0.1);
  EXPECT_DOUBLE_EQ(view.plan().checkpoint.min_downstream, 2.0);
  EXPECT_DOUBLE_EQ(view.plan().message.loss_probability, 0.5);
  EXPECT_TRUE(view.plan().failures.empty());
  EXPECT_TRUE(view.plan().slowdowns.empty());
  EXPECT_EQ(view.observed_alive(), 4u);
}

TEST(HorizonView, ObservationsGrowThePlanAndLivenessTracks) {
  HorizonFaultView view(FaultPlan{}, 4);
  view.advance(5.0);

  const SimEvent fail{1.0, SimEventKind::kFailure, 1};
  view.observe(fail);
  EXPECT_TRUE(view.observed(fail));
  ASSERT_EQ(view.plan().failures.size(), 1u);
  EXPECT_EQ(view.observed_alive(), 3u);
  view.observe(fail);  // re-observation is a no-op
  EXPECT_EQ(view.plan().failures.size(), 1u);

  // An open slowdown is permanent until its end is observed.
  view.observe({2.0, SimEventKind::kSlowdownBegin, 0, kInvalidTask,
                kInvalidTask, 0.5});
  ASSERT_EQ(view.plan().slowdowns.size(), 1u);
  EXPECT_EQ(view.plan().slowdowns[0].until, kInfiniteTime);
  view.observe({4.0, SimEventKind::kSlowdownEnd, 0, kInvalidTask,
                kInvalidTask, 0.5});
  EXPECT_DOUBLE_EQ(view.plan().slowdowns[0].until, 4.0);

  view.observe({4.5, SimEventKind::kRejoin, 1});
  EXPECT_EQ(view.observed_alive(), 4u);
  EXPECT_EQ(view.observed_events(), 4u);

  // Message drops are keyed by edge: a re-simulated drop of the same pair
  // at a shifted instant counts as observed.
  view.observe({3.0, SimEventKind::kMessageDropped, 2, 7, 9});
  EXPECT_TRUE(view.observed({3.25, SimEventKind::kMessageDropped, 2, 7, 9}));
  EXPECT_FALSE(view.observed({3.0, SimEventKind::kMessageDropped, 2, 7, 8}));

  // The horizon is monotone, and nothing beyond it can be observed.
  EXPECT_THROW(view.advance(4.0), Error);
  EXPECT_THROW(view.observe({6.0, SimEventKind::kFailure, 2}), Error);
  EXPECT_NO_THROW(view.plan().validate(4));
}

// --- The controller loop -----------------------------------------------------

TEST(OnlineRecovery, FaultFreeWorldInstallsTheNominalScheduleUnchanged) {
  TaskGraph g = test::fuzz_graph(0);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  RuntimeResult r = run_online_recovery(g, nominal, FaultPlan{});
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.repairs.empty());
  EXPECT_TRUE(r.events.empty());
  EXPECT_TRUE(r.durations.empty());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_EQ(r.schedule.proc(t), nominal.proc(t));
}

TEST(OnlineRecovery, KillThenRejoinRepairsTwiceAndGivesBack) {
  TaskGraph g = unit_tasks(12);
  Schedule nominal = strip_schedule(12, 2, 6);
  FaultPlan world;
  world.failures.push_back({1, 0.5});
  world.rejoins.push_back({1, 1.0});

  RuntimeResult r = run_online_recovery(g, nominal, world);
  EXPECT_TRUE(r.complete);
  // One reaction to the kill, one to the observed rejoin (give-back).
  ASSERT_EQ(r.repairs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.repairs[0].observed_at, 0.5);
  EXPECT_DOUBLE_EQ(r.repairs[1].observed_at, 1.0);
  EXPECT_EQ(r.repairs[0].survivors, 1u);
  EXPECT_EQ(r.repairs[1].survivors, 2u);
  EXPECT_GT(r.repairs[1].migrated, 0u);
  EXPECT_FALSE(r.repairs[0].deferred);
  ASSERT_EQ(r.durations.size(), g.num_tasks());
  EXPECT_TRUE(is_valid_schedule(g, r.schedule, r.durations));
  // The give-back continuation uses the rejoined processor again.
  bool rejoined_used = false;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (r.schedule.proc(t) == 1 && r.schedule.start(t) >= 1.0 - 1e-9)
      rejoined_used = true;
  EXPECT_TRUE(rejoined_used);
  // Executed strictly worse than fault-free, strictly better than the
  // one-processor worst case.
  EXPECT_GT(r.makespan, 6.0 - 1e-9);
  EXPECT_LT(r.makespan, 12.0);
}

TEST(OnlineRecovery, DebounceCoalescesABurstIntoOneRepair) {
  TaskGraph g = unit_tasks(12);
  Schedule nominal = strip_schedule(12, 4, 3);
  FaultPlan world;
  world.failures.push_back({1, 1.0});
  world.failures.push_back({2, 1.4});

  RuntimeOptions one_shot;
  one_shot.debounce = 0.5;
  RuntimeResult coalesced = run_online_recovery(g, nominal, world, one_shot);
  ASSERT_EQ(coalesced.repairs.size(), 1u);
  EXPECT_DOUBLE_EQ(coalesced.repairs[0].observed_at, 1.0);
  EXPECT_DOUBLE_EQ(coalesced.repairs[0].horizon, 1.5);
  EXPECT_TRUE(coalesced.complete);

  RuntimeOptions eager;  // debounce 0: one reaction per strike instant
  RuntimeResult split = run_online_recovery(g, nominal, world, eager);
  ASSERT_EQ(split.repairs.size(), 2u);
  EXPECT_DOUBLE_EQ(split.repairs[0].observed_at, 1.0);
  EXPECT_DOUBLE_EQ(split.repairs[1].observed_at, 1.4);
  EXPECT_TRUE(split.complete);
}

TEST(OnlineRecovery, RepairTargetReStrikeBacksOffThenDegrades) {
  TaskGraph g = unit_tasks(9);
  Schedule nominal = strip_schedule(9, 3, 3);
  FaultPlan world;
  world.failures.push_back({0, 0.5});
  world.failures.push_back({1, 2.5});

  RuntimeResult r = run_online_recovery(g, nominal, world);
  ASSERT_EQ(r.repairs.size(), 2u);
  EXPECT_EQ(r.repairs[0].retry_attempt, 0u);
  // Proc 1 received migrated work at the first repair and then failed:
  // attempt 1, horizon pushed back by the one-time-unit backoff base.
  EXPECT_EQ(r.repairs[1].retry_attempt, 1u);
  EXPECT_DOUBLE_EQ(r.repairs[1].horizon, 2.5 + 1.0);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(is_valid_schedule(g, r.schedule, r.durations));

  // The retry budget is three re-strikes. After p0 fails, p1..p4 fail one
  // after another, each once the previous repair has migrated work onto
  // it, and each re-strike doubles the release delay. The fourth exhausts
  // the budget: the controller stops trusting the optimizing engine and
  // degrades to greedy for good. Two processors survive, so the
  // degradation is the budget's, not the survivor count's.
  TaskGraph h = unit_tasks(28);
  Schedule strip = strip_schedule(28, 7, 4);
  FaultPlan restrikes;
  for (ProcId p = 0; p < 5; ++p)
    restrikes.failures.push_back({p, 0.5 + 2.0 * p});
  RuntimeResult d = run_online_recovery(h, strip, restrikes);
  ASSERT_EQ(d.repairs.size(), 5u);
  // A horizon is the later of the strike and the previous horizon, plus
  // the delay: 2.5 + 1, 4.5 + 2, 6.5 + 4, 10.5 + 8.
  const Cost horizons[] = {0.5, 3.5, 6.5, 10.5, 18.5};
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(d.repairs[k].retry_attempt, k);
    EXPECT_DOUBLE_EQ(d.repairs[k].horizon, horizons[k]);
    EXPECT_EQ(d.repairs[k].used, k < 4 ? RepairStrategy::kFlbResume
                                       : RepairStrategy::kGreedy)
        << "repair " << k;
  }
  EXPECT_TRUE(d.degraded);
  EXPECT_TRUE(d.complete);
  EXPECT_TRUE(is_valid_schedule(h, d.schedule, d.durations));
}

TEST(OnlineRecovery, TotalBlackoutDefersUntilTheRejoinIsObserved) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 2);
  FaultPlan world;
  world.failures.push_back({0, 0.1});
  world.failures.push_back({1, 0.1});
  world.rejoins.push_back({0, 0.6});

  RuntimeResult r = run_online_recovery(g, nominal, world);
  ASSERT_EQ(r.repairs.size(), 2u);
  EXPECT_TRUE(r.repairs[0].deferred);
  EXPECT_EQ(r.repairs[0].survivors, 0u);
  EXPECT_EQ(r.repairs[0].schedule_digest, 0u);
  EXPECT_FALSE(r.repairs[1].deferred);
  EXPECT_TRUE(r.complete);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_EQ(r.schedule.proc(t), 0u);
}

TEST(OnlineRecovery, CheckpointedWorkResumesAcrossTheRepair) {
  // One long task killed at 3.5 with durable marks every 1.0: the online
  // continuation re-executes only the unprotected remainder. Raising
  // min_downstream beyond the task's bottom level disables its checkpoints
  // and the remainder grows back to the full computation.
  TaskGraphBuilder b;
  b.add_task(4.0);
  b.add_task(1.0);
  TaskGraph g = std::move(b).build();
  Schedule nominal(2, 2);
  nominal.assign(0, 0, 0.0, 4.0);
  nominal.assign(1, 1, 0.0, 1.0);

  FaultPlan world;
  world.failures.push_back({0, 3.5});
  world.checkpoint = {1.0, 0.0};

  RuntimeResult saved = run_online_recovery(g, nominal, world);
  EXPECT_TRUE(saved.complete);
  // 3 units were durable: the migrated remainder runs 1 unit from t=3.5.
  EXPECT_DOUBLE_EQ(saved.makespan, 4.5);

  world.checkpoint.min_downstream = 100.0;
  RuntimeResult unsaved = run_online_recovery(g, nominal, world);
  EXPECT_TRUE(unsaved.complete);
  EXPECT_DOUBLE_EQ(unsaved.makespan, 7.5);
}

TEST(OnlineRecovery, SameSeedIsBitIdenticalAcrossRuns) {
  TaskGraph g = test::fuzz_graph(1);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  const Cost span = nominal.makespan();

  FaultPlan world;
  world.seed = 29;
  world.runtime_spread = 0.05;
  world.checkpoint = {0.25 * span, 0.01 * span};
  world.message.loss_probability = 0.2;
  world.failures.push_back({1, 0.2 * span});
  world.rejoins.push_back({1, 0.5 * span});
  world.slowdowns.push_back({0, 0.1 * span, 0.5, 0.6 * span});

  RuntimeResult a = run_online_recovery(g, nominal, world);
  RuntimeResult b = run_online_recovery(g, nominal, world);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(event_log_text(a.events), event_log_text(b.events));
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].schedule_digest, b.repairs[i].schedule_digest);
    EXPECT_DOUBLE_EQ(a.repairs[i].horizon, b.repairs[i].horizon);
    EXPECT_EQ(a.repairs[i].events, b.repairs[i].events);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_observed, b.events_observed);
}

// The poisoned-future guarantee: two worlds identical up to a horizon T
// produce bit-identical controller behavior for every repair at or before
// T, no matter what happens after — the controller provably never reads
// future plan entries. (Configuration scalars must match: they are the
// machine's known setup, not future knowledge.)
TEST(OnlineRecovery, PoisonedFutureCannotChangePastRepairs) {
  TaskGraph g = test::fuzz_graph(2);
  FlbScheduler flb;
  Schedule nominal = flb.run(g, 4);
  const Cost span = nominal.makespan();

  FaultPlan clean;
  clean.seed = 5;
  clean.failures.push_back({1, 0.3 * span});
  RuntimeResult base = run_online_recovery(g, nominal, clean);
  ASSERT_GE(base.repairs.size(), 1u);
  const Cost poison_at = base.repairs[0].horizon;

  // Poison 1: extra faults strictly after the first repair's horizon.
  FaultPlan poisoned = clean;
  poisoned.failures.push_back({2, poison_at + 0.4 * span});
  poisoned.slowdowns.push_back({0, poison_at + 0.45 * span, 0.5});
  RuntimeResult p1 = run_online_recovery(g, nominal, poisoned);

  // Poison 2: faults so late no execution ever reaches them.
  FaultPlan late = clean;
  late.failures.push_back({3, 1e6});
  late.slowdowns.push_back({2, 1e6 + 1.0, 0.25});
  RuntimeResult p2 = run_online_recovery(g, nominal, late);

  // Every invocation at or before the poison instant is bit-identical.
  for (const RuntimeResult* r : {&p1, &p2}) {
    ASSERT_GE(r->repairs.size(), 1u);
    for (std::size_t i = 0; i < r->repairs.size() &&
                            r->repairs[i].horizon <= poison_at;
         ++i) {
      EXPECT_EQ(r->repairs[i].schedule_digest,
                base.repairs[i].schedule_digest);
      EXPECT_DOUBLE_EQ(r->repairs[i].horizon, base.repairs[i].horizon);
      EXPECT_EQ(r->repairs[i].events, base.repairs[i].events);
    }
  }
  // The never-reached poison changes nothing at all about the behavior;
  // only the (world-owned) event log sees the extra machine events.
  EXPECT_EQ(p2.schedule_digest, base.schedule_digest);
  EXPECT_EQ(p2.repairs.size(), base.repairs.size());
  EXPECT_DOUBLE_EQ(p2.makespan, base.makespan);
}

// Dropped messages surface as events and the controller re-executes the
// producer without ever seeing the plan's message table.
TEST(OnlineRecovery, MessageDropIsRepairedOnline) {
  // Find a seed whose (deterministic) message fate drops the only remote
  // edge, starving the consumer.
  TaskGraphBuilder b;
  TaskId a = b.add_task(1.0);
  TaskId c = b.add_task(1.0);
  b.add_edge(a, c, 2.0);
  TaskGraph g = std::move(b).build();
  Schedule nominal(2, 2);
  nominal.assign(a, 0, 0.0, 1.0);
  nominal.assign(c, 1, 3.0, 4.0);

  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    FaultPlan world;
    world.seed = seed;
    world.message.loss_probability = 0.9;
    world.message.max_retries = 0;
    SimOptions probe;
    probe.faults = &world;
    if (simulate(g, nominal, probe).dropped_messages == 0) continue;

    RuntimeResult r = run_online_recovery(g, nominal, world);
    EXPECT_TRUE(r.complete) << "seed " << seed;
    ASSERT_GE(r.repairs.size(), 1u);
    EXPECT_GT(r.repairs[0].events, 0u);
    EXPECT_TRUE(is_valid_schedule(g, r.schedule, r.durations));
    return;
  }
  FAIL() << "no seed dropped the message";
}

// --- Satellite: the fault view names the offending instants -----------------

TEST(HorizonView, ErrorsNameTheOffendingTimeAndTheCurrentHorizon) {
  HorizonFaultView view(FaultPlan{}, 2);
  view.advance(5.0);
  try {
    view.advance(4.0);
    FAIL() << "backwards advance must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("advance to 4.000000"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon at 5.000000"), std::string::npos) << what;
  }
  try {
    view.observe({6.0, SimEventKind::kFailure, 1});
    FAIL() << "future observation must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t=6.000000"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon 5.000000"), std::string::npos) << what;
  }
}

// --- Satellite: debounce boundary semantics ----------------------------------

TEST(OnlineRecovery, DebounceWindowEdgeIsInclusive) {
  TaskGraph g = unit_tasks(12);
  Schedule nominal = strip_schedule(12, 4, 3);
  FaultPlan world;
  world.failures.push_back({1, 1.0});
  world.failures.push_back({2, 1.5});  // exactly on the window edge

  RuntimeOptions exact;
  exact.debounce = 0.5;
  RuntimeResult one = run_online_recovery(g, nominal, world, exact);
  ASSERT_EQ(one.repairs.size(), 1u);
  EXPECT_DOUBLE_EQ(one.repairs[0].observed_at, 1.0);
  EXPECT_TRUE(one.complete);

  RuntimeOptions shy;
  shy.debounce = 0.49;  // the edge event now falls outside the window
  RuntimeResult two = run_online_recovery(g, nominal, world, shy);
  ASSERT_EQ(two.repairs.size(), 2u);
  EXPECT_DOUBLE_EQ(two.repairs[1].observed_at, 1.5);
  EXPECT_TRUE(two.complete);
}

// --- The failure detector ----------------------------------------------------

TEST(FailureDetection, QuietReliableWorldEmitsNoBeliefs) {
  FaultPlan world;
  world.heartbeat.period = 1.0;
  FailureDetector det(world, 3);
  EXPECT_TRUE(det.beliefs(100.0).empty());
  // Sensing requires a heartbeat period.
  EXPECT_THROW(FailureDetector(FaultPlan{}, 3), Error);
}

TEST(FailureDetection, DeathCrossesSuspectThenConfirmThresholds) {
  FaultPlan world;
  world.heartbeat.period = 1.0;  // suspect after 2 periods, confirm after 4
  world.failures.push_back({1, 5.0});

  FailureDetector det(world, 2);
  const std::vector<BeliefEvent> beliefs = det.beliefs(20.0);
  ASSERT_EQ(beliefs.size(), 2u);
  // Last beat heard at t=4 (the t=5 emission dies with the processor):
  // suspicion accrues at 4+2, confirmation at 4+4.
  EXPECT_EQ(beliefs[0].kind, BeliefKind::kSuspected);
  EXPECT_EQ(beliefs[0].proc, 1u);
  EXPECT_DOUBLE_EQ(beliefs[0].time, 6.0);
  EXPECT_DOUBLE_EQ(beliefs[0].last_heard, 4.0);
  EXPECT_EQ(beliefs[1].kind, BeliefKind::kConfirmedDead);
  EXPECT_DOUBLE_EQ(beliefs[1].time, 8.0);

  // Prefix stability: a narrower horizon yields exactly the early prefix.
  const std::vector<BeliefEvent> early = det.beliefs(7.0);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].key(), beliefs[0].key());
}

TEST(FailureDetection, RejoinExoneratesAConfirmedDeath) {
  FaultPlan world;
  world.heartbeat.period = 1.0;
  world.failures.push_back({1, 5.0});
  world.rejoins.push_back({1, 9.5});

  FailureDetector det(world, 2);
  const std::vector<BeliefEvent> beliefs = det.beliefs(20.0);
  ASSERT_EQ(beliefs.size(), 3u);
  EXPECT_EQ(beliefs[2].kind, BeliefKind::kExonerated);
  // First beat after the rejoin is the k=10 emission.
  EXPECT_DOUBLE_EQ(beliefs[2].time, 10.0);

  // The belief stream is a pure value of the plan.
  FailureDetector again(world, 2);
  EXPECT_EQ(belief_log_text(again.beliefs(20.0)), belief_log_text(beliefs));
}

TEST(FailureDetection, LostHeartbeatsManufactureFalseAlarms) {
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    FaultPlan world;  // everybody is alive the whole time
    world.seed = seed;
    world.heartbeat.period = 1.0;
    world.heartbeat.loss_probability = 0.35;
    FailureDetector det(world, 2);
    const std::vector<BeliefEvent> beliefs = det.beliefs(40.0);
    for (std::size_t i = 0; i + 1 < beliefs.size(); ++i)
      if (beliefs[i].kind == BeliefKind::kSuspected) {
        for (std::size_t j = i + 1; j < beliefs.size(); ++j)
          if (beliefs[j].proc == beliefs[i].proc) {
            EXPECT_NE(beliefs[j].kind, BeliefKind::kSuspected);
            if (beliefs[j].kind == BeliefKind::kExonerated) return;
            break;
          }
      }
  }
  FAIL() << "no seed produced a suspect-then-exonerate false alarm";
}

TEST(FailureDetection, ValidateRejectsBadHeartbeatConfigs) {
  FaultPlan plan;
  plan.heartbeat.period = -1.0;
  EXPECT_THROW(plan.validate(4), Error);
  plan.heartbeat.period = 1.0;
  plan.heartbeat.loss_probability = 1.5;
  EXPECT_THROW(plan.validate(4), Error);
  plan.heartbeat.loss_probability = 0.0;
  plan.heartbeat.delay_factor = 0.5;
  EXPECT_THROW(plan.validate(4), Error);
  plan.heartbeat.delay_factor = 1.5;
  plan.heartbeat.confirm_after = plan.heartbeat.suspect_after;
  EXPECT_THROW(plan.validate(4), Error);
  plan.heartbeat.confirm_after = 4.0;
  EXPECT_NO_THROW(plan.validate(4));
}

// Interleaved, repeated and exactly-on-a-belief-boundary horizons (and the
// instant just before each belief): every query returns, byte for byte,
// the events of the widest stream at time <= horizon. The past never
// rewrites, shrinks or reorders, however the horizons jump around between
// queries, and nothing at or before the horizon is missing — which is what
// lets the runtime compute a stream once for its widest horizon and answer
// narrower queries by slicing it.
template <class Stream>
void expect_horizon_slices(const Stream& stream, Cost widest,
                           std::vector<Cost> horizons) {
  const std::vector<BeliefEvent> full = stream(widest);
  ASSERT_GE(full.size(), 3u);
  for (const BeliefEvent& b : full) {
    horizons.push_back(b.time);
    horizons.push_back(std::nextafter(b.time, -kInfiniteTime));
  }
  for (const Cost h : horizons) {
    if (h < 0.0) continue;
    std::vector<BeliefEvent> expected;
    for (const BeliefEvent& b : full)
      if (b.time <= h) expected.push_back(b);
    const std::string cut_text = belief_log_text(stream(h));
    EXPECT_EQ(cut_text, belief_log_text(expected)) << "horizon " << h;
    // Asking the same horizon again changes nothing.
    EXPECT_EQ(belief_log_text(stream(h)), cut_text);
  }
}

TEST(FailureDetection, AdversarialHorizonsYieldByteIdenticalPrefixes) {
  FaultPlan world;
  world.seed = 5;
  world.heartbeat.period = 1.0;
  world.heartbeat.loss_probability = 0.3;
  world.failures.push_back({1, 7.0});
  world.rejoins.push_back({1, 12.0});
  world.failures.push_back({2, 15.0});

  FailureDetector det(world, 3);
  expect_horizon_slices([&](Cost h) { return det.beliefs(h); }, 40.0,
                        {40.0, 3.0, 25.0, 3.0, 9.0, 9.0, 0.0, 33.0});
}

// The gossip aggregate is prefix-stable too, under heartbeat losses and
// delays, a kill and rejoin, and partial partitions that open, heal and
// stay cut: the cluster-wide level about a subject moves only at candidate
// instants at or before the horizon.
TEST(FailureDetection, QuorumHorizonsYieldByteIdenticalPrefixes) {
  FaultPlan world;
  world.seed = 9;
  world.heartbeat.period = 1.0;
  world.heartbeat.loss_probability = 0.25;
  world.heartbeat.delay_probability = 0.3;
  world.failures.push_back({1, 6.0});
  world.rejoins.push_back({1, 14.0});
  world.failures.push_back({3, 21.0});
  PartitionFault blip;
  blip.proc_a = 0;
  blip.proc_b = 2;
  blip.time = 4.0;
  blip.until = 11.5;
  world.partitions.push_back(blip);
  PartitionFault cut;
  cut.proc_a = 2;
  cut.proc_b = 4;
  cut.time = 17.0;
  world.partitions.push_back(cut);

  FailureDetector det(world, 5);
  for (const ProcId quorum : {ProcId{1}, ProcId{2}})
    expect_horizon_slices(
        [&](Cost h) { return det.quorum_beliefs(quorum, h); }, 40.0,
        {40.0, 3.0, 25.0, 3.0, 11.5, 11.5, 0.0, 17.0, 33.0});
}

TEST(FailureDetection, ObserverZeroIsTheLegacyStreamAndViewsDiverge) {
  FaultPlan world;
  world.heartbeat.period = 1.0;
  world.failures.push_back({2, 5.0});
  PartitionFault cut;  // observer 1 loses its ear on proc 2 for good
  cut.proc_a = 1;
  cut.proc_b = 2;
  cut.time = 0.0;
  world.partitions.push_back(cut);

  FailureDetector det(world, 3);
  // The per-observer view of observer 0 IS the legacy stream, byte for
  // byte, at any horizon.
  for (const Cost u : {0.0, 6.5, 11.0, 30.0})
    EXPECT_EQ(belief_log_text(det.beliefs(0, u)),
              belief_log_text(det.beliefs(u)));

  // Views genuinely diverge: observer 1 never heard proc 2 at all, so its
  // private suspicion fires at 2 periods from the start, long before
  // observer 0's (which heard beats until the real death at t=5).
  const std::vector<BeliefEvent> o0 = det.beliefs(0, 30.0);
  const std::vector<BeliefEvent> o1 = det.beliefs(1, 30.0);
  ASSERT_FALSE(o0.empty());
  ASSERT_FALSE(o1.empty());
  EXPECT_EQ(o1[0].proc, 2u);
  EXPECT_EQ(o1[0].kind, BeliefKind::kSuspected);
  EXPECT_DOUBLE_EQ(o1[0].time, 2.0);
  EXPECT_DOUBLE_EQ(o0[0].time, 6.0);
}

TEST(FailureDetection, QuorumSilencesThePartitionFalseAlarm) {
  // One lossy path to an otherwise-healthy processor: p0~p1 is cut the
  // whole run but p1 keeps beating. The single-observer stream
  // manufactures a false alarm; every quorum aggregate stays silent —
  // even quorum 1 — because a partition-severed observer is not an
  // eligible witness for that subject.
  FaultPlan world;
  world.heartbeat.period = 1.0;
  PartitionFault cut;
  cut.proc_a = 0;
  cut.proc_b = 1;
  cut.time = 0.0;
  world.partitions.push_back(cut);

  FailureDetector det(world, 3);
  const std::vector<BeliefEvent> solo = det.beliefs(30.0);
  ASSERT_FALSE(solo.empty());
  EXPECT_EQ(solo[0].proc, 1u);
  EXPECT_EQ(solo[0].kind, BeliefKind::kSuspected);
  EXPECT_TRUE(det.quorum_beliefs(1, 30.0).empty());
  EXPECT_TRUE(det.quorum_beliefs(2, 30.0).empty());
}

TEST(FailureDetection, QuorumEdgeCasesOnARealDeath) {
  // A real death on a loss-free world: all three surviving observers hear
  // the same beats at the same instants, so quorum 1 and quorum 3 agree
  // on both verdicts and their instants, and the score records the
  // concurring witness count.
  FaultPlan world;
  world.heartbeat.period = 1.0;
  world.failures.push_back({3, 5.5});
  FailureDetector det(world, 4);
  const std::vector<BeliefEvent> q1 = det.quorum_beliefs(1, 30.0);
  const std::vector<BeliefEvent> q3 = det.quorum_beliefs(3, 30.0);
  ASSERT_EQ(q1.size(), 2u);
  EXPECT_EQ(q1[0].kind, BeliefKind::kSuspected);
  EXPECT_DOUBLE_EQ(q1[0].time, 7.0);  // last beat t=5, suspect_after 2
  EXPECT_DOUBLE_EQ(q1[0].score, 3.0);
  EXPECT_EQ(q1[1].kind, BeliefKind::kConfirmedDead);
  EXPECT_DOUBLE_EQ(q1[1].time, 9.0);
  EXPECT_EQ(belief_log_text(q3), belief_log_text(q1));

  // A quorum above the eligible witness count can never be met: the
  // subject does not witness itself, so 4 procs offer at most 3 votes.
  EXPECT_TRUE(det.quorum_beliefs(4, 30.0).empty());
  EXPECT_THROW(det.quorum_beliefs(0, 30.0), Error);
}

// --- Detector-driven recovery ------------------------------------------------

TEST(DetectorRecovery, ConfirmModeRepairsAtTheConfirmationInstant) {
  TaskGraph g = unit_tasks(12);
  Schedule nominal = strip_schedule(12, 2, 6);
  FaultPlan world;
  world.failures.push_back({1, 0.5});
  world.heartbeat.period = 0.25;

  RuntimeOptions det;
  det.use_detector = true;
  det.speculate = false;
  RuntimeResult r = run_online_recovery(g, nominal, world, det);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmations, 1u);
  EXPECT_EQ(r.false_alarms, 0u);
  // Last beat at 0.25; suspicion (passive here) at 0.75, confirmation —
  // the reaction — at 1.25, so detection lagged the death by 0.75.
  EXPECT_DOUBLE_EQ(r.mean_detection_latency, 0.75);
  ASSERT_EQ(r.repairs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.repairs[0].observed_at, 0.5);   // lease-expiry kill
  EXPECT_DOUBLE_EQ(r.repairs[1].observed_at, 1.25);  // confirmation
  EXPECT_GE(r.beliefs.size(), 2u);
  EXPECT_NE(r.belief_digest, 0u);
  EXPECT_TRUE(is_valid_schedule(g, r.schedule, r.durations));
  // The dead processor runs nothing after the confirmation's horizon.
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (r.schedule.proc(t) == 1)
      EXPECT_LT(r.schedule.start(t), 1.25 + 1e-9);
}

TEST(DetectorRecovery, SpeculationLaunchesAtSuspicionAndPromotes) {
  TaskGraph g = unit_tasks(12);
  Schedule nominal = strip_schedule(12, 2, 6);
  FaultPlan world;
  world.failures.push_back({1, 0.5});
  world.heartbeat.period = 0.25;

  RuntimeOptions det;
  det.use_detector = true;
  det.speculate = true;
  RuntimeResult r = run_online_recovery(g, nominal, world, det);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmations, 1u);
  bool launched = false, promoted = false;
  for (const auto& inv : r.repairs) {
    launched = launched || inv.speculative;
    promoted = promoted || inv.promoted;
  }
  EXPECT_TRUE(launched);  // the suspicion itself triggered a repair
  EXPECT_TRUE(promoted);  // the confirmation adopted the speculation
  EXPECT_TRUE(is_valid_schedule(g, r.schedule, r.durations));
}

TEST(DetectorRecovery, FalseAlarmSpeculationCancelsAndReconciles) {
  // Nothing ever dies: the only "faults" are lost heartbeats. Find a seed
  // whose detector cries wolf (suspect + exonerate, never confirm) within
  // the horizon of this three-task execution.
  TaskGraphBuilder b;
  b.add_task(20.0);
  b.add_task(10.0);
  b.add_task(10.0);
  TaskGraph g = std::move(b).build();
  Schedule nominal(2, 3);
  nominal.assign(0, 0, 0.0, 20.0);
  nominal.assign(1, 1, 0.0, 10.0);
  nominal.assign(2, 1, 10.0, 20.0);

  for (std::uint64_t seed = 1; seed < 400; ++seed) {
    FaultPlan world;
    world.seed = seed;
    world.heartbeat.period = 1.0;
    world.heartbeat.loss_probability = 0.4;
    FailureDetector probe(world, 2);
    std::size_t suspects = 0, exonerations = 0, confirms = 0;
    for (const BeliefEvent& e : probe.beliefs(18.0)) {
      suspects += e.kind == BeliefKind::kSuspected ? 1 : 0;
      exonerations += e.kind == BeliefKind::kExonerated ? 1 : 0;
      confirms += e.kind == BeliefKind::kConfirmedDead ? 1 : 0;
    }
    if (suspects == 0 || exonerations == 0 || confirms != 0) continue;

    RuntimeOptions det;
    det.use_detector = true;
    det.speculate = true;
    RuntimeResult r = run_online_recovery(g, nominal, world, det);
    EXPECT_TRUE(r.complete) << "seed " << seed;
    EXPECT_GE(r.false_alarms, 1u);
    EXPECT_EQ(r.confirmations, 0u);
    EXPECT_GE(r.repairs.size(), 1u);
    EXPECT_TRUE(is_valid_schedule(g, r.schedule, r.durations));
    EXPECT_LT(r.makespan, 60.0);  // reconciliation, not a from-scratch rerun
    return;
  }
  FAIL() << "no seed produced a pure false-alarm episode";
}

// Satellite: two suspicion flaps of an alive machine inside one debounce
// window coalesce into a single reaction.
TEST(DetectorRecovery, SuspicionFlapsInsideOneWindowReactOnce) {
  TaskGraph g;
  {
    TaskGraphBuilder b;
    for (int i = 0; i < 4; ++i) b.add_task(30.0);
    g = std::move(b).build();
  }
  Schedule nominal(4, 4);
  for (TaskId t = 0; t < 4; ++t) nominal.assign(t, t, 0.0, 30.0);

  for (std::uint64_t seed = 1; seed < 600; ++seed) {
    FaultPlan world;
    world.seed = seed;
    world.heartbeat.period = 1.0;
    world.heartbeat.loss_probability = 0.4;
    FailureDetector probe(world, 4);
    std::size_t suspects = 0, exonerations = 0, confirms = 0;
    for (const BeliefEvent& e : probe.beliefs(29.0)) {
      suspects += e.kind == BeliefKind::kSuspected ? 1 : 0;
      exonerations += e.kind == BeliefKind::kExonerated ? 1 : 0;
      confirms += e.kind == BeliefKind::kConfirmedDead ? 1 : 0;
    }
    if (suspects < 2 || exonerations < 1 || confirms != 0) continue;

    RuntimeOptions det;
    det.use_detector = true;
    det.speculate = true;
    det.debounce = 35.0;  // one window swallows the whole episode
    RuntimeResult r = run_online_recovery(g, nominal, world, det);
    EXPECT_TRUE(r.complete) << "seed " << seed;
    ASSERT_GE(r.repairs.size(), 1u);
    // Both flaps (two suspicions and at least one exoneration) landed in
    // the first window: one reaction consumed at least three beliefs.
    EXPECT_GE(r.repairs[0].events, 3u);
    EXPECT_GE(r.false_alarms, 1u);
    return;
  }
  FAIL() << "no seed produced two suspicion flaps before the makespan";
}

TEST(DetectorRecovery, AdaptiveIntervalTracksTheYoungDalyOptimum) {
  TaskGraph g;
  {
    TaskGraphBuilder b;
    for (int i = 0; i < 12; ++i) b.add_task(5.0);
    g = std::move(b).build();
  }
  Schedule nominal(3, 12);
  for (TaskId t = 0; t < 12; ++t) {
    const ProcId p = static_cast<ProcId>(t / 4);
    const Cost start = static_cast<Cost>(t % 4) * 5.0;
    nominal.assign(t, p, start, start + 5.0);
  }
  FaultPlan world;
  // Interval 2.5, not 3.0: the confirmation lands at horizon 3.0 on 3
  // processors, so the Young/Daly optimum is sqrt(2 * 0.5 * 9) = 3.0
  // exactly — the configured interval must differ for the "actually
  // adapted" assertion below to be meaningful.
  world.checkpoint = {2.5, 0.5};
  world.heartbeat.period = 0.5;
  world.failures.push_back({2, 1.2});

  RuntimeOptions det;
  det.use_detector = true;
  det.adapt_checkpoint = true;
  RuntimeResult r = run_online_recovery(g, nominal, world, det);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmations, 1u);
  bool adapted = false;
  for (const auto& inv : r.repairs)
    if (inv.failure_rate > 0.0) {
      adapted = true;
      EXPECT_DOUBLE_EQ(
          inv.checkpoint_interval,
          std::sqrt(2.0 * world.checkpoint.overhead / inv.failure_rate));
      EXPECT_NE(inv.checkpoint_interval, world.checkpoint.interval);
    }
  EXPECT_TRUE(adapted);
}

TEST(DetectorRecovery, NoisyEpisodesAreDigestIdenticalAcrossRuns) {
  TaskGraph g = unit_tasks(16);
  Schedule nominal = strip_schedule(16, 4, 4);
  FaultPlan world;
  world.seed = 11;
  world.checkpoint = {1.0, 0.1};
  world.heartbeat.period = 0.25;
  world.heartbeat.loss_probability = 0.2;
  world.failures.push_back({1, 0.7});
  world.rejoins.push_back({1, 3.0});

  RuntimeOptions det;
  det.use_detector = true;
  det.speculate = true;
  det.adapt_checkpoint = true;
  RuntimeResult a = run_online_recovery(g, nominal, world, det);
  RuntimeResult b2 = run_online_recovery(g, nominal, world, det);
  EXPECT_TRUE(a.complete);
  EXPECT_EQ(a.belief_digest, b2.belief_digest);
  EXPECT_EQ(a.event_digest, b2.event_digest);
  EXPECT_EQ(a.schedule_digest, b2.schedule_digest);
  EXPECT_EQ(belief_log_text(a.beliefs), belief_log_text(b2.beliefs));
  EXPECT_EQ(a.repairs.size(), b2.repairs.size());
  EXPECT_EQ(a.false_alarms, b2.false_alarms);
  EXPECT_EQ(a.confirmations, b2.confirmations);
  EXPECT_DOUBLE_EQ(a.makespan, b2.makespan);
  EXPECT_DOUBLE_EQ(a.speculative_waste, b2.speculative_waste);
}

TEST(DetectorRecovery, PerfectEventPathIgnoresTheHeartbeatSection) {
  // The heartbeat block configures sensing only: with use_detector off the
  // controller behaves bit-identically with and without it.
  TaskGraph g = unit_tasks(12);
  Schedule nominal = strip_schedule(12, 2, 6);
  FaultPlan world;
  world.failures.push_back({1, 0.5});
  RuntimeResult bare = run_online_recovery(g, nominal, world);
  world.heartbeat.period = 0.25;
  world.heartbeat.loss_probability = 0.3;
  RuntimeResult sensed = run_online_recovery(g, nominal, world);
  EXPECT_EQ(bare.schedule_digest, sensed.schedule_digest);
  EXPECT_EQ(bare.event_digest, sensed.event_digest);
  EXPECT_EQ(bare.repairs.size(), sensed.repairs.size());
  EXPECT_TRUE(sensed.beliefs.empty());
}

}  // namespace
}  // namespace flb
