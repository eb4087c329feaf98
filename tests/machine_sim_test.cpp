#include "flb/sim/machine_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/util/fnv1a.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// --- Contention-free model reproduces the analytic schedule -----------------

// The headline property: every scheduler's analytic start/finish times are
// exactly what the event-driven machine produces under the paper's
// contention-free model. This cross-validates schedulers, the Schedule
// container and the simulator against each other.
TEST(MachineSim, ContentionFreeReproducesAnalyticTimes) {
  for (std::size_t i = 0; i < 12; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    for (const std::string& name : extended_scheduler_names()) {
      Schedule s = make_scheduler(name, 1)->run(g, 3);
      SimResult r = simulate(g, s);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        ASSERT_NEAR(r.start[t], s.start(t), 1e-9)
            << name << " on " << g.name() << ", task " << t;
        ASSERT_NEAR(r.finish[t], s.finish(t), 1e-9);
      }
      ASSERT_NEAR(r.makespan, s.makespan(), 1e-9);
    }
  }
}

TEST(MachineSim, PaperExampleExact) {
  TaskGraph g = paper_example_graph();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  SimResult r = simulate(g, s);
  EXPECT_DOUBLE_EQ(r.makespan, 14.0);
  EXPECT_DOUBLE_EQ(r.start[7], 12.0);
  // Remote messages in the Table 1 schedule: t0->t1, t1->t5, t2->t6(local?)
  // count mechanically instead: every edge whose endpoints sit on
  // different processors.
  std::size_t remote = 0;
  for (const Edge& e : g.edges())
    if (s.proc(e.from) != s.proc(e.to)) ++remote;
  EXPECT_EQ(r.messages, remote);
}

// --- Contention models -------------------------------------------------------

TEST(MachineSim, SinglePortNeverFasterThanContentionFree) {
  for (std::size_t i = 0; i < 10; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, 3);
    SimResult free = simulate(g, s);
    SimOptions sp;
    sp.network = SimNetwork::kSinglePortSend;
    SimResult port = simulate(g, s, sp);
    SimOptions spr;
    spr.network = SimNetwork::kSinglePortSendRecv;
    SimResult port2 = simulate(g, s, spr);
    EXPECT_GE(port.makespan, free.makespan - 1e-9) << g.name();
    EXPECT_GE(port2.makespan, port.makespan - 1e-9) << g.name();
    // Same messages delivered regardless of contention model.
    EXPECT_EQ(port.messages, free.messages);
    EXPECT_EQ(port2.messages, free.messages);
  }
}

TEST(MachineSim, SinglePortSerializesFanout) {
  // Root on p0 sends to 3 children on p1..p3 (comm 4 each). Contention-
  // free: all children start at 1 + 4 = 5. Single-port: messages leave at
  // 1, 5, 9 -> children start at 5, 9, 13.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = out_tree_graph(2, 3, p);
  Schedule s(4, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 5.0, 6.0);
  s.assign(2, 2, 5.0, 6.0);
  s.assign(3, 3, 5.0, 6.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  SimResult free = simulate(g, s);
  EXPECT_DOUBLE_EQ(free.makespan, 6.0);

  SimOptions sp;
  sp.network = SimNetwork::kSinglePortSend;
  SimResult port = simulate(g, s, sp);
  EXPECT_DOUBLE_EQ(port.makespan, 14.0);  // last child runs [13, 14)
  EXPECT_DOUBLE_EQ(port.network_busy, 12.0);
}

TEST(MachineSim, RecvPortSerializesFanin) {
  // Three producers on p1..p3 all send to a sink on p0 (comm 4). Send
  // ports are distinct so kSinglePortSend changes nothing; the receiver
  // port serializes the three transfers.
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = in_tree_graph(2, 3, p);  // leaves 0,1,2 -> root 3
  Schedule s(4, 4);
  s.assign(0, 1, 0.0, 1.0);
  s.assign(1, 2, 0.0, 1.0);
  s.assign(2, 3, 0.0, 1.0);
  s.assign(3, 0, 5.0, 6.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  SimOptions sp;
  sp.network = SimNetwork::kSinglePortSend;
  EXPECT_DOUBLE_EQ(simulate(g, s, sp).makespan, 6.0);

  SimOptions spr;
  spr.network = SimNetwork::kSinglePortSendRecv;
  // Transfers occupy the receiver during [1,5), [5,9), [9,13).
  EXPECT_DOUBLE_EQ(simulate(g, s, spr).makespan, 14.0);
}

// --- Message-cost sweeps ----------------------------------------------------
//
// A what-if sweep over message costs replays the schedule on a copy of the
// graph with scaled edge costs.

TEST(MachineSim, ZeroLatencyOnlyHelps) {
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule s = flb.run(g, 3);
    EXPECT_LE(simulate(test::scale_comm(g, 0.0), s).makespan,
              simulate(g, s).makespan + 1e-9)
        << g.name();
  }
}

TEST(MachineSim, LatencyScalesNetworkBusy) {
  TaskGraph g = test::fuzz_graph(2);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  SimResult base = simulate(g, s);
  SimResult scaled = simulate(test::scale_comm(g, 2.0), s);
  EXPECT_NEAR(scaled.network_busy, 2.0 * base.network_busy, 1e-9);
  EXPECT_GE(scaled.makespan, base.makespan - 1e-9);
}

// --- Error handling ------------------------------------------------------------

TEST(MachineSim, RejectsIncompleteSchedule) {
  TaskGraph g = test::small_diamond();
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  EXPECT_THROW((void)simulate(g, s), Error);
  const test::MismatchedSchedules other;
  EXPECT_THROW((void)simulate(other.large, other.of_small), Error);
  EXPECT_THROW((void)simulate(other.small, other.of_large), Error);
}

// Override entries are durations. At -2 a task would finish before it
// starts, at NaN it would finish at NaN and drop out of the makespan, at
// infinity the makespan would be infinite. kUndefinedTime (keep the
// graph's weight) is the one negative entry allowed.
TEST(MachineSim, RejectsNonFiniteOrNegativeWorkOverrides) {
  TaskGraph g = test::fuzz_graph(5);
  FlbScheduler flb;
  Schedule s = flb.run(g, 3);
  std::vector<Cost> work(g.num_tasks(), kUndefinedTime);
  SimOptions options;
  options.work_override = &work;
  for (const Cost bad : {std::numeric_limits<Cost>::quiet_NaN(),
                         kInfiniteTime, -kInfiniteTime, -2.0}) {
    work[1] = bad;
    EXPECT_THROW((void)simulate(g, s, options), Error) << bad;
  }
  work[1] = 0.0;
  EXPECT_TRUE(simulate(g, s, options).complete());
}

// --- Partial network partitions ----------------------------------------------

// Root on p0 feeds children on p1 and p2 (comm 4). Cutting p0~p1 for the
// whole run forces the p1 message over the live detour p0 -> p2 -> p1:
// store-and-forward, one full transfer per hop, so the child starts at
// 1 + 2*4 = 9 instead of 5 and the detour's second hop is billed as
// reroute_extra.
TEST(MachineSim, PartitionReroutesOverLiveDetour) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = out_tree_graph(2, 3, p);  // root 0 -> children 1, 2, 3
  Schedule s(3, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 9.0, 10.0);
  s.assign(2, 2, 5.0, 6.0);
  s.assign(3, 0, 1.0, 2.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  FaultPlan plan;
  PartitionFault cut;
  cut.proc_a = 0;
  cut.proc_b = 1;
  cut.time = 0.0;
  plan.partitions.push_back(cut);
  SimOptions options;
  options.faults = &plan;
  SimResult r = simulate(g, s, options);

  EXPECT_DOUBLE_EQ(r.start[1], 9.0);
  EXPECT_DOUBLE_EQ(r.start[2], 5.0);  // the p0~p2 link never suffered
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_EQ(r.rerouted_messages, 1u);
  EXPECT_DOUBLE_EQ(r.reroute_extra, 4.0);
  EXPECT_EQ(r.partition_dropped, 0u);
  EXPECT_EQ(r.dropped_messages, 0u);
  EXPECT_TRUE(r.unfinished.empty());
}

// With only two processors there is no detour: the message is held at its
// send instant until the heal restores the direct link, and the wait is
// accounted as reroute_extra. The event log carries the canonical
// link-partitioned / link-healed pair.
TEST(MachineSim, PartitionWithNoPathWaitsForTheHeal) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = out_tree_graph(2, 3, p);
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 16.0, 17.0);
  s.assign(2, 0, 1.0, 2.0);
  s.assign(3, 0, 2.0, 3.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  FaultPlan plan;
  PartitionFault cut;
  cut.proc_a = 1;  // reversed on purpose: the log canonicalizes a < b
  cut.proc_b = 0;
  cut.time = 0.0;
  cut.until = 12.0;
  plan.partitions.push_back(cut);
  SimOptions options;
  options.faults = &plan;
  std::vector<SimEvent> log;
  options.event_log = &log;
  SimResult r = simulate(g, s, options);

  // Held from the send instant t=1 to the heal at t=12, then one hop of 4.
  EXPECT_DOUBLE_EQ(r.start[1], 16.0);
  EXPECT_DOUBLE_EQ(r.makespan, 17.0);
  EXPECT_EQ(r.rerouted_messages, 1u);
  EXPECT_DOUBLE_EQ(r.reroute_extra, 11.0);
  EXPECT_EQ(r.partition_dropped, 0u);

  std::size_t cuts = 0, heals = 0;
  for (const SimEvent& e : log) {
    if (e.kind == SimEventKind::kLinkPartitioned) {
      ++cuts;
      EXPECT_DOUBLE_EQ(e.time, 0.0);
      EXPECT_EQ(e.proc, 0u);
      EXPECT_EQ(e.proc2, 1u);
    }
    if (e.kind == SimEventKind::kLinkHealed) {
      ++heals;
      EXPECT_DOUBLE_EQ(e.time, 12.0);
      EXPECT_EQ(e.proc, 0u);
      EXPECT_EQ(e.proc2, 1u);
    }
  }
  EXPECT_EQ(cuts, 1u);
  EXPECT_EQ(heals, 1u);
}

// A permanent cut with no live path ever drops the message like an
// exhausted retry: the consumer starves, and the drop is accounted under
// partition_dropped as well as the generic message-loss counters.
TEST(MachineSim, PermanentTotalCutDropsAndStarvesTheConsumer) {
  WorkloadParams p;
  p.random_weights = false;
  p.ccr = 4.0;
  TaskGraph g = out_tree_graph(2, 3, p);
  Schedule s(2, 4);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 1, 5.0, 6.0);
  s.assign(2, 0, 1.0, 2.0);
  s.assign(3, 0, 2.0, 3.0);
  ASSERT_TRUE(is_valid_schedule(g, s));

  FaultPlan plan;
  PartitionFault cut;
  cut.proc_a = 0;
  cut.proc_b = 1;
  cut.time = 0.0;  // until stays infinite: never heals
  plan.partitions.push_back(cut);
  SimOptions options;
  options.faults = &plan;
  SimResult r = simulate(g, s, options);

  EXPECT_EQ(r.partition_dropped, 1u);
  EXPECT_EQ(r.dropped_messages, 1u);
  ASSERT_EQ(r.dropped_edges.size(), 1u);
  EXPECT_EQ(r.dropped_edges[0].first, 0u);
  EXPECT_EQ(r.dropped_edges[0].second, 1u);
  ASSERT_EQ(r.unfinished.size(), 1u);
  EXPECT_EQ(r.unfinished[0], 1u);
}

TEST(MachineSim, SingleProcessorIgnoresNetwork) {
  TaskGraph g = test::fuzz_graph(6);
  FlbScheduler flb;
  Schedule s = flb.run(g, 1);
  for (SimNetwork net : {SimNetwork::kContentionFree,
                         SimNetwork::kSinglePortSend,
                         SimNetwork::kSinglePortSendRecv}) {
    SimOptions options;
    options.network = net;
    SimResult r = simulate(g, s, options);
    EXPECT_NEAR(r.makespan, g.total_comp(), 1e-9);
    EXPECT_EQ(r.messages, 0u);
  }
}

// --- Faulted replays are bit-identical ---------------------------------------

// One row per fault plan. Each row replays the FLB schedules of 14 fuzz
// graphs on 4 processors with the event log on, the plan's instants scaled
// to each schedule's makespan, and chains an FNV-1a hash over every start
// and finish bit, the fault counters, the dropped edges and the event-log
// text, so a change to event handling that moves a replayed instant, a
// counter or a logged event moves a digest.
struct FaultedReplayGolden {
  const char* name;
  std::uint64_t digest;
};

const FaultedReplayGolden kFaultedReplays[] = {
    {"kill", 0x6fd499c6f2ac2cb2ull},
    {"kill-rejoin-requeue", 0x6d3c8988ca379229ull},
    {"message-loss-delay-drop", 0x50d2c2ecb5e2c620ull},
    {"partition-reroute", 0xe6b5a98137039f1eull},
    {"partition-hold-for-heal", 0x6757c7639c8120e6ull},
    {"partition-permanent-cut", 0x592102e655ad046cull},
    {"checkpoints", 0x5e6427bf18bdbd72ull},
    {"slowdowns", 0x9f5d049d9aed5ad7ull},
    {"single-port-send", 0x68bde0be685d900bull},
    {"single-port-send-recv", 0x0d08eb54bfba88f8ull},
};

// The plan and options of row `row` for a schedule of makespan `span` on 4
// processors.
void faulted_row(std::size_t row, Cost span, FaultPlan& plan,
                 SimOptions& options) {
  plan.seed = 11 + row;
  auto cut = [&](ProcId a, ProcId b, Cost from, Cost until) {
    PartitionFault f;
    f.proc_a = a;
    f.proc_b = b;
    f.time = from;
    f.until = until;
    plan.partitions.push_back(f);
  };
  switch (row) {
    case 0:
      plan.failures.push_back({1, 0.3 * span});
      break;
    case 1:  // unstarted work on p2 returns to the queue and runs after
      plan.failures.push_back({2, 0.2 * span});
      plan.rejoins.push_back({2, 0.45 * span});
      options.honor_start_times = true;
      break;
    case 2:  // one retry: about 6% of remote messages are dropped
      plan.message.loss_probability = 0.25;
      plan.message.delay_probability = 0.3;
      plan.message.max_retries = 1;
      plan.message.retry_timeout = 0.01 * span;
      break;
    case 3:  // p0 ~ p1 is down, a detour through p2 or p3 is live
      cut(0, 1, 0.1 * span, 0.6 * span);
      break;
    case 4:  // p3 is cut off from everyone until the heal
      for (ProcId p = 0; p < 3; ++p) cut(p, 3, 0.2 * span, 0.5 * span);
      break;
    case 5:  // p3 is cut off for good: its messages are dropped
      for (ProcId p = 0; p < 3; ++p)
        cut(p, 3, 0.4 * span, kInfiniteTime);
      break;
    case 6:
      plan.checkpoint.interval = 0.02 * span;
      plan.checkpoint.overhead = 0.002 * span;
      plan.failures.push_back({1, 0.35 * span});
      plan.rejoins.push_back({1, 0.6 * span});
      plan.failures.push_back({3, 0.5 * span});
      break;
    case 7:
      plan.slowdowns.push_back({1, 0.1 * span, 0.5, 0.4 * span});
      plan.slowdowns.push_back({2, 0.2 * span, 0.7, kInfiniteTime});
      plan.slowdowns.push_back({1, 0.3 * span, 0.8, 0.7 * span});
      plan.runtime_spread = 0.2;
      break;
    default:  // rows 8 and 9: the single-port networks
      plan.failures.push_back({3, 0.5 * span});
      plan.message.delay_probability = 0.3;
      options.network = row == 8 ? SimNetwork::kSinglePortSend
                                 : SimNetwork::kSinglePortSendRecv;
      break;
  }
}

void add_cost(Fnv1a& h, Cost c) { h.add_u64(std::bit_cast<std::uint64_t>(c)); }

TEST(MachineSimGolden, FaultedReplaysBitIdentical) {
  for (std::size_t row = 0; row < std::size(kFaultedReplays); ++row) {
    Fnv1a h;
    std::size_t events = 0;
    for (std::size_t i = 0; i < 14; ++i) {
      const TaskGraph g = test::fuzz_graph(i);
      const Schedule s = FlbScheduler().run(g, 4);
      FaultPlan plan;
      SimOptions options;
      faulted_row(row, s.makespan(), plan, options);
      std::vector<SimEvent> log;
      options.faults = &plan;
      options.event_log = &log;
      const SimResult r = simulate(g, s, options);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        add_cost(h, r.start[t]);
        add_cost(h, r.finish[t]);
      }
      for (const Cost c : {r.makespan, r.network_busy, r.work_lost,
                           r.dead_proc_idle, r.work_saved,
                           r.checkpoint_overhead, r.reroute_extra})
        add_cost(h, c);
      for (const std::size_t c :
           {r.messages, r.retries, r.dropped_messages, r.rejoins,
            r.checkpoints_taken, r.rerouted_messages, r.partition_dropped,
            r.unfinished.size(), r.dropped_edges.size()})
        h.add_u64(c);
      for (const auto& [from, to] : r.dropped_edges) {
        h.add_u64(from);
        h.add_u64(to);
      }
      for (const Cost c : r.checkpointed) add_cost(h, c);
      for (const Cost c : r.proc_work_lost) add_cost(h, c);
      h.add(runtime::event_log_text(log));
      events += log.size();
    }
    EXPECT_EQ(h.value(), kFaultedReplays[row].digest)
        << "{\"" << kFaultedReplays[row].name << "\", 0x" << std::hex
        << h.value() << "ull}, (" << std::dec << events << " events)";
  }
}

// A Replay paused at seeded random instants and then run to completion
// equals simulate() bit for bit, and every pause shows exactly the final
// part of the execution: each task the full replay finishes by the pause
// has its final start and finish, and the log holds every event at or
// before the pause. One Replay serves every case, so restarts on kept
// buffers are covered too.
TEST(Replay, PausedReplaysEqualSimulate) {
  auto bits = [](Cost c) { return std::bit_cast<std::uint64_t>(c); };
  Replay replay;
  Rng rng(2024);
  for (std::size_t row = 0; row < std::size(kFaultedReplays); ++row) {
    for (std::size_t i = 0; i < 14; ++i) {
      const TaskGraph g = test::fuzz_graph(i);
      const Schedule s = FlbScheduler().run(g, 4);
      FaultPlan plan;
      SimOptions options;
      faulted_row(row, s.makespan(), plan, options);
      options.faults = &plan;
      std::vector<SimEvent> want_log;
      options.event_log = &want_log;
      const SimResult want = simulate(g, s, options);
      const std::string name = std::string(kFaultedReplays[row].name) +
                               ", graph " + std::to_string(i);

      std::vector<SimEvent> log;
      options.event_log = &log;
      replay.start(g, s, options);
      std::vector<Cost> pauses(4);
      for (Cost& t : pauses) t = rng.uniform(0.0, 1.2 * want.makespan);
      std::sort(pauses.begin(), pauses.end());
      for (const Cost t : pauses) {
        replay.advance(t);
        ASSERT_FALSE(replay.done()) << name;
        EXPECT_EQ(replay.reached(), t) << name;
        const SimResult& got = replay.result();
        for (TaskId u = 0; u < g.num_tasks(); ++u) {
          if (want.finish[u] == kUndefinedTime || want.finish[u] > t) continue;
          EXPECT_EQ(bits(got.start[u]), bits(want.start[u])) << name;
          EXPECT_EQ(bits(got.finish[u]), bits(want.finish[u])) << name;
        }
        std::vector<SimEvent> seen;
        for (const SimEvent& e : log)
          if (e.time <= t) seen.push_back(e);
        std::sort(seen.begin(), seen.end());
        std::vector<SimEvent> due;
        for (const SimEvent& e : want_log)
          if (e.time <= t) due.push_back(e);
        EXPECT_EQ(runtime::event_log_text(seen), runtime::event_log_text(due))
            << name << " at " << t;
      }
      replay.run();
      ASSERT_TRUE(replay.done()) << name;
      const SimResult& got = replay.result();
      for (TaskId u = 0; u < g.num_tasks(); ++u) {
        EXPECT_EQ(bits(got.start[u]), bits(want.start[u])) << name;
        EXPECT_EQ(bits(got.finish[u]), bits(want.finish[u])) << name;
      }
      for (const auto& [a, b] :
           {std::pair{got.makespan, want.makespan},
            {got.network_busy, want.network_busy},
            {got.work_lost, want.work_lost},
            {got.dead_proc_idle, want.dead_proc_idle},
            {got.work_saved, want.work_saved},
            {got.checkpoint_overhead, want.checkpoint_overhead},
            {got.reroute_extra, want.reroute_extra}})
        EXPECT_EQ(bits(a), bits(b)) << name;
      EXPECT_EQ(got.messages, want.messages) << name;
      EXPECT_EQ(got.retries, want.retries) << name;
      EXPECT_EQ(got.dropped_messages, want.dropped_messages) << name;
      EXPECT_EQ(got.rejoins, want.rejoins) << name;
      EXPECT_EQ(got.checkpoints_taken, want.checkpoints_taken) << name;
      EXPECT_EQ(got.rerouted_messages, want.rerouted_messages) << name;
      EXPECT_EQ(got.partition_dropped, want.partition_dropped) << name;
      EXPECT_EQ(got.unfinished, want.unfinished) << name;
      EXPECT_EQ(got.dropped_edges, want.dropped_edges) << name;
      EXPECT_EQ(got.checkpointed, want.checkpointed) << name;
      EXPECT_EQ(got.proc_work_lost, want.proc_work_lost) << name;
      EXPECT_EQ(runtime::event_log_text(log),
                runtime::event_log_text(want_log))
          << name;
    }
  }
}

}  // namespace
}  // namespace flb
