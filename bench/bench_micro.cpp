// Google-benchmark micro benchmarks: per-algorithm scheduling throughput on
// a fixed paper-scale instance (plus FLB's warm serving path), the
// addressable-heap operations FLB's inner loop is built from, the
// platform cost-model pricing hot path every scheduling decision now routes
// through, the schedule digest and text export, the recovery controller's
// two inner layers (a faulted replay and one whole episode), and one
// link-busy repair on a mesh.

#include <benchmark/benchmark.h>

#include <sstream>

#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/export.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/workloads.hpp"

namespace {

using namespace flb;

const TaskGraph& shared_graph() {
  static TaskGraph g = [] {
    WorkloadParams params;
    params.ccr = 1.0;
    params.seed = 1;
    return make_workload("LU", 2000, params);
  }();
  return g;
}

void BM_Scheduler(benchmark::State& state, const std::string& name) {
  const TaskGraph& g = shared_graph();
  const auto procs = static_cast<ProcId>(state.range(0));
  auto sched = make_scheduler(name, 1);
  for (auto _ : state) {
    Schedule s = sched->run(g, procs);
    benchmark::DoNotOptimize(s.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_tasks());
}

void BM_FLB(benchmark::State& state) { BM_Scheduler(state, "FLB"); }
void BM_FCP(benchmark::State& state) { BM_Scheduler(state, "FCP"); }
void BM_MCP(benchmark::State& state) { BM_Scheduler(state, "MCP"); }
void BM_DSCLLB(benchmark::State& state) { BM_Scheduler(state, "DSC-LLB"); }
void BM_ETF(benchmark::State& state) { BM_Scheduler(state, "ETF"); }

BENCHMARK(BM_FLB)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// FLB on the serving path: run_into on a warmed scheduler with a reused
// Schedule, so the time is the engine's steps alone, with no allocation
// and no result copy. BM_FLB above pays both on every run.
void BM_FLBWarm(benchmark::State& state) {
  const TaskGraph& g = shared_graph();
  const auto procs = static_cast<ProcId>(state.range(0));
  FlbScheduler flb;
  Schedule s(procs, g.num_tasks());
  flb.run_into(g, procs, s);
  for (auto _ : state) {
    flb.run_into(g, procs, s);
    benchmark::DoNotOptimize(s.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_tasks());
}
BENCHMARK(BM_FLBWarm)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FCP)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MCP)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DSCLLB)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ETF)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_HeapPushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> keys(n);
  for (double& k : keys) k = rng.next_double();
  Arena arena;
  DaryIndexedHeap<std::pair<double, std::size_t>> heap(arena, n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) heap.push(i, {keys[i], i});
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_HeapPushPop)->Arg(64)->Arg(2048);

void BM_HeapUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Arena arena;
  DaryIndexedHeap<std::pair<double, std::size_t>> heap(arena, n);
  for (std::size_t i = 0; i < n; ++i) heap.push(i, {rng.next_double(), i});
  for (auto _ : state) {
    std::size_t id = rng.next_below(n);
    heap.update(id, {rng.next_double(), id});
    benchmark::DoNotOptimize(heap.top());
  }
}
BENCHMARK(BM_HeapUpdate)->Arg(64)->Arg(2048);

// ---------------------------------------------------------------------------
// Cost-model pricing hot path. Every EST probe of every scheduler goes
// through CostModel::comm / arrival, so its per-query cost is the constant
// in front of FLB's O(V (log W + log P) + E) bound. Clique must stay a
// couple of flops; routed adds a hop-table lookup; link-busy walks the
// route against the reservations (probe) or claims it (commit).

constexpr ProcId kPricingProcs = 32;
constexpr std::size_t kQueries = 4096;

struct Query {
  ProcId src;
  ProcId dst;
  Cost bytes;
  Cost depart;
};

const std::vector<Query>& pricing_queries() {
  static std::vector<Query> qs = [] {
    Rng rng(42);
    std::vector<Query> out;
    out.reserve(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      ProcId src = static_cast<ProcId>(rng.next_below(kPricingProcs));
      ProcId dst = static_cast<ProcId>(rng.next_below(kPricingProcs));
      if (dst == src) dst = (dst + 1) % kPricingProcs;  // always remote
      out.push_back({src, dst, 1.0 + rng.next_double() * 9.0,
                     rng.next_double() * 100.0});
    }
    return out;
  }();
  return qs;
}

const Topology& pricing_mesh() {
  static Topology topo = Topology::mesh2d(4, 8);
  return topo;
}

void BM_CommClique(benchmark::State& state) {
  platform::CostModel model = platform::CostModel::clique(kPricingProcs);
  const auto& qs = pricing_queries();
  for (auto _ : state)
    for (const Query& q : qs)
      benchmark::DoNotOptimize(model.comm(q.src, q.dst, q.bytes, q.depart));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_CommClique);

void BM_CommRouted(benchmark::State& state) {
  platform::CostModel model = platform::CostModel::routed(pricing_mesh());
  const auto& qs = pricing_queries();
  for (auto _ : state)
    for (const Query& q : qs)
      benchmark::DoNotOptimize(model.comm(q.src, q.dst, q.bytes, q.depart));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_CommRouted);

void BM_CommLinkBusyProbe(benchmark::State& state) {
  platform::CostModel model = platform::CostModel::link_busy(pricing_mesh());
  const auto& qs = pricing_queries();
  // Probe against a realistically loaded network: commit half the queries
  // once so the probes contend with genuine reservations.
  for (std::size_t i = 0; i < kQueries; i += 2)
    model.commit(qs[i].src, qs[i].dst, qs[i].bytes, qs[i].depart);
  for (auto _ : state)
    for (const Query& q : qs)
      benchmark::DoNotOptimize(model.comm(q.src, q.dst, q.bytes, q.depart));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_CommLinkBusyProbe);

// The FLB exact scan's pricing: one arrivals() row per query source prices
// the message to all 32 processors by one walk of the source's route tree
// (31 link visits), where per-destination probes would walk 32 routes.
// One item = one row; compare Time with 32 x BM_CommLinkBusyProbe's
// per-query cost.
void BM_CommLinkBusyArrivals(benchmark::State& state) {
  platform::CostModel model = platform::CostModel::link_busy(pricing_mesh());
  const auto& qs = pricing_queries();
  for (std::size_t i = 0; i < kQueries; i += 2)
    model.commit(qs[i].src, qs[i].dst, qs[i].bytes, qs[i].depart);
  std::vector<Cost> row(kPricingProcs);
  for (auto _ : state)
    for (const Query& q : qs) {
      model.arrivals(q.src, q.bytes, q.depart, row);
      benchmark::DoNotOptimize(row.data());
      benchmark::ClobberMemory();
    }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_CommLinkBusyArrivals);

void BM_CommLinkBusyCommit(benchmark::State& state) {
  platform::CostModel model = platform::CostModel::link_busy(pricing_mesh());
  const auto& qs = pricing_queries();
  for (auto _ : state) {
    state.PauseTiming();
    model.reset_links();  // unbounded reservation growth is not the hot path
    state.ResumeTiming();
    for (const Query& q : qs)
      benchmark::DoNotOptimize(model.commit(q.src, q.dst, q.bytes, q.depart));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_CommLinkBusyCommit);

void BM_WorkloadGeneration(benchmark::State& state) {
  WorkloadParams params;
  params.seed = 1;
  for (auto _ : state) {
    TaskGraph g = make_workload("Laplace", 2000, params);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

// The schedule digest, which the recovery runtime computes once per
// installed repair, and the text export: an FLB schedule of the shared LU
// graph on 8 processors. One item = one task.
const Schedule& shared_schedule() {
  static const Schedule s = FlbScheduler().run(shared_graph(), 8);
  return s;
}

void BM_ScheduleDigest(benchmark::State& state) {
  const Schedule& s = shared_schedule();
  for (auto _ : state) benchmark::DoNotOptimize(schedule_digest(s));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.num_scheduled());
}
BENCHMARK(BM_ScheduleDigest)->Unit(benchmark::kMicrosecond);

// The schedule text written to a stream; rewinding keeps the buffer the
// first write grew, so the time is formatting and copying alone.
void BM_WriteScheduleText(benchmark::State& state) {
  const Schedule& s = shared_schedule();
  std::ostringstream os;
  for (auto _ : state) {
    os.seekp(0);
    write_schedule_text(os, s);
    benchmark::DoNotOptimize(os.tellp());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.num_scheduled());
}
BENCHMARK(BM_WriteScheduleText)->Unit(benchmark::kMicrosecond);

// The recovery path on its high-fan-out case: Laplace at V~2000 (out-degree
// up to 196) on 8 processors, where p3 is killed at 30% of the FLB makespan
// and rejoins at 50%.
struct RecoveryCase {
  TaskGraph g;
  Schedule nominal;
  FaultPlan plan;
};

const RecoveryCase& recovery_case() {
  static const RecoveryCase c = [] {
    WorkloadParams params;
    params.ccr = 1.0;
    params.seed = 1;
    TaskGraph g = make_workload("Laplace", 2000, params);
    Schedule nominal = FlbScheduler().run(g, 8);
    const Cost span = nominal.makespan();
    FaultPlan plan;
    plan.failures.push_back({3, 0.3 * span});
    plan.rejoins.push_back({3, 0.5 * span});
    plan.heartbeat.period = 0.02 * span;
    return RecoveryCase{std::move(g), std::move(nominal), std::move(plan)};
  }();
  return c;
}

// One replay as the recovery controller runs it: the kill/rejoin plan,
// start times honored (unstarted work on p3 requeues) and the event log on.
// One item = one task.
void BM_Simulate(benchmark::State& state) {
  const RecoveryCase& c = recovery_case();
  std::vector<SimEvent> log;
  SimOptions options;
  options.faults = &c.plan;
  options.event_log = &log;
  options.honor_start_times = true;
  for (auto _ : state) {
    const SimResult r = simulate(c.g, c.nominal, options);
    benchmark::DoNotOptimize(r.makespan);
    benchmark::DoNotOptimize(log.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          c.g.num_tasks());
}
BENCHMARK(BM_Simulate)->Unit(benchmark::kMicrosecond);

// One whole detector-mode episode of the same case: heartbeat beliefs with
// speculation, every replay, repair and continuation check included.
void BM_OnlineRecovery(benchmark::State& state) {
  const RecoveryCase& c = recovery_case();
  runtime::RuntimeOptions options;
  options.use_detector = true;
  options.speculate = true;
  for (auto _ : state) {
    const runtime::RuntimeResult r =
        runtime::run_online_recovery(c.g, c.nominal, c.plan, options);
    benchmark::DoNotOptimize(r.schedule_digest);
  }
}
BENCHMARK(BM_OnlineRecovery)->Unit(benchmark::kMillisecond);

// One link-busy repair on a contended interconnect: Laplace at V~2000 and
// CCR 5 on a 4x4 mesh, where p5 is killed at 30% of the FLB makespan and
// rejoins at 50%. The repair is taken at the kill and keeps the best of
// the baseline, give-back and serial-floor continuations. A warm repair
// resumes on one FLB engine kept across iterations; a cold one goes
// through the convenience overload, which builds a fresh engine per call,
// as one-off callers and perfbench's repair-mesh workload do.
void BM_LinkBusyRepairOn(benchmark::State& state, bool warm) {
  const Topology mesh = Topology::mesh2d(4, 4);
  WorkloadParams params;
  params.ccr = 5.0;
  params.seed = 1;
  const TaskGraph g = make_workload("Laplace", 2000, params);
  const Schedule nominal = FlbScheduler().run(g, mesh.num_nodes());
  const Cost span = nominal.makespan();
  FaultPlan plan;
  plan.failures.push_back({5, 0.3 * span});
  plan.rejoins.push_back({5, 0.5 * span});
  SimOptions sim;
  sim.faults = &plan;
  const SimResult partial = simulate(g, nominal, sim);
  RepairOptions options;
  options.horizon = 0.3 * span;
  options.topology = &mesh;
  options.link_busy = true;
  FlbScheduler flb;
  for (auto _ : state) {
    const RepairResult r =
        warm ? repair_schedule(g, nominal, partial, plan, options, flb)
             : repair_schedule(g, nominal, partial, plan, options);
    benchmark::DoNotOptimize(r.schedule.makespan());
  }
}
void BM_LinkBusyRepair(benchmark::State& state) {
  BM_LinkBusyRepairOn(state, true);
}
void BM_LinkBusyRepairCold(benchmark::State& state) {
  BM_LinkBusyRepairOn(state, false);
}
BENCHMARK(BM_LinkBusyRepair)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LinkBusyRepairCold)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
