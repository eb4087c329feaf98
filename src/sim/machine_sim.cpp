#include "flb/sim/machine_sim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/platform/speed_profile.hpp"
#include "flb/util/error.hpp"
#include "flb/util/table.hpp"

namespace flb {

namespace {

/// Simulation event: (time, kind, sequence) so simultaneous events resolve
/// deterministically. Completions at time T are processed before a failure
/// at T — a task finishing exactly when its processor dies survives, and
/// its output messages are considered in flight.
struct Event {
  enum Kind { kCompletion = 0, kFailure = 1, kRejoin = 2 };
  Cost time;
  int kind;
  std::size_t seq;
  TaskId task;  ///< completing task, or the processor for kFailure/kRejoin
  /// Dispatch generation of a completion: a task returned to the queue by a
  /// failure (honor_start_times mode) bumps its epoch, so the stale
  /// completion of the canceled dispatch is ignored when it surfaces.
  std::size_t epoch = 0;
  bool operator>(const Event& other) const {
    return std::tie(time, kind, seq) >
           std::tie(other.time, other.kind, other.seq);
  }
};

}  // namespace

std::string to_string(const SimEvent& event) {
  std::ostringstream os;
  os << "t=" << format_compact(event.time) << " ";
  switch (event.kind) {
    case SimEventKind::kFailure:
      os << "failure p" << event.proc;
      break;
    case SimEventKind::kRejoin:
      os << "rejoin p" << event.proc;
      break;
    case SimEventKind::kSlowdownBegin:
      os << "slowdown-begin p" << event.proc << " x"
         << format_compact(event.value);
      break;
    case SimEventKind::kSlowdownEnd:
      os << "slowdown-end p" << event.proc << " x"
         << format_compact(event.value);
      break;
    case SimEventKind::kTaskKilled:
      os << "task-killed p" << event.proc << " t" << event.task
         << " saved=" << format_compact(event.value);
      break;
    case SimEventKind::kMessageDropped:
      os << "message-dropped p" << event.proc << " t" << event.task << "->t"
         << event.task2;
      break;
    case SimEventKind::kLinkPartitioned:
      os << "link-partitioned p" << event.proc << "~p" << event.proc2;
      break;
    case SimEventKind::kLinkHealed:
      os << "link-healed p" << event.proc << "~p" << event.proc2;
      break;
  }
  return os.str();
}

SimResult simulate(const TaskGraph& g, const Schedule& s,
                   const SimOptions& options) {
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(s.num_tasks() == n,
              "simulate: the schedule was built for a graph with a different "
              "task count");
  FLB_REQUIRE(s.complete(), "simulate: schedule is incomplete");
  FLB_REQUIRE(options.latency_factor >= 0.0,
              "simulate: latency factor must be non-negative");
  // Per-task overrides hold a duration or kUndefinedTime (keep the default).
  auto duration_or_default = [](Cost c) {
    return c == kUndefinedTime || (std::isfinite(c) && c >= 0.0);
  };
  if (options.work_override != nullptr) {
    FLB_REQUIRE(options.work_override->size() == n,
                "simulate: work override must have one entry per task");
    for (const Cost w : *options.work_override)
      FLB_REQUIRE(duration_or_default(w),
                  "simulate: work override entries must be finite and "
                  "non-negative (or kUndefinedTime)");
  }
  const FaultPlan* plan = options.faults;
  if (plan != nullptr && plan->trivial()) plan = nullptr;
  const Topology* const topology = options.topology;
  if (topology != nullptr) {
    FLB_REQUIRE(topology->num_nodes() == s.num_procs(),
                "simulate: the topology must have one node per processor");
    FLB_REQUIRE(options.network == SimNetwork::kContentionFree,
                "simulate: a routed replay models no ports; use "
                "SimNetwork::kContentionFree with a topology");
    FLB_REQUIRE(plan == nullptr,
                "simulate: a routed replay injects no faults; drop the "
                "topology or the fault plan");
  }
  ResolvedFaults resolved;
  std::vector<LinkOutage> outages;
  if (plan != nullptr) {
    plan->validate(s.num_procs());
    resolved = resolve_faults(*plan);
    outages = resolve_partitions(*plan);
  }
  const CheckpointPolicy ckpt =
      plan != nullptr ? plan->checkpoint : CheckpointPolicy{};
  const std::vector<Cost>* const ckpt_override =
      plan != nullptr ? options.checkpoint_interval : nullptr;
  if (ckpt_override != nullptr) {
    FLB_REQUIRE(ckpt_override->size() == n,
                "simulate: checkpoint-interval override must have one entry "
                "per task");
    for (const Cost iv : *ckpt_override)
      FLB_REQUIRE(duration_or_default(iv),
                  "simulate: checkpoint-interval override entries must be "
                  "finite and non-negative (or kUndefinedTime)");
  }

  // Criticality-aware checkpoint placement: with min_downstream > 0 only
  // tasks whose bottom level reaches the threshold write checkpoints; the
  // rest run with the policy disabled.
  std::vector<Cost> downstream;
  if (plan != nullptr && ckpt.enabled() && ckpt.min_downstream > 0.0)
    downstream = bottom_levels(g);
  auto ckpt_of = [&](TaskId t) -> CheckpointPolicy {
    if (!downstream.empty() && !ckpt.covers(downstream[t]))
      return CheckpointPolicy{};
    CheckpointPolicy p = ckpt;
    if (ckpt_override != nullptr && (*ckpt_override)[t] != kUndefinedTime)
      p.interval = (*ckpt_override)[t];
    return p;
  };

  std::vector<SimEvent>* const log = options.event_log;
  if (log != nullptr) log->clear();

  SimResult result;
  result.start.assign(n, kUndefinedTime);
  result.finish.assign(n, kUndefinedTime);

  const ProcId procs = s.num_procs();
  std::vector<std::size_t> dispatch_idx(procs, 0);  // next task per proc
  std::vector<Cost> proc_free(procs, 0.0);
  std::vector<Cost> send_free(procs, 0.0);
  std::vector<Cost> recv_free(procs, 0.0);
  std::vector<char> dead(procs, 0);

  // Piecewise-constant per-processor speed profiles (flb::platform), plus a
  // cost model that owns every message price in this simulator: a clique,
  // where remote transfers and cold-cache re-fetches are both
  // net.message_cost(bytes) = bytes * latency_factor, or the link-busy
  // model of a routed replay, whose commit() reserves every hop.
  platform::CostModel net =
      topology != nullptr ? platform::CostModel::link_busy(*topology)
                          : platform::CostModel::clique(procs);
  net.set_latency_factor(options.latency_factor);
  std::vector<platform::SpeedProfile> profiles(procs);
  // Instant the processor last rebooted (kUndefinedTime = never): data that
  // reached it at or before this instant was lost with its memory and must
  // be re-fetched by any consumer dispatched after the rejoin.
  std::vector<Cost> rejoined_at(procs, kUndefinedTime);
  if (plan != nullptr) {
    for (const SlowdownFault& f : resolved.slowdowns)
      profiles[f.proc].add(f.time, f.factor, f.until);
    for (platform::SpeedProfile& p : profiles) p.finalize();
    result.checkpointed.assign(n, 0.0);
    result.proc_work_lost.assign(procs, 0.0);
  }

  // arrival[e] for remote edges, indexed by the graph's edge id: the
  // producer writes slot out_edge_begin + i, the consumer reads it through
  // in_edge_ids. Local edges are handled through `finished`. A dropped
  // message leaves its slot at kUndefinedTime forever and marks the
  // consumer starved.
  std::vector<Cost> arrival(g.num_edges(), kUndefinedTime);

  std::vector<char> finished(n, 0);
  std::vector<char> dispatched(n, 0);
  std::vector<char> killed(n, 0);   // dispatched, then lost to a failure
  std::vector<char> starved(n, 0);  // an input message was dropped
  // Dispatch generation per task (see Event::epoch); only ever bumped in
  // honor_start_times mode, when a failure returns unstarted work to the
  // queue.
  std::vector<std::size_t> epoch(n, 0);
  std::vector<std::size_t> pending_preds(n);
  for (TaskId t = 0; t < n; ++t) pending_preds[t] = g.in_degree(t);

  // Effective work per task: the override wins (it already includes any
  // perturbation — checkpoint-resumed tasks carry only their remainder),
  // otherwise the graph's cost scaled by the plan's runtime factor.
  auto work_of = [&](TaskId t) -> Cost {
    if (options.work_override != nullptr &&
        (*options.work_override)[t] != kUndefinedTime)
      return (*options.work_override)[t];
    return plan ? g.comp(t) * runtime_factor(*plan, t) : g.comp(t);
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::size_t seq = 0;
  TaskId completed = 0;

  if (plan != nullptr) {
    for (const ProcFailure& f : resolved.failures)
      events.push({f.time, Event::kFailure, seq++, f.proc});
    for (const ProcRejoin& r : resolved.rejoins)
      events.push({r.time, Event::kRejoin, seq++, r.proc});
    if (log != nullptr) {
      // Machine-level events are schedule-independent: they surface from
      // the resolved plan alone, observed at their strike instants.
      for (const ProcFailure& f : resolved.failures)
        log->push_back({f.time, SimEventKind::kFailure, f.proc,
                        kInvalidTask, kInvalidTask, 0.0});
      for (const ProcRejoin& r : resolved.rejoins)
        log->push_back({r.time, SimEventKind::kRejoin, r.proc, kInvalidTask,
                        kInvalidTask, 0.0});
      for (const SlowdownFault& f : resolved.slowdowns) {
        log->push_back({f.time, SimEventKind::kSlowdownBegin, f.proc,
                        kInvalidTask, kInvalidTask, f.factor});
        if (f.until != kInfiniteTime)
          log->push_back({f.until, SimEventKind::kSlowdownEnd, f.proc,
                          kInvalidTask, kInvalidTask, f.factor});
      }
      for (const LinkOutage& w : outages) {
        log->push_back({w.time, SimEventKind::kLinkPartitioned, w.a,
                        kInvalidTask, kInvalidTask, 0.0, w.b});
        if (w.until != kInfiniteTime)
          log->push_back({w.until, SimEventKind::kLinkHealed, w.a,
                          kInvalidTask, kInvalidTask, 0.0, w.b});
      }
    }
  }

  // Try to dispatch the head task of processor p. All arrival times are
  // known once every predecessor has finished, so the completion event can
  // be scheduled immediately even if the start lies in the future (the
  // finish integrates the processor's speed profile and checkpoint
  // pauses). A dead processor never dispatches; a starved head task blocks
  // its processor for good (dispatch is in schedule order).
  auto try_dispatch = [&](ProcId p) {
    if (dead[p]) return;
    while (dispatch_idx[p] < s.tasks_on(p).size()) {
      TaskId t = s.tasks_on(p)[dispatch_idx[p]];
      if (dispatched[t]) {
        ++dispatch_idx[p];
        continue;
      }
      if (starved[t]) return;            // its message will never come
      if (pending_preds[t] > 0) return;  // retried when the last pred ends
      Cost start = proc_free[p];
      // Continuation mode: ST(t) is a release instant, not a replayed time.
      if (options.honor_start_times) start = std::max(start, s.start(t));
      const Cost cold = rejoined_at[p];
      const auto preds = g.predecessors(t);
      const auto in_ids = g.in_edge_ids(t);
      for (std::size_t i = 0; i < preds.size(); ++i) {
        const Adj& a = preds[i];
        Cost avail;
        if (s.proc(a.node) == p) {
          avail = result.finish[a.node];
        } else {
          avail = arrival[in_ids[i]];
          FLB_ASSERT(avail != kUndefinedTime);
        }
        // Cold caches: data that reached p at or before the reboot was
        // lost with its memory; re-fetch it from the rejoin instant.
        if (cold != kUndefinedTime && avail <= cold)
          avail = cold + net.message_cost(a.comm);
        start = std::max(start, avail);
      }
      dispatched[t] = 1;
      result.start[t] = start;
      if (plan != nullptr) {
        platform::SpeedProfile::Trace tr =
            profiles[p].run(start, work_of(t), ckpt_of(t));
        FLB_ASSERT(tr.finished);
        result.finish[t] = tr.end;
      } else {
        result.finish[t] = start + work_of(t);
      }
      proc_free[p] = result.finish[t];
      events.push({result.finish[t], Event::kCompletion, seq++, t, epoch[t]});
      ++dispatch_idx[p];
    }
  };

  for (ProcId p = 0; p < procs; ++p) try_dispatch(p);

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();

    if (ev.kind == Event::kFailure) {
      const ProcId p = static_cast<ProcId>(ev.task);
      if (dead[p]) continue;  // duplicate failure entry
      dead[p] = 1;
      // Kill every dispatched-but-unfinished task on p. Dispatch runs
      // ahead of simulated time, so this covers both the task physically
      // executing at ev.time (its unprotected work is lost; durable
      // checkpoints survive) and tasks whose planned start lies beyond the
      // failure.
      bool requeued = false;
      for (TaskId t : s.tasks_on(p)) {
        if (!dispatched[t] || finished[t] || killed[t]) continue;
        // Continuation mode: a task that had not yet *started* when the
        // processor died loses nothing — it returns to the queue and is
        // re-dispatched if the processor rejoins. Only work physically in
        // flight at the strike is lost.
        if (options.honor_start_times && result.start[t] >= ev.time) {
          dispatched[t] = 0;
          ++epoch[t];
          result.start[t] = kUndefinedTime;
          result.finish[t] = kUndefinedTime;
          requeued = true;
          continue;
        }
        killed[t] = 1;
        platform::SpeedProfile::Trace tr =
            profiles[p].run(result.start[t], work_of(t), ckpt_of(t), ev.time);
        if (log != nullptr)
          log->push_back({ev.time, SimEventKind::kTaskKilled, p, t,
                          kInvalidTask, tr.saved});
        result.work_lost += tr.done - tr.saved;
        result.proc_work_lost[p] += tr.done - tr.saved;
        result.work_saved += tr.saved;
        result.checkpointed[t] = tr.saved;
        result.checkpoints_taken += tr.checkpoints;
        result.checkpoint_overhead += tr.overhead;
        result.start[t] = kUndefinedTime;
        result.finish[t] = kUndefinedTime;
      }
      // Returned tasks sit before dispatch_idx; rewind so a rejoin's
      // try_dispatch reconsiders them (already-dispatched ones are skipped).
      if (requeued) dispatch_idx[p] = 0;
      continue;
    }

    if (ev.kind == Event::kRejoin) {
      const ProcId p = static_cast<ProcId>(ev.task);
      if (!dead[p]) continue;  // canonicalization makes this unreachable
      dead[p] = 0;
      rejoined_at[p] = ev.time;
      // Every dispatched-but-unfinished task on p was killed at the kill
      // instant (or, in honor_start_times mode, returned to the queue), so
      // the processor is genuinely idle at the reboot.
      proc_free[p] = ev.time;
      ++result.rejoins;
      try_dispatch(p);
      continue;
    }

    TaskId t = ev.task;
    if (killed[t]) continue;  // stale completion of a task lost to a failure
    if (ev.epoch != epoch[t]) continue;  // canceled dispatch, re-queued
    finished[t] = 1;
    ++completed;
    const ProcId p = s.proc(t);
    if (const CheckpointPolicy cp = ckpt_of(t); cp.enabled()) {
      platform::SpeedProfile::Trace tr =
          profiles[p].run(result.start[t], work_of(t), cp);
      result.checkpoints_taken += tr.checkpoints;
      result.checkpoint_overhead += tr.overhead;
    }

    // Emit messages to remote successors; ports and links are allocated
    // now, in global completion order. Under a fault plan each remote
    // message resolves its loss/delay fate deterministically from its edge
    // slot.
    std::size_t slot = g.out_edge_begin(t);
    for (const Adj& a : g.successors(t)) {
      if (s.proc(a.node) != p) {
        Cost cost = net.message_cost(a.comm);
        MessageOutcome fate;
        if (plan != nullptr) fate = resolve_message(*plan, slot);
        result.retries += fate.retries;
        if (fate.dropped) {
          ++result.dropped_messages;
          result.dropped_edges.emplace_back(t, a.node);
          starved[a.node] = 1;
          // The sender observes the loss once the exhausted retry timeouts
          // have all expired — not at the first attempt.
          if (log != nullptr)
            log->push_back({ev.time + fate.retry_delay,
                            SimEventKind::kMessageDropped, p, t, a.node,
                            0.0});
          ++slot;
          continue;
        }
        if (fate.delayed) cost *= plan->message.delay_factor;
        Cost send_start = ev.time + fate.retry_delay;
        // Partial partitions: a message whose direct link is down at its
        // send instant reroutes over the shortest detour of live links
        // (store-and-forward, one full transfer per hop). With no live
        // path it is held back to the earliest heal instant that restores
        // one; with no such instant (a permanent total cut) it is dropped
        // like an exhausted retry — re-execution repair's problem.
        if (!outages.empty() &&
            link_partitioned(outages, p, s.proc(a.node), send_start)) {
          const ProcId dest = s.proc(a.node);
          std::size_t hops = reroute_hops(outages, procs, p, dest, send_start);
          if (hops == 0) {
            Cost heal = kInfiniteTime;
            for (const LinkOutage& w : outages)
              if (w.until != kInfiniteTime && w.until > send_start &&
                  w.until < heal &&
                  reroute_hops(outages, procs, p, dest, w.until) > 0)
                heal = w.until;
            if (heal == kInfiniteTime) {
              ++result.dropped_messages;
              ++result.partition_dropped;
              result.dropped_edges.emplace_back(t, a.node);
              starved[a.node] = 1;
              if (log != nullptr)
                log->push_back({send_start, SimEventKind::kMessageDropped, p,
                                t, a.node, 0.0});
              ++slot;
              continue;
            }
            result.reroute_extra += heal - send_start;
            send_start = heal;
            hops = reroute_hops(outages, procs, p, dest, heal);
          }
          if (hops > 1) {
            result.reroute_extra += static_cast<Cost>(hops - 1) * cost;
            cost *= static_cast<Cost>(hops);
          }
          ++result.rerouted_messages;
        }
        if (options.network != SimNetwork::kContentionFree) {
          send_start = std::max(send_start, send_free[p]);
          send_free[p] = send_start + cost;
        }
        // A routed replay (contention-free, no faults) reserves every hop
        // of the message's route; otherwise it travels for `cost`.
        Cost arr = topology != nullptr
                       ? net.commit(p, s.proc(a.node), a.comm, send_start)
                       : send_start + cost;
        if (options.network == SimNetwork::kSinglePortSendRecv) {
          ProcId dest = s.proc(a.node);
          Cost recv_start = std::max(send_start, recv_free[dest]);
          recv_free[dest] = recv_start + cost;
          arr = recv_start + cost;
        }
        arrival[slot] = arr;
        ++result.messages;
        result.network_busy += cost;
      }
      ++slot;
    }

    // Release successors and poke the processors that may now dispatch.
    try_dispatch(p);
    for (const Adj& a : g.successors(t)) {
      FLB_ASSERT(pending_preds[a.node] > 0);
      if (--pending_preds[a.node] == 0) try_dispatch(s.proc(a.node));
    }
  }

  if (plan == nullptr) {
    FLB_REQUIRE(completed == n,
                "simulate: dispatch deadlock — the schedule's per-processor "
                "order is inconsistent with the task dependences");
  } else {
    for (TaskId t = 0; t < n; ++t)
      if (!finished[t]) result.unfinished.push_back(t);
  }

  for (Cost f : result.finish)
    if (f != kUndefinedTime) result.makespan = std::max(result.makespan, f);
  if (plan != nullptr)
    for (ProcId p = 0; p < procs; ++p)
      result.dead_proc_idle += resolved.downtime(p, result.makespan);
  if (topology != nullptr) result.link_occupancies = net.occupancies();
  // Canonical log order: events are collected as the simulation encounters
  // them; the sorted stream is a pure value of (plan, schedule), so two
  // runs diff byte-identically.
  if (log != nullptr) std::sort(log->begin(), log->end());
  return result;
}

}  // namespace flb
