#include "flb/sim/machine_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/platform/cost_model.hpp"
#include "flb/platform/speed_profile.hpp"
#include "flb/util/error.hpp"
#include "flb/util/table.hpp"

namespace flb {

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


void Replay::start(const TaskGraph& g, const Schedule& s,
                   const SimOptions& options) {
  done_ = true;  // holds no replay until this start() succeeds
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(s.num_tasks() == n,
              "simulate: the schedule was built for a graph with a different "
              "task count");
  FLB_REQUIRE(s.complete(), "simulate: schedule is incomplete");
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
  outages_.clear();
  if (plan != nullptr) {
    plan->validate(s.num_procs());
    resolved_ = resolve_faults(*plan);
    outages_ = resolve_partitions(*plan);
  }
  ckpt_ = plan != nullptr ? plan->checkpoint : CheckpointPolicy{};
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

  g_ = &g;
  s_ = &s;
  plan_ = plan;
  network_ = options.network;
  routed_ = topology != nullptr;
  honor_start_times_ = options.honor_start_times;
  has_work_override_ = options.work_override != nullptr;
  if (has_work_override_) work_override_ = *options.work_override;
  has_ckpt_override_ = ckpt_override != nullptr;
  if (has_ckpt_override_) ckpt_override_ = *ckpt_override;
  // Criticality-aware checkpoint placement: with min_downstream > 0 only
  // tasks whose bottom level reaches the threshold write checkpoints; the
  // rest run with the policy disabled.
  downstream_ = {};
  if (plan != nullptr && ckpt_.enabled() && ckpt_.min_downstream > 0.0)
    downstream_ = g.bottom_levels();

  log_ = options.event_log;
  if (log_ != nullptr) log_->clear();

  result_.start.assign(n, kUndefinedTime);
  result_.finish.assign(n, kUndefinedTime);
  result_.makespan = 0.0;
  result_.messages = 0;
  result_.network_busy = 0.0;
  result_.link_occupancies.clear();
  result_.retries = 0;
  result_.dropped_messages = 0;
  result_.rejoins = 0;
  result_.work_lost = 0.0;
  result_.dead_proc_idle = 0.0;
  result_.unfinished.clear();
  result_.dropped_edges.clear();
  result_.work_saved = 0.0;
  result_.checkpoint_overhead = 0.0;
  result_.checkpoints_taken = 0;
  result_.checkpointed.clear();
  result_.proc_work_lost.clear();
  result_.rerouted_messages = 0;
  result_.reroute_extra = 0.0;
  result_.partition_dropped = 0;
  done_ = false;
  reached_ = -kInfiniteTime;
  completed_ = 0;
  seq_ = 0;
  events_.clear();

  const ProcId procs = s.num_procs();
  dispatch_idx_.assign(procs, 0);
  proc_free_.assign(procs, 0.0);
  send_free_.assign(procs, 0.0);
  recv_free_.assign(procs, 0.0);
  dead_.assign(procs, 0);

  // Piecewise-constant per-processor speed profiles (flb::platform), plus
  // the link-busy model a routed replay prices its messages through, whose
  // commit() reserves every hop. On the clique a remote transfer and a
  // cold-cache re-fetch both cost the edge's comm.
  net_ = topology != nullptr ? platform::CostModel::link_busy(*topology)
                             : platform::CostModel::clique(procs);
  profiles_.assign(procs, platform::SpeedProfile{});
  // Instant the processor last rebooted (kUndefinedTime = never): data that
  // reached it at or before this instant was lost with its memory and must
  // be re-fetched by any consumer dispatched after the rejoin.
  rejoined_at_.assign(procs, kUndefinedTime);
  if (plan != nullptr) {
    for (const SlowdownFault& f : resolved_.slowdowns)
      profiles_[f.proc].add(f.time, f.factor, f.until);
    for (platform::SpeedProfile& p : profiles_) p.finalize();
    result_.checkpointed.assign(n, 0.0);
    result_.proc_work_lost.assign(procs, 0.0);
  }

  // arrival[e] for remote edges, indexed by the graph's edge id: the
  // producer writes slot out_edge_begin + i, the consumer reads it through
  // in_edge_ids. Local edges are handled through `finished`. A dropped
  // message leaves its slot at kUndefinedTime forever and marks the
  // consumer starved.
  arrival_.assign(g.num_edges(), kUndefinedTime);

  finished_.assign(n, 0);
  dispatched_.assign(n, 0);
  killed_.assign(n, 0);
  starved_.assign(n, 0);
  // Dispatch generation per task (see Event::epoch); only ever bumped in
  // honor_start_times mode, when a failure returns unstarted work to the
  // queue.
  epoch_.assign(n, 0);
  pending_preds_.resize(n);
  for (TaskId t = 0; t < n; ++t) pending_preds_[t] = g.in_degree(t);

  if (plan != nullptr) {
    for (const ProcFailure& f : resolved_.failures)
      push({f.time, Event::kFailure, seq_++, f.proc});
    for (const ProcRejoin& r : resolved_.rejoins)
      push({r.time, Event::kRejoin, seq_++, r.proc});
    if (log_ != nullptr) {
      // Machine-level events are schedule-independent: they surface from
      // the resolved plan alone, observed at their strike instants.
      for (const ProcFailure& f : resolved_.failures)
        log_->push_back({f.time, SimEventKind::kFailure, f.proc,
                         kInvalidTask, kInvalidTask, 0.0});
      for (const ProcRejoin& r : resolved_.rejoins)
        log_->push_back({r.time, SimEventKind::kRejoin, r.proc, kInvalidTask,
                         kInvalidTask, 0.0});
      for (const SlowdownFault& f : resolved_.slowdowns) {
        log_->push_back({f.time, SimEventKind::kSlowdownBegin, f.proc,
                         kInvalidTask, kInvalidTask, f.factor});
        if (f.until != kInfiniteTime)
          log_->push_back({f.until, SimEventKind::kSlowdownEnd, f.proc,
                           kInvalidTask, kInvalidTask, f.factor});
      }
      for (const LinkOutage& w : outages_) {
        log_->push_back({w.time, SimEventKind::kLinkPartitioned, w.a,
                         kInvalidTask, kInvalidTask, 0.0, w.b});
        if (w.until != kInfiniteTime)
          log_->push_back({w.until, SimEventKind::kLinkHealed, w.a,
                           kInvalidTask, kInvalidTask, 0.0, w.b});
      }
    }
  }

  for (ProcId p = 0; p < procs; ++p) try_dispatch(p);
}

void Replay::push(const Event& ev) {
  events_.push_back(ev);
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

// Effective work per task: the override wins (it already includes any
// perturbation — checkpoint-resumed tasks carry only their remainder),
// otherwise the graph's cost scaled by the plan's runtime factor.
Cost Replay::work_of(TaskId t) const {
  if (has_work_override_ && work_override_[t] != kUndefinedTime)
    return work_override_[t];
  return plan_ ? g_->comp(t) * runtime_factor(*plan_, t) : g_->comp(t);
}

CheckpointPolicy Replay::ckpt_of(TaskId t) const {
  if (!downstream_.empty() && !ckpt_.covers(downstream_[t]))
    return CheckpointPolicy{};
  CheckpointPolicy p = ckpt_;
  if (has_ckpt_override_ && ckpt_override_[t] != kUndefinedTime)
    p.interval = ckpt_override_[t];
  return p;
}

// Try to dispatch the head task of processor p. All arrival times are
// known once every predecessor has finished, so the completion event can
// be scheduled immediately even if the start lies in the future (the
// finish integrates the processor's speed profile and checkpoint
// pauses). A dead processor never dispatches; a starved head task blocks
// its processor for good (dispatch is in schedule order).
void Replay::try_dispatch(ProcId p) {
  if (dead_[p]) return;
  const TaskGraph& g = *g_;
  const Schedule& s = *s_;
  while (dispatch_idx_[p] < s.tasks_on(p).size()) {
    TaskId t = s.tasks_on(p)[dispatch_idx_[p]];
    if (dispatched_[t]) {
      ++dispatch_idx_[p];
      continue;
    }
    if (starved_[t]) return;            // its message will never come
    if (pending_preds_[t] > 0) return;  // retried when the last pred ends
    Cost start = proc_free_[p];
    // Continuation mode: ST(t) is a release instant, not a replayed time.
    if (honor_start_times_) start = std::max(start, s.start(t));
    const Cost cold = rejoined_at_[p];
    const auto preds = g.predecessors(t);
    const auto in_ids = g.in_edge_ids(t);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const Adj& a = preds[i];
      Cost avail;
      if (s.proc(a.node) == p) {
        avail = result_.finish[a.node];
      } else {
        avail = arrival_[in_ids[i]];
        FLB_ASSERT(avail != kUndefinedTime);
      }
      // Cold caches: data that reached p at or before the reboot was
      // lost with its memory; re-fetch it from the rejoin instant.
      if (cold != kUndefinedTime && avail <= cold)
        avail = cold + a.comm;
      start = std::max(start, avail);
    }
    dispatched_[t] = 1;
    result_.start[t] = start;
    if (plan_ != nullptr) {
      platform::SpeedProfile::Trace tr =
          profiles_[p].run(start, work_of(t), ckpt_of(t));
      FLB_ASSERT(tr.finished);
      result_.finish[t] = tr.end;
    } else {
      result_.finish[t] = start + work_of(t);
    }
    proc_free_[p] = result_.finish[t];
    push({result_.finish[t], Event::kCompletion, seq_++, t, epoch_[t]});
    ++dispatch_idx_[p];
  }
}

void Replay::advance(Cost until) {
  if (done_ || until <= reached_) return;
  while (!events_.empty() && events_.front().time <= until) {
    std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
    const Event ev = events_.back();
    events_.pop_back();
    process(ev);
  }
  reached_ = until;
}

void Replay::process(const Event& ev) {
  const TaskGraph& g = *g_;
  const Schedule& s = *s_;
  if (ev.kind == Event::kFailure) {
    const ProcId p = static_cast<ProcId>(ev.task);
    if (dead_[p]) return;  // duplicate failure entry
    dead_[p] = 1;
    // Kill every dispatched-but-unfinished task on p. Dispatch runs
    // ahead of simulated time, so this covers both the task physically
    // executing at ev.time (its unprotected work is lost; durable
    // checkpoints survive) and tasks whose planned start lies beyond the
    // failure.
    bool requeued = false;
    for (TaskId t : s.tasks_on(p)) {
      if (!dispatched_[t] || finished_[t] || killed_[t]) continue;
      // Continuation mode: a task that had not yet *started* when the
      // processor died loses nothing — it returns to the queue and is
      // re-dispatched if the processor rejoins. Only work physically in
      // flight at the strike is lost.
      if (honor_start_times_ && result_.start[t] >= ev.time) {
        dispatched_[t] = 0;
        ++epoch_[t];
        result_.start[t] = kUndefinedTime;
        result_.finish[t] = kUndefinedTime;
        requeued = true;
        continue;
      }
      killed_[t] = 1;
      platform::SpeedProfile::Trace tr =
          profiles_[p].run(result_.start[t], work_of(t), ckpt_of(t), ev.time);
      if (log_ != nullptr)
        log_->push_back({ev.time, SimEventKind::kTaskKilled, p, t,
                         kInvalidTask, tr.saved});
      result_.work_lost += tr.done - tr.saved;
      result_.proc_work_lost[p] += tr.done - tr.saved;
      result_.work_saved += tr.saved;
      result_.checkpointed[t] = tr.saved;
      result_.checkpoints_taken += tr.checkpoints;
      result_.checkpoint_overhead += tr.overhead;
      result_.start[t] = kUndefinedTime;
      result_.finish[t] = kUndefinedTime;
    }
    // Returned tasks sit before dispatch_idx; rewind so a rejoin's
    // try_dispatch reconsiders them (already-dispatched ones are skipped).
    if (requeued) dispatch_idx_[p] = 0;
    return;
  }

  if (ev.kind == Event::kRejoin) {
    const ProcId p = static_cast<ProcId>(ev.task);
    if (!dead_[p]) return;  // canonicalization makes this unreachable
    dead_[p] = 0;
    rejoined_at_[p] = ev.time;
    // Every dispatched-but-unfinished task on p was killed at the kill
    // instant (or, in honor_start_times mode, returned to the queue), so
    // the processor is genuinely idle at the reboot.
    proc_free_[p] = ev.time;
    ++result_.rejoins;
    try_dispatch(p);
    return;
  }

  TaskId t = ev.task;
  if (killed_[t]) return;  // stale completion of a task lost to a failure
  if (ev.epoch != epoch_[t]) return;  // canceled dispatch, re-queued
  finished_[t] = 1;
  ++completed_;
  result_.makespan = std::max(result_.makespan, ev.time);
  const ProcId p = s.proc(t);
  if (const CheckpointPolicy cp = ckpt_of(t); cp.enabled()) {
    platform::SpeedProfile::Trace tr =
        profiles_[p].run(result_.start[t], work_of(t), cp);
    result_.checkpoints_taken += tr.checkpoints;
    result_.checkpoint_overhead += tr.overhead;
  }

  // Emit messages to remote successors; ports and links are allocated
  // now, in global completion order. Under a fault plan each remote
  // message resolves its loss/delay fate deterministically from its edge
  // slot.
  const FaultPlan* const plan = plan_;
  const ProcId procs = s.num_procs();
  std::size_t slot = g.out_edge_begin(t);
  for (const Adj& a : g.successors(t)) {
    if (s.proc(a.node) != p) {
      Cost cost = a.comm;
      MessageOutcome fate;
      if (plan != nullptr) fate = resolve_message(*plan, slot);
      result_.retries += fate.retries;
      if (fate.dropped) {
        ++result_.dropped_messages;
        result_.dropped_edges.emplace_back(t, a.node);
        starved_[a.node] = 1;
        // The sender observes the loss once the exhausted retry timeouts
        // have all expired — not at the first attempt.
        if (log_ != nullptr)
          log_->push_back({ev.time + fate.retry_delay,
                           SimEventKind::kMessageDropped, p, t, a.node, 0.0});
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
      if (!outages_.empty() &&
          link_partitioned(outages_, p, s.proc(a.node), send_start)) {
        const ProcId dest = s.proc(a.node);
        std::size_t hops = reroute_hops(outages_, procs, p, dest, send_start);
        if (hops == 0) {
          Cost heal = kInfiniteTime;
          for (const LinkOutage& w : outages_)
            if (w.until != kInfiniteTime && w.until > send_start &&
                w.until < heal &&
                reroute_hops(outages_, procs, p, dest, w.until) > 0)
              heal = w.until;
          if (heal == kInfiniteTime) {
            ++result_.dropped_messages;
            ++result_.partition_dropped;
            result_.dropped_edges.emplace_back(t, a.node);
            starved_[a.node] = 1;
            if (log_ != nullptr)
              log_->push_back({send_start, SimEventKind::kMessageDropped, p,
                               t, a.node, 0.0});
            ++slot;
            continue;
          }
          result_.reroute_extra += heal - send_start;
          send_start = heal;
          hops = reroute_hops(outages_, procs, p, dest, heal);
        }
        if (hops > 1) {
          result_.reroute_extra += static_cast<Cost>(hops - 1) * cost;
          cost *= static_cast<Cost>(hops);
        }
        ++result_.rerouted_messages;
      }
      if (network_ != SimNetwork::kContentionFree) {
        send_start = std::max(send_start, send_free_[p]);
        send_free_[p] = send_start + cost;
      }
      // A routed replay (contention-free, no faults) reserves every hop
      // of the message's route; otherwise it travels for `cost`.
      Cost arr = routed_ ? net_.commit(p, s.proc(a.node), a.comm, send_start)
                         : send_start + cost;
      if (network_ == SimNetwork::kSinglePortSendRecv) {
        ProcId dest = s.proc(a.node);
        Cost recv_start = std::max(send_start, recv_free_[dest]);
        recv_free_[dest] = recv_start + cost;
        arr = recv_start + cost;
      }
      arrival_[slot] = arr;
      ++result_.messages;
      result_.network_busy += cost;
    }
    ++slot;
  }

  // Release successors and poke the processors that may now dispatch.
  try_dispatch(p);
  for (const Adj& a : g.successors(t)) {
    FLB_ASSERT(pending_preds_[a.node] > 0);
    if (--pending_preds_[a.node] == 0) try_dispatch(s.proc(a.node));
  }
}

void Replay::run() {
  if (done_) return;
  advance(kInfiniteTime);
  const TaskId n = g_->num_tasks();
  if (plan_ == nullptr) {
    FLB_REQUIRE(completed_ == n,
                "simulate: dispatch deadlock — the schedule's per-processor "
                "order is inconsistent with the task dependences");
  } else {
    for (TaskId t = 0; t < n; ++t)
      if (!finished_[t]) result_.unfinished.push_back(t);
    for (ProcId p = 0; p < s_->num_procs(); ++p)
      result_.dead_proc_idle += resolved_.downtime(p, result_.makespan);
  }
  if (routed_) result_.link_occupancies = net_.occupancies();
  // Canonical log order: events are collected as the simulation encounters
  // them; the sorted stream is a pure value of (plan, schedule), so two
  // runs diff byte-identically.
  if (log_ != nullptr) std::sort(log_->begin(), log_->end());
  done_ = true;
}

SimResult simulate(const TaskGraph& g, const Schedule& s,
                   const SimOptions& options) {
  Replay replay;
  replay.start(g, s, options);
  replay.run();
  return replay.take_result();
}

}  // namespace flb
