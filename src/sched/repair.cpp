#include "flb/sched/repair.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"

namespace flb {

namespace {

// Degraded mode: place the remaining tasks in topological order, each on
// the surviving processor that lets it start the earliest (ties toward the
// smaller id); durations and arrivals are priced entirely through the
// platform cost model — per-processor admission instants, cold-cache
// re-fetch of data that predates a reboot, routed hop counts or link-busy
// reservations under a topology, speed-scaled remainders plus additive
// extra. The chosen task's inputs are priced by commit_inputs(), which
// under link-busy pricing reserves their routes so later transfers queue
// behind them. With one admitted processor the choice is forced, and the
// min-EST scan is skipped. O(V·P·indeg) — acceptable for a fallback that
// usually runs with one survivor. Stops, as FlbScheduler::resume does, at
// the first placed task that finishes after `bound`.
void greedy_continuation(const TaskGraph& g, Schedule& s,
                         platform::CostModel& model, Cost bound) {
  ProcId admitted = 0;
  ProcId only = kInvalidProc;  // the admitted processor, when it is alone
  for (ProcId p = 0; p < s.num_procs(); ++p)
    if (model.alive(p)) {
      ++admitted;
      only = p;
    }
  // min_est's rows; a forced choice needs none.
  const std::size_t width = admitted == 1 ? 0 : s.num_procs();
  std::vector<Cost> est(width), row(width);
  for (TaskId t : topological_order(g)) {
    if (s.is_scheduled(t)) continue;
    const ProcId p =
        admitted == 1 ? only : model.min_est(g, s, t, est, row).first;
    FLB_ASSERT(p != kInvalidProc);
    const Cost start = model.commit_inputs(
        g, s, t, p, std::max(s.proc_ready_time(p), model.admission(p)));
    const Cost finish = start + model.exec(g, t, p);
    s.assign(t, p, start, finish);
    if (finish > bound) return;
  }
}

}  // namespace

RepairResult repair_schedule(const TaskGraph& g, const Schedule& nominal,
                             const SimResult& partial, const FaultPlan& plan,
                             const RepairOptions& options) {
  FlbScheduler flb;
  return repair_schedule(g, nominal, partial, plan, options, flb);
}

RepairResult repair_schedule(const TaskGraph& g, const Schedule& nominal,
                             const SimResult& partial, const FaultPlan& plan,
                             const RepairOptions& options, FlbScheduler& flb) {
  const TaskId n = g.num_tasks();
  FLB_REQUIRE(nominal.num_tasks() == n,
              "repair_schedule: schedule was built for a different graph");
  FLB_REQUIRE(partial.start.size() == n && partial.finish.size() == n,
              "repair_schedule: partial run does not match the graph");
  FLB_REQUIRE(partial.dropped_messages == 0 ||
                  options.dropped_data ==
                      DroppedDataPolicy::kReexecuteProducers,
              "repair_schedule: the partial run dropped messages; lost data "
              "cannot be recovered by re-mapping tasks (use "
              "DroppedDataPolicy::kReexecuteProducers)");
  plan.validate(nominal.num_procs());
  const ResolvedFaults resolved = resolve_faults(plan);

  Stopwatch sw;
  RepairResult out(Schedule(nominal.num_procs(), n));

  const ProcId procs = nominal.num_procs();
  FLB_REQUIRE(options.topology == nullptr ||
                  options.topology->num_nodes() == procs,
              "repair_schedule: topology node count must match the "
              "processor count");
  FLB_REQUIRE(!options.link_busy || options.topology != nullptr,
              "repair_schedule: link-busy pricing requires a topology");

  // Per-processor availability over the episode: 0 = never killed, finite
  // > 0 = killed but rejoined at that instant, infinite = ends dead.
  std::vector<Cost> avail(procs);
  bool any_recovery = false;
  for (ProcId p = 0; p < procs; ++p) {
    avail[p] = resolved.available_from(p);
    if (avail[p] > 0.0 && avail[p] != kInfiniteTime) any_recovery = true;
  }
  std::vector<bool> alive(procs);        // alive at the end of the episode
  std::vector<bool> never_killed(procs);
  for (ProcId p = 0; p < procs; ++p) {
    alive[p] = avail[p] != kInfiniteTime;
    never_killed[p] = avail[p] == 0.0;
  }
  Cost release = 0.0;
  for (const ProcFailure& f : resolved.failures)
    release = std::max(release, f.time);
  if (options.horizon != kInfiniteTime) {
    FLB_REQUIRE(options.horizon >= 0.0,
                "repair_schedule: horizon must be non-negative");
    release = std::max(release, options.horizon);
  }
  ProcId survivors = 0;
  for (bool a : alive)
    if (a) ++survivors;
  FLB_REQUIRE(survivors >= 1,
              "repair_schedule: the fault plan kills every processor");

  // Unreachable-but-alive processors: masked out of every admission set
  // below (the controller cannot install new work behind the partition)
  // without being treated as dead anywhere else.
  std::vector<char> unreachable(procs, 0);
  for (ProcId p : options.unreachable) {
    FLB_REQUIRE(p < procs,
                "repair_schedule: unreachable processor " +
                    std::to_string(p) + " is not below the processor count " +
                    std::to_string(procs));
    unreachable[p] = 1;
  }
  for (ProcId p = 0; p < procs; ++p)
    if (unreachable[p] != 0) ++out.unreachable_procs;
  {
    bool any_reachable = false;
    for (ProcId p = 0; p < procs; ++p)
      if (alive[p] && unreachable[p] == 0) any_reachable = true;
    FLB_REQUIRE(any_reachable,
                "repair_schedule: every surviving processor is unreachable "
                "from the controller");
  }
  auto reachable = [&](std::vector<bool> mask) {
    for (ProcId p = 0; p < procs; ++p)
      if (unreachable[p] != 0) mask[p] = false;
    return mask;
  };

  // The related-machines view of the degraded cluster: alive processors hit
  // by slowdowns execute remaining work at their compounded factor.
  const std::vector<double> speeds =
      final_speeds(resolved, nominal.num_procs());
  for (ProcId p = 0; p < nominal.num_procs(); ++p)
    if (alive[p] && speeds[p] < 1.0) ++out.degraded_procs;

  // Roll back the producers of permanently dropped messages plus all their
  // transitive successors — every task whose inputs are (directly or
  // indirectly) stale re-executes on a survivor. The repair cannot happen
  // before the losses were observed, so the release also covers the latest
  // observed finish of any rolled-back task.
  std::vector<char> rolled(n, 0);
  if (!partial.dropped_edges.empty()) {
    std::vector<TaskId> stack;
    for (const auto& [producer, consumer] : partial.dropped_edges) {
      (void)consumer;  // consumers are successors of the producer
      if (!rolled[producer]) {
        rolled[producer] = 1;
        stack.push_back(producer);
      }
    }
    while (!stack.empty()) {
      TaskId t = stack.back();
      stack.pop_back();
      for (const Adj& a : g.successors(t))
        if (!rolled[a.node]) {
          rolled[a.node] = 1;
          stack.push_back(a.node);
        }
    }
    for (TaskId t = 0; t < n; ++t)
      if (rolled[t] && partial.finish[t] != kUndefinedTime) {
        ++out.reexecuted_tasks;
        release = std::max(release, partial.finish[t]);
      }
  }

  // The executed past: everything that finished before the horizon and is
  // not rolled back keeps its observed placement — including tasks that
  // completed on a processor before it died.
  std::vector<char> fixed(n, 0);
  for (TaskId t = 0; t < n; ++t)
    if (partial.finish[t] != kUndefinedTime && !rolled[t] &&
        partial.start[t] < options.horizon) {
      fixed[t] = 1;
      out.schedule.assign(t, nominal.proc(t), partial.start[t],
                          partial.finish[t]);
    }
  out.survivors = survivors;
  out.release_time = release;

  // Remaining work of every migrated task: its (deterministically
  // perturbed) total minus what its last durable checkpoint protects, plus
  // the wall time of the checkpoint writes the re-execution itself will
  // perform. Under a criticality-aware policy (min_downstream > 0) tasks
  // below the bottom-level threshold neither saved anything nor pay for
  // writes — mirroring the simulator's per-task gating.
  std::vector<Cost> downstream;
  if (plan.checkpoint.enabled() && plan.checkpoint.min_downstream > 0.0)
    downstream = bottom_levels(g);
  std::vector<Cost> work(n, kUndefinedTime), extra(n, 0.0);
  for (TaskId t = 0; t < n; ++t) {
    if (fixed[t]) continue;
    const bool covered =
        downstream.empty() ? plan.checkpoint.enabled()
                           : plan.checkpoint.covers(downstream[t]);
    Cost saved = partial.checkpointed.empty() ? 0.0 : partial.checkpointed[t];
    Cost remaining = g.comp(t) * runtime_factor(plan, t) - saved;
    work[t] = remaining;
    if (covered)
      extra[t] =
          static_cast<Cost>(checkpoint_count(plan.checkpoint, remaining)) *
          plan.checkpoint.overhead;
    out.checkpoint_work_saved += saved;
  }

  // The machine every continuation — and the pin probe below — prices
  // against: the paper's clique, or options.topology priced by hop count
  // or by link reservations; the given availability; and the degraded
  // execution of migrated work — final speeds, remaining work, checkpoint-
  // write time.
  auto machine = [&](platform::Availability availability) {
    platform::CostModel model =
        options.topology == nullptr ? platform::CostModel::clique(procs)
        : options.link_busy
            ? platform::CostModel::link_busy(*options.topology)
            : platform::CostModel::routed(*options.topology);
    model.set_availability(std::move(availability));
    model.set_speeds(speeds);
    model.set_work(work);
    model.set_extra_time(extra);
    return model;
  };

  // Speculative hedging: each suspect is listed dead in the plan — its
  // queue migrates below — but the belief may be wrong, so its first
  // still-in-flight task keeps its placement instead of restarting
  // elsewhere. The pin start is lifted to stay feasible against the fixed
  // prefix, with predecessor arrivals priced through the platform cost
  // model; a task later than the first unfinished one cannot have been in
  // flight (one task executes at a time), so only that one is hedged.
  //
  // Unreachable processors pin deeper: the controller cannot talk to a
  // processor behind a partition, so it can neither hand it new work nor
  // cancel the queue it already holds — the whole not-yet-started tail of
  // its dispatch list keeps executing in place, as far as its inputs stay
  // within the fixed-or-pinned prefix. The first input that a re-planned
  // producer would have to feed ends the pin run: from there on the tasks
  // migrate like any other re-planned work. A processor that is both
  // suspected and unreachable keeps the suspect semantics (one hedge).
  std::vector<ProcId> hedged = options.suspects;
  for (ProcId p = 0; p < procs; ++p)
    if (unreachable[p] != 0 &&
        std::find(hedged.begin(), hedged.end(), p) == hedged.end())
      hedged.push_back(p);
  if (!hedged.empty()) {
    FLB_REQUIRE(options.pin_exclude == nullptr ||
                    options.pin_exclude->size() == n,
                "repair_schedule: pin_exclude must have one entry per task");
    const platform::CostModel probe = machine({});
    for (ProcId sp : hedged) {
      FLB_REQUIRE(sp < procs,
                  "repair_schedule: suspect " + std::to_string(sp) +
                      " is not below the processor count " +
                      std::to_string(procs));
      const bool whole_queue =
          unreachable[sp] != 0 &&
          std::find(options.suspects.begin(), options.suspects.end(), sp) ==
              options.suspects.end();
      for (TaskId t : nominal.tasks_on(sp)) {
        if (fixed[t]) continue;
        if (rolled[t]) break;  // stale inputs: known re-execution, not hedge
        if (!whole_queue && nominal.start(t) >= options.horizon)
          break;  // never in flight
        if (options.pin_exclude != nullptr && (*options.pin_exclude)[t])
          break;  // observed killed: known-lost, nothing to hedge
        const bool preds_placed = std::ranges::all_of(
            g.predecessors(t),
            [&](const Adj& in) { return out.schedule.is_scheduled(in.node); });
        if (!preds_placed) break;
        const Cost start = probe.inputs_ready(
            g, out.schedule, t, sp,
            std::max(nominal.start(t), out.schedule.proc_ready_time(sp)));
        out.schedule.assign(t, sp, start, start + probe.exec(g, t, sp));
        out.pinned_tasks.push_back(t);
        if (!whole_queue) break;
      }
    }
  }
  out.migrated_tasks = n - out.schedule.num_scheduled();

  // A candidate slot: one continuation's schedule, the strategy that
  // placed it, and the machine it priced against, whose link log holds the
  // reservations it committed. A repair keeps two slots, the best
  // continuation so far and the trial being computed, and builds each on
  // first use. A trial re-arms its slot: the fixed prefix is copy-assigned
  // into the schedule, and the model gets the trial's availability and
  // free links, keeping its speeds, work and extra time (the same for
  // every candidate). So the buffers the slot's last candidate grew are
  // reused, and the slots swap roles only when the trial wins.
  struct Slot {
    Schedule schedule;
    RepairStrategy used;
    platform::CostModel model;
  };
  std::optional<Slot> slots[2];

  // One continuation over a given admission mask, computed into `slot`.
  // `recovery` additionally admits rejoined processors from their rejoin
  // instant with cold caches (the Availability::recovery rule). The FLB
  // step and the greedy fallback price against the slot's machine.
  // Every continuation resumes on the caller's FLB engine, so each after
  // the first reuses the scratch the first sized instead of allocating
  // (and page-faulting in) a fresh one. A continuation stops at the first
  // placed task that finishes after `bound`, and its schedule is then
  // incomplete.
  auto continuation = [&](std::optional<Slot>& slot,
                          const std::vector<bool>& mask, bool recovery,
                          Cost bound) {
    ProcId admitted = 0;
    for (ProcId p = 0; p < procs; ++p)
      if (mask[p]) ++admitted;
    RepairStrategy strategy = options.strategy;
    if (strategy == RepairStrategy::kAuto)
      strategy = admitted >= 2 ? RepairStrategy::kFlbResume
                               : RepairStrategy::kGreedy;
    platform::Availability a;
    if (recovery) {
      a = platform::Availability::recovery(release, mask, avail);
    } else {
      a.release = release;
      a.alive = mask;
    }
    if (slot) {
      slot->schedule = out.schedule;  // the fixed prefix
      slot->model.set_availability(std::move(a));
      slot->model.reset_links();
      slot->used = strategy;
    } else {
      slot.emplace(Slot{out.schedule, strategy, machine(std::move(a))});
    }
    if (strategy == RepairStrategy::kFlbResume)
      slot->schedule = flb.resume(g, std::move(slot->schedule), slot->model,
                                  nullptr, bound);
    else
      greedy_continuation(g, slot->schedule, slot->model, bound);
  };

  // The serial floor's processor among `mask`: the one the fixed prefix's
  // outputs reach most cheaply, by the hop-weighted bytes on every edge
  // from a placed producer to an unplaced consumer; the smaller id on a
  // tie. O(E + P^2).
  auto floor_proc = [&](const std::vector<bool>& mask) {
    std::vector<Cost> bytes(procs, 0.0);  // frontier bytes leaving each p
    for (TaskId t = 0; t < n; ++t) {
      if (out.schedule.is_scheduled(t)) continue;
      for (const Adj& in : g.predecessors(t))
        if (out.schedule.is_scheduled(in.node))
          bytes[out.schedule.proc(in.node)] += in.comm;
    }
    ProcId best = kInvalidProc;
    Cost best_cost = kInfiniteTime;
    for (ProcId q = 0; q < procs; ++q) {
      if (!mask[q]) continue;
      Cost cost = 0.0;
      for (ProcId p = 0; p < procs; ++p)
        cost += bytes[p] * static_cast<Cost>(options.topology->hops(p, q));
      if (cost < best_cost) {
        best_cost = cost;
        best = q;
      }
    }
    return best;
  };

  if (out.migrated_tasks > 0) {
    // The candidates, in order of preference on equal makespans:
    //  0. the no-give-back baseline over the never-killed processors;
    //  1. the recovery-aware continuation, which also admits rejoined ones
    //     (opportunistic give-back). Without a never-killed reachable
    //     processor it is the only feasible repair, whatever
    //     options.give_back says (a reachable survivor is guaranteed
    //     above);
    //  2. under link-busy pricing, the serial floor: the whole remainder on
    //     one processor of the baseline's set (the recovery's when that is
    //     empty). It goes first, unless its set holds one processor and it
    //     is that set's own continuation.
    // Each later candidate is bounded by the best makespan so far and
    // dropped once a placed task finishes after it, so the installed
    // continuation is the argmin of (makespan, preference) over the fully
    // computed ones (docs/fault_model.md).
    const std::vector<bool> base_mask = reachable(never_killed);
    const bool has_base = std::ranges::find(base_mask, true) != base_mask.end();
    const bool has_rec = !has_base || (options.give_back && any_recovery);
    const std::vector<bool> rec_mask =
        has_rec ? reachable(alive) : std::vector<bool>();
    const std::vector<bool>& floor_from = has_base ? base_mask : rec_mask;
    const bool has_floor =
        options.link_busy && std::ranges::count(floor_from, true) > 1;

    int best = -1;  // the slot holding the best continuation so far
    int best_rank = 0;
    auto consider = [&](const std::vector<bool>& mask, bool recovery,
                        int rank) {
      const int trial = best == 0 ? 1 : 0;
      const Cost bound =
          best < 0 ? kInfiniteTime : slots[best]->schedule.makespan();
      continuation(slots[trial], mask, recovery, bound);
      const Schedule& s = slots[trial]->schedule;
      if (!s.complete()) return;  // a task finished after bound
      const Cost mk = s.makespan();
      if (mk > bound || (mk == bound && rank > best_rank)) return;
      best = trial;
      best_rank = rank;
    };
    if (has_floor) {
      std::vector<bool> one(procs, false);
      one[floor_proc(floor_from)] = true;
      consider(one, !has_base, 2);
    }
    if (has_base) consider(base_mask, false, 0);
    if (has_rec) consider(rec_mask, true, 1);
    FLB_ASSERT(best >= 0);
    // The occupancy log is copied, not moved, out of the model: a copy is
    // sized exactly, where the model's log keeps its spare growth
    // capacity.
    Slot& won = *slots[best];
    out.schedule = std::move(won.schedule);
    out.used = won.used;
    out.link_occupancies = won.model.occupancies();
  } else {
    RepairStrategy strategy = options.strategy;
    if (strategy == RepairStrategy::kAuto)
      strategy = survivors >= 2 ? RepairStrategy::kFlbResume
                                : RepairStrategy::kGreedy;
    out.used = strategy;
  }
  FLB_ASSERT(out.schedule.complete());

  // Recovery accounting against the continuation's makespan: downtime the
  // episode cost, capacity the rejoins handed back, and the migrated work
  // the chosen continuation actually placed on recovered processors.
  const Cost mk = out.schedule.makespan();
  for (ProcId p = 0; p < procs; ++p) {
    out.time_degraded += resolved.downtime(p, mk);
    if (avail[p] > 0.0 && avail[p] != kInfiniteTime) {
      ++out.recovered_procs;
      out.time_recovered += std::max(0.0, mk - avail[p]);
    }
  }
  for (TaskId t = 0; t < n; ++t) {
    const Cost a = avail[out.schedule.proc(t)];
    if (!fixed[t] && a > 0.0 && a != kInfiniteTime) {
      ++out.given_back_tasks;
      out.work_given_back += work[t];
    }
  }

  // Expected durations, computed independently of the placement engine so
  // the durations-aware validator is a real cross-check.
  out.durations.resize(n);
  for (TaskId t = 0; t < n; ++t)
    out.durations[t] =
        fixed[t] ? partial.finish[t] - partial.start[t]
                 : work[t] / speeds[out.schedule.proc(t)] + extra[t];

  out.repair_millis = sw.millis();
  return out;
}

}  // namespace flb
