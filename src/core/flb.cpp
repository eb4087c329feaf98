#include "flb/core/flb.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <tuple>

#include "flb/core/scratch.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb {

namespace {

using core::ProcKey;
using core::TaskKey;

/// The per-run scheduling engine. Implements the paper's four procedures —
/// ScheduleTask, UpdateTaskLists, UpdateProcLists, UpdateReadyTasks — on top
/// of addressable heaps. The per-processor EP task lists live in two
/// DaryHeapForest instances (a task is enabled by at most one processor at a
/// time), so setup is O(V + P) and the whole run matches the paper's
/// O(V(log W + log P) + E) bound operation-for-operation.
///
/// A newly ready EP task is not filed into those heaps right away. It waits
/// on its enabling processor's unfiled list, and the list's minimum stands
/// in for it when candidate (a) is chosen. Each time that processor
/// receives a task — the only event that can demote it — the list is
/// flushed: members whose LMT fell below the new PRT go to the non-EP heap,
/// the chosen task leaves, and the rest stay on the list. Only a member
/// that survives core::kMaxUnfiledFlushes flushes is filed into the EP
/// heaps, so a task is visited at most that many times and the list work
/// stays O(V). Every list keeps the same members and the same minimum as
/// with eager filing, so every decision is unchanged.
///
/// All working state — the SoA ready-task arrays and the five heaps — lives
/// in a caller-owned core::Scratch whose arena is reset (not reallocated)
/// between runs, and the output Schedule is written in place. On the fresh
/// clique path this makes a whole run allocation-free at steady state
/// (tests/flb_alloc_test.cpp asserts it); heap keys embed the task id as the
/// final tie-break, so schedules are bit-identical to the pre-scratch engine
/// (the golden digests in tests/platform_test.cpp pin this).
class Engine {
 public:
  /// Schedule the unplaced tasks of `sched` (empty for a fresh run, a kept
  /// prefix when resuming) on the machine `model` describes, using
  /// `scratch` for all working state. Link-busy placements commit their
  /// reservations to `model`.
  Engine(const TaskGraph& g, Schedule& sched, core::Scratch& scratch,
         platform::CostModel& model, const FlbOptions& opts)
      : g_(g),
        s_(prepared(scratch, g.num_tasks(), sched.num_procs())),
        num_procs_(sched.num_procs()),
        sched_(sched),
        model_(model) {
    // Routed or cold-cache pricing makes EST destination-dependent beyond
    // the clique model, so candidate selection switches to exact pricing.
    exact_mode_ = model_.exact_pricing();
    link_busy_ = model_.mode() == platform::CommMode::kLinkBusy;
    init_tie_priorities(opts);
    init_lists();
  }

  /// Place every unplaced task, or stop at the first one that finishes
  /// after `bound`: the tasks placed until then are exactly those an
  /// unbounded run places first, since no decision reads the bound.
  void run(const FlbObserver* observer, FlbStats* stats,
           Cost bound = kInfiniteTime) {
    const TaskId remaining = g_.num_tasks() - sched_.num_scheduled();
    TaskId placed = 0;
    while (placed < remaining) {
      ++placed;
      if (schedule_one(observer) > bound) break;
    }
    FLB_ASSERT(placed < remaining || sched_.complete());
    stats_.iterations = placed;
    stats_.heap_ops = s_.non_ep.operations() + s_.emt_ep_heap.operations() +
                      s_.lmt_ep_heap.operations() +
                      s_.active_procs.operations() +
                      s_.all_procs.operations();
    if (stats) *stats = stats_;
  }

 private:
  // Re-dimension the scratch before any other member reads it (s_ is
  // initialized first, so this runs first in the init order).
  static core::Scratch& prepared(core::Scratch& s, TaskId num_tasks,
                                 ProcId num_procs) {
    s.prepare(num_tasks, num_procs);
    return s;
  }

  // The bottom-level tie-break reads the graph's stored levels in place;
  // the other two fill the scratch.
  void init_tie_priorities(const FlbOptions& opts) {
    switch (opts.tie_break) {
      case FlbTieBreak::kBottomLevel:
        tie_ = g_.bottom_levels();
        return;
      case FlbTieBreak::kTaskId:
        std::fill(s_.tie.begin(), s_.tie.end(), 0.0);
        break;
      case FlbTieBreak::kRandom: {
        Rng rng(opts.seed);
        for (Cost& v : s_.tie) v = rng.next_double();
        break;
      }
    }
    tie_ = s_.tie;
  }

  TaskKey task_key(Cost primary, TaskId t) const {
    return {primary, -tie_[t], t};
  }

  // Processor ready time as seen by the engine: never before the release
  // instant (the failure time when resuming; 0 on a fresh run), nor before
  // the processor's own admission instant (its rejoin time after a reboot).
  Cost prt(ProcId p) const {
    return std::max(sched_.proc_ready_time(p), model_.admission(p));
  }

  // Wall-time cost of running t on p: the platform model's exec pricing —
  // (possibly overridden) work scaled by p's speed, plus any additive
  // extra. Degenerates to comp(t) on a fresh run.
  Cost duration(TaskId t, ProcId p) const { return model_.exec(g_, t, p); }

  void init_lists() {
    for (TaskId t = 0; t < g_.num_tasks(); ++t) {
      // A prefix placement is kept as-is, and only a closed prefix can be
      // resumed: every task it places has all its predecessors placed.
      if (sched_.is_scheduled(t)) {
        for (const Adj& in : g_.predecessors(t))
          FLB_REQUIRE(sched_.is_scheduled(in.node),
                      "FLB resume: the prefix places task " +
                          std::to_string(t) + " but not its predecessor " +
                          std::to_string(in.node));
        s_.unscheduled_preds[t] = 0;
        continue;
      }
      std::uint32_t pending = 0;
      for (const Adj& in : g_.predecessors(t))
        if (!sched_.is_scheduled(in.node)) ++pending;
      s_.unscheduled_preds[t] = pending;
      if (pending == 0) classify_ready(t);
    }
    stats_.max_ready = std::max(stats_.max_ready, ready_count_);
    for (ProcId p = 0; p < num_procs_; ++p)
      if (model_.alive(p)) s_.all_procs.push(p, {prt(p), p});
  }

  // The paper's ScheduleTask followed by the three update procedures.
  // Returns the placed task's finish.
  Cost schedule_one(const FlbObserver* observer) {
    // Candidate (a): EP-type task with min EST on its enabling processor.
    const bool have_ep = !s_.active_procs.empty();
    ProcId p1 = kInvalidProc;
    TaskId t1 = kInvalidTask;
    Cost est1 = kInfiniteTime;
    if (have_ep) {
      p1 = static_cast<ProcId>(s_.active_procs.top());
      est1 = s_.active_procs.top_key().first;
      t1 = ep_head(p1);
      // Link reservations committed since t1 was classified may have
      // pushed its true arrival past the cached key, so under link-busy
      // pricing the candidate is re-priced against the current link state.
      if (link_busy_)
        est1 = model_.inputs_ready(g_, sched_, t1, p1, prt(p1));
    }

    // Candidate (b): non-EP task with min LMT on the earliest-idle
    // processor. By Corollary 2, EST = max(LMT, PRT) — exact on the clique.
    // Under routed or cold-cache pricing that corollary no longer holds
    // (EST depends on where each message travels from), so exact mode scans
    // every alive processor for the true minimum EST of the head task.
    const bool have_non_ep = !s_.non_ep.empty();
    ProcId p2 = kInvalidProc;
    TaskId t2 = kInvalidTask;
    Cost est2 = kInfiniteTime;
    if (have_non_ep) {
      t2 = static_cast<TaskId>(s_.non_ep.top());
      if (exact_mode_) {
        std::tie(p2, est2) = model_.min_est(g_, sched_, t2, s_.proc_est,
                                            s_.proc_arrival);
      } else {
        p2 = static_cast<ProcId>(s_.all_procs.top());
        est2 = std::max(s_.lmt[t2], prt(p2));
      }
    }

    FLB_ASSERT(have_ep || have_non_ep);

    // Strict '<': on a tie the non-EP pair is preferred because its
    // communication already overlaps earlier computation (paper Sec. 4.1).
    const bool choose_ep = have_ep && (!have_non_ep || est1 < est2);
    const TaskId t = choose_ep ? t1 : t2;
    const ProcId p = choose_ep ? p1 : p2;
    const Cost est = choose_ep ? est1 : est2;

    if (observer) notify(*observer, t, p, est, choose_ep);

    // Under link-busy pricing, claim the chosen task's incoming routes so
    // later transfers queue behind them. The commit reserves the inputs one
    // after another, so inputs whose routes share a link serialize and the
    // start may be later than the EST the pair was selected on.
    const Cost start =
        link_busy_ ? model_.commit_inputs(g_, sched_, t, p, prt(p)) : est;
    const Cost finish = start + duration(t, p);
    sched_.assign(t, p, start, finish);
    --ready_count_;
    if (choose_ep) {
      ++stats_.ep_selections;
      // A filed task leaves both EP heaps; an unfiled one leaves with the
      // flush of p's list in update_task_lists. p's active key is
      // refreshed by update_proc_lists.
      if (s_.emt_ep_heap.contains(t)) {
        s_.emt_ep_heap.erase(t);
        s_.lmt_ep_heap.erase(t);
      }
    } else {
      ++stats_.non_ep_selections;
      s_.non_ep.erase(t);
    }

    update_task_lists(p, t);
    update_proc_lists(p);
    update_ready_tasks(t);
    stats_.max_ready = std::max(stats_.max_ready, ready_count_);
    return finish;
  }

  // PRT(p) just grew when p received `placed`: EP tasks enabled by p whose
  // LMT fell below PRT(p) no longer satisfy the EP condition and move to the
  // non-EP list. Filed tasks are tested in ascending LMT order, so that scan
  // stops at the first survivor. Then p's unfiled list is flushed: `placed`
  // (if it was unfiled) leaves, each other member is demoted, filed into
  // both EP heaps at its kMaxUnfiledFlushes-th survived flush, or kept, and
  // the list minimum is recomputed over the kept members.
  void update_task_lists(ProcId p, TaskId placed) {
    const Cost ready = prt(p);
    while (!s_.lmt_ep_heap.empty(p)) {
      TaskId t = static_cast<TaskId>(s_.lmt_ep_heap.top(p));
      if (s_.lmt[t] >= ready) break;
      s_.lmt_ep_heap.pop(p);
      s_.emt_ep_heap.erase(t);
      demote(t);
    }
    TaskId tail = kInvalidTask;
    TaskId min = kInvalidTask;
    TaskId t = s_.unfiled_head[p];
    s_.unfiled_head[p] = kInvalidTask;
    while (t != kInvalidTask) {
      const TaskId next = s_.unfiled_next[t];
      ++stats_.unfiled_visits;
      if (t == placed) {
        // Placed on p this step: it leaves the list.
      } else if (s_.lmt[t] < ready) {
        demote(t);
      } else if (++s_.unfiled_flushes[t] == core::kMaxUnfiledFlushes) {
        s_.emt_ep_heap.push(p, t, emt_key_of(t));
        s_.lmt_ep_heap.push(p, t, task_key(s_.lmt[t], t));
        ++stats_.ep_filed;
      } else {
        if (tail == kInvalidTask) {
          s_.unfiled_head[p] = t;
        } else {
          s_.unfiled_next[tail] = t;
        }
        tail = t;
        if (min == kInvalidTask || emt_key_of(t) < emt_key_of(min)) min = t;
      }
      t = next;
    }
    if (tail != kInvalidTask) s_.unfiled_next[tail] = kInvalidTask;
    s_.unfiled_tail[p] = tail;
    s_.unfiled_min[p] = min;
  }

  void demote(TaskId t) {
    non_ep_push(t, s_.lmt[t]);
    ++stats_.ep_demotions;
  }

  // Refresh p's priorities: in the global processor list (keyed by PRT) and
  // in the active processor list. p's unfiled list may still hold members
  // after its flush, so its EP head is ep_head(p).
  void update_proc_lists(ProcId p) {
    s_.all_procs.push_or_update(p, {prt(p), p});
    if (s_.emt_ep_heap.empty(p) && s_.unfiled_head[p] == kInvalidTask) {
      if (s_.active_procs.contains(p)) s_.active_procs.erase(p);
    } else {
      set_active_priority(p, ep_head(p));
    }
  }

  // Key p in the active processor list by the min EST of the EP tasks it
  // enables — max(EMT of its head task, PRT), computed in O(1). An
  // unchanged key is left alone.
  void set_active_priority(ProcId p, TaskId head) {
    const ProcKey key{std::max(s_.emt_ep[head], prt(p)), p};
    if (s_.active_procs.contains(p) && s_.active_procs.key_of(p) == key)
      return;
    s_.active_procs.push_or_update(p, key);
  }

  TaskKey emt_key_of(TaskId t) const { return task_key(s_.emt_ep[t], t); }

  // The EP task enabled by q with the least EMT key: the EMT heap's head or
  // the unfiled list's minimum, whichever is smaller. q must enable one.
  TaskId ep_head(ProcId q) const {
    const TaskId unfiled = s_.unfiled_min[q];
    if (s_.emt_ep_heap.empty(q)) return unfiled;
    if (unfiled != kInvalidTask &&
        emt_key_of(unfiled) < s_.emt_ep_heap.top_key(q))
      return unfiled;
    return static_cast<TaskId>(s_.emt_ep_heap.top(q));
  }

  // Successors of the just-scheduled task that became ready are classified
  // EP / non-EP and enqueued. LMT, EP and EMT(·, EP) are computed here by
  // one predecessor scan per task — O(E) in total over the whole run.
  void update_ready_tasks(TaskId scheduled) {
    for (const Adj& out : g_.successors(scheduled)) {
      TaskId t = out.node;
      FLB_ASSERT(s_.unscheduled_preds[t] > 0);
      if (--s_.unscheduled_preds[t] != 0) continue;
      classify_ready(t);
    }
  }

  // Classify one newly ready task as EP / non-EP and enqueue it. Entry
  // tasks have no enabling processor (LMT = 0, always non-EP); a task whose
  // enabling processor is dead (resume after a failure) is likewise filed
  // non-EP keyed by LMT — starting at LMT is feasible on every processor
  // because LMT already pays full communication for all predecessors.
  void classify_ready(TaskId t) {
    Cost lmt = 0.0;
    ProcId ep = kInvalidProc;
    for (const Adj& in : g_.predecessors(t)) {
      Cost arrival = sched_.finish(in.node) + in.comm;
      if (arrival > lmt || ep == kInvalidProc) {
        lmt = arrival;
        ep = sched_.proc(in.node);
      }
    }
    ++ready_count_;
    if (ep == kInvalidProc || !model_.alive(ep)) {
      s_.lmt[t] = lmt;
      s_.emt_ep[t] = lmt;
      non_ep_push(t, lmt);
      return;
    }
    // EMT on the enabling processor: the platform model's inputs-ready
    // instant there, over cold-aware arrivals. Local predecessor outputs
    // arrive at their finish time and still participate in the max,
    // matching the paper's worked example (Table 1); this never changes
    // EST = max(EMT, PRT) — a warm local predecessor's FT is always <= PRT
    // — but it fixes the EMT list order the paper uses. In exact mode the
    // same call prices routed hop counts, link reservations and cold-cache
    // re-fetches (every predecessor is placed by now, so this is the task's
    // exact ready instant on ep under the current link state).
    const Cost emt = model_.inputs_ready(g_, sched_, t, ep, 0.0);
    s_.lmt[t] = lmt;
    s_.emt_ep[t] = emt;

    if (lmt < prt(ep)) {
      non_ep_push(t, lmt);
      return;
    }
    ++stats_.tasks_classified_ep;
    // EP: append t to ep's unfiled list. Only a new head of ep's EP tasks
    // can move ep's active key.
    s_.unfiled_next[t] = kInvalidTask;
    s_.unfiled_flushes[t] = 0;
    if (s_.unfiled_tail[ep] == kInvalidTask) {
      s_.unfiled_head[ep] = t;
    } else {
      s_.unfiled_next[s_.unfiled_tail[ep]] = t;
    }
    s_.unfiled_tail[ep] = t;
    const TaskKey key = emt_key_of(t);
    const TaskId min = s_.unfiled_min[ep];
    if (min != kInvalidTask && !(key < emt_key_of(min))) return;
    s_.unfiled_min[ep] = t;
    if (!s_.emt_ep_heap.empty(ep) && s_.emt_ep_heap.top_key(ep) < key) return;
    set_active_priority(ep, t);
  }

  void non_ep_push(TaskId t, Cost lmt) {
    s_.non_ep.push(t, task_key(lmt, t));
  }

  // Build the observer snapshot (only on instrumented runs).
  void notify(const FlbObserver& observer, TaskId t, ProcId p, Cost est,
              bool ep_type) {
    FlbStep step;
    step.task = t;
    step.proc = p;
    step.est = est;
    step.ep_type = ep_type;
    step.ep_lists.resize(num_procs_);
    for (ProcId q = 0; q < num_procs_; ++q) {
      std::vector<TaskId>& list = step.ep_lists[q];
      for (std::size_t id : s_.emt_ep_heap.items(q))
        list.push_back(static_cast<TaskId>(id));
      for (TaskId u = s_.unfiled_head[q]; u != kInvalidTask;
           u = s_.unfiled_next[u])
        list.push_back(u);
      std::sort(list.begin(), list.end(), [&](TaskId a, TaskId b) {
        return emt_key_of(a) < emt_key_of(b);
      });
      step.ready_tasks.insert(step.ready_tasks.end(), list.begin(),
                              list.end());
    }
    for (std::size_t id : s_.non_ep.items())
      step.non_ep_list.push_back(static_cast<TaskId>(id));
    std::sort(step.non_ep_list.begin(), step.non_ep_list.end(),
              [&](TaskId a, TaskId b) {
                return s_.non_ep.key_of(a) < s_.non_ep.key_of(b);
              });
    step.ready_tasks.insert(step.ready_tasks.end(), step.non_ep_list.begin(),
                            step.non_ep_list.end());
    std::sort(step.ready_tasks.begin(), step.ready_tasks.end());
    observer(sched_, step);
  }

  const TaskGraph& g_;
  core::Scratch& s_;           // all working state, arena-backed
  ProcId num_procs_;
  Schedule& sched_;            // written in place
  platform::CostModel& model_;  // the machine: comm, exec, availability
  std::span<const Cost> tie_;   // tie-break priority per task
  bool exact_mode_ = false;
  bool link_busy_ = false;
  FlbStats stats_;
  std::size_t ready_count_ = 0;
};

}  // namespace

Schedule FlbScheduler::run(const TaskGraph& g, ProcId num_procs) {
  return run_instrumented(g, num_procs, nullptr, nullptr);
}

void FlbScheduler::run_into(const TaskGraph& g, ProcId num_procs,
                            Schedule& out) {
  FLB_REQUIRE(num_procs >= 1, "FLB: at least one processor required");
  out.reset(num_procs, g.num_tasks());
  // The paper's machine. A fresh clique model holds only empty vectors, so
  // with a warmed scratch and a capacity-retaining `out` this whole call
  // performs zero heap allocations at steady state.
  platform::CostModel model = platform::CostModel::clique(num_procs);
  Engine engine(g, out, scratch_, model, options_);
  engine.run(nullptr, nullptr);
}

Schedule FlbScheduler::run_instrumented(const TaskGraph& g, ProcId num_procs,
                                        const FlbObserver* observer,
                                        FlbStats* stats) {
  FLB_REQUIRE(num_procs >= 1, "FLB: at least one processor required");
  Schedule out(num_procs, g.num_tasks());
  platform::CostModel model = platform::CostModel::clique(num_procs);
  Engine engine(g, out, scratch_, model, options_);
  engine.run(observer, stats);
  return out;
}

Schedule FlbScheduler::resume(const TaskGraph& g, Schedule prefix,
                              platform::CostModel& model, FlbStats* stats,
                              Cost bound) {
  FLB_REQUIRE(prefix.num_tasks() == g.num_tasks(),
              "FLB resume: prefix was sized for a different graph");
  FLB_REQUIRE(model.num_procs() == prefix.num_procs(),
              "FLB resume: the model's processor count must match the "
              "prefix's");
  for (ProcId p = 0; p < model.num_procs(); ++p)
    FLB_REQUIRE(model.speed(p) <= 1.0,
                "FLB resume: speed factors must be in (0, 1]");
  model.validate(g);
  FLB_REQUIRE(!std::isnan(bound), "FLB resume: the bound must not be NaN");
  Engine engine(g, prefix, scratch_, model, options_);
  engine.run(nullptr, stats, bound);
  return prefix;
}

}  // namespace flb
