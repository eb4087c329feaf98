#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "flb/core/flb.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"

/// \file repair.hpp
/// Online schedule repair after fail-stop failures, slowdown faults and
/// dropped messages.
///
/// A compile-time schedule is built for P reliable processors; when the
/// machine degrades mid-execution the remaining work must be re-mapped onto
/// what is left. repair_schedule() consumes the partial execution observed
/// by the fault-injecting simulator and produces a *continuation schedule*:
/// every task of the executed past keeps its observed placement, and
/// everything else — work the dead processors lost, work queued behind a
/// throttled processor, producers of permanently dropped messages — is
/// placed on surviving processors, no earlier than the repair's release
/// instant.
///
/// Degraded-but-alive processors are treated as *related machines* (the
/// speeds of flb::platform::CostModel): a processor throttled to speed s
/// executes remaining work at comp / s, so the EST/PRT coupling of the
/// resumed FLB engine naturally drains queued work away from it. Tasks
/// killed mid-execution resume from their last durable checkpoint: only
/// the unprotected remainder is re-planned
/// (RepairResult::checkpoint_work_saved accounts the difference).
///
/// Each continuation prices against one platform::CostModel built from the
/// options (clique, or `topology` priced by hop count or link
/// reservations), the admission windows, the final speeds, and each
/// migrated task's remaining work and checkpoint-write time. Two
/// strategies consume it:
///  * kFlbResume re-runs the paper's two-candidate FLB step
///    (FlbScheduler::resume) over the survivors, seeded with the executed
///    prefix — the quality path. It runs on the caller's engine when one
///    is passed, so repeated repairs reuse its warm scratch.
///  * kGreedy appends remaining tasks in topological order, each on the
///    processor minimizing its earliest start — the graceful-degradation
///    path, used automatically when a continuation admits fewer than two
///    processors.
///
/// Data produced by tasks that finished on a dead processor is assumed to
/// be recoverable (in flight or replicated); consumers pay the normal
/// remote communication cost for it. Data lost to a *dropped message* is
/// not: by default such partial runs are refused, but with
/// DroppedDataPolicy::kReexecuteProducers the producing task — and every
/// transitive successor, whose inputs are now stale — is rolled back and
/// re-executed on a survivor. See docs/fault_model.md.
///
/// Recovery-aware give-back: when the plan rejoins killed processors,
/// repair computes two continuations — a *no-give-back baseline* over the
/// never-killed processors, and a *recovery-aware* continuation that also
/// admits each rejoined processor from its rejoin instant with cold caches
/// (re-fetch pricing on its pre-reboot data) — and keeps the one with the
/// strictly smaller makespan. The recovery continuation's EST-minimizing
/// selection is the per-task opportunistic give-back decision; keeping the
/// better of the two guarantees the result is never worse than refusing
/// the recovered capacity. With RepairOptions::topology set, communication
/// in both continuations is priced over the routed interconnect
/// (comm * hops) rather than the paper's clique; adding
/// RepairOptions::link_busy upgrades that to the store-and-forward
/// link-busy model of flb::platform::CostModel, where every placement
/// reserves its incoming routes and later transfers queue behind them —
/// a contended link can steer migrated work to a different survivor.
/// The reservations the chosen continuation committed are returned in
/// RepairResult::link_occupancies, auditable with
/// validate_link_occupancies.
///
/// Serial floor: under link-busy pricing a third candidate places the
/// whole remainder on one processor — the one of the baseline's set (the
/// recovery continuation's, when the baseline has none) that the fixed
/// prefix's outputs reach with the fewest hop-weighted bytes, the smaller
/// id on a tie. EST pricing sees when a message arrives, not how long it
/// holds its links from the transfers behind it, so on a contended
/// interconnect this floor can beat both parallel continuations. A
/// link-busy repair is never longer than its floor; on equal makespans
/// the baseline wins, then the recovery continuation, then the floor.
///
/// The floor is computed first, and each later candidate is resumed with
/// the best makespan so far as its bound (FlbScheduler::resume): it stops
/// at the first placed task that finishes after the bound and is dropped,
/// since its makespan could only be larger. No decision reads the bound,
/// so the installed continuation is exactly the best of the fully
/// computed candidates. Clique and routed repairs use the bound between
/// the baseline and the recovery continuation only.
///
/// The candidates run in two reusable slots, the best so far and the
/// trial, each holding a schedule, a cost model and its reservation log.
/// A trial copies the fixed prefix into its slot's schedule and re-arms
/// the slot's model with its availability and free links, keeping the
/// buffers the slot's last candidate grew, so a three-candidate link-busy
/// repair builds two of each instead of three. The installed reservation
/// log is copied out at its exact size.

namespace flb {

/// How the continuation schedule is computed.
enum class RepairStrategy {
  /// Per continuation: kFlbResume with >= 2 admitted processors, else
  /// kGreedy (so the serial floor is greedy).
  kAuto,
  kFlbResume,  ///< the incremental FLB step over the survivors
  kGreedy,     ///< topological min-EST append (degraded mode)
};

/// What to do when the partial run permanently dropped a message.
enum class DroppedDataPolicy {
  kRefuse,              ///< throw flb::Error (PR 1 behavior)
  kReexecuteProducers,  ///< roll back producer + transitive successors
};

/// Options for repair_schedule().
struct RepairOptions {
  RepairStrategy strategy = RepairStrategy::kAuto;
  DroppedDataPolicy dropped_data = DroppedDataPolicy::kRefuse;
  /// Repair horizon: the instant the repair is computed. Tasks that
  /// *started* at or after the horizon are re-planned even if the partial
  /// run finished them — this is how a slowdown-only episode (where nothing
  /// dies and the run limps to completion) re-balances queued work off a
  /// throttled processor: set the horizon to the slowdown onset and
  /// everything not yet started by then is up for migration. The default
  /// (kInfiniteTime) keeps every finished task fixed, the PR 1 semantics.
  Cost horizon = kInfiniteTime;
  /// Routed interconnect for the continuation's communication pricing (not
  /// owned; must outlive the call; node count must match the schedule's
  /// processor count). Null = the paper's clique.
  const Topology* topology = nullptr;
  /// Price the continuation's communication with the store-and-forward
  /// link-busy cost model (requires `topology`): placements reserve their
  /// incoming routes, so transfers crossing a contended link queue behind
  /// earlier reservations instead of overlapping for free. Also adds the
  /// one-processor serial floor to the candidates.
  bool link_busy = false;
  /// Admit processors that the plan rejoins after a reboot (keeping the
  /// better of the recovery-aware and no-give-back continuations). False
  /// restricts placement to never-killed processors — the baseline the
  /// give-back is measured against. Since give-back only adds a
  /// candidate, true never gives a longer repair.
  bool give_back = true;
  /// Suspected-dead processors (runtime/failure_detector.hpp): each one is
  /// listed as failed in `plan` — the controller believes it died and
  /// migrates its queue — but its belief may be wrong, so its in-flight
  /// work is *hedged* rather than written off. For each suspect, the first
  /// task that had started on it per `nominal` and is still unfinished at
  /// the horizon keeps its placement and start (lifted as needed to stay
  /// feasible against the fixed prefix, predecessor arrivals priced through
  /// the platform cost model) instead of migrating. If the suspect is
  /// exonerated the pinned task's progress was never lost; if the death is
  /// confirmed, a later repair (without the suspect entry) migrates it like
  /// any other unfinished task. Entries must be below the processor count.
  std::vector<ProcId> suspects;
  /// Tasks that must not be pinned on a suspect (not owned; one entry per
  /// task when set): the controller excludes tasks it has already observed
  /// killed — known-lost work is not worth hedging.
  const std::vector<char>* pin_exclude = nullptr;
  /// Processors the controller cannot currently reach (a partial network
  /// partition separates them from it) but does NOT believe dead: they are
  /// excluded from new placements — the controller could not install work
  /// on them anyway — and, because it can neither re-dispatch nor cancel
  /// what such a processor already holds, the whole not-yet-started tail
  /// of its dispatch list is pinned in place (placements and starts kept,
  /// lifted only to stay feasible), as far as every input stays within the
  /// fixed-or-pinned prefix; the first task that would need a re-planned
  /// producer ends the pin run and migrates with the rest. The queue keeps
  /// running behind the partition; on heal the reconciliation repair banks
  /// whatever finished, first-completion-wins. Unlike `suspects`, an
  /// unreachable processor is not listed as failed in `plan`: its speed,
  /// availability and fixed prefix are those of a live machine. Entries
  /// must be below the processor count, and at least one admitted
  /// processor must remain reachable. A processor listed in both
  /// `suspects` and `unreachable` follows the suspect semantics (one
  /// in-flight hedge only).
  std::vector<ProcId> unreachable;
};

/// Outcome of one repair.
struct RepairResult {
  explicit RepairResult(Schedule s) : schedule(std::move(s)) {}

  Schedule schedule;             ///< full continuation (prefix + new work)
  RepairStrategy used =
      RepairStrategy::kFlbResume;  ///< strategy actually applied
  std::size_t migrated_tasks = 0;  ///< tasks (re)placed by the repair
  ProcId survivors = 0;      ///< processors alive at the end of the episode
  ProcId degraded_procs = 0;       ///< alive processors with speed < 1
  ProcId recovered_procs = 0;  ///< processors that were killed and rejoined
  /// Migrated tasks the chosen continuation placed on recovered processors
  /// (0 when the no-give-back baseline won or nothing rejoined).
  std::size_t given_back_tasks = 0;
  Cost work_given_back = 0.0;  ///< remaining work of those tasks
  /// Summed processor-downtime (kill -> rejoin windows, an unclosed kill
  /// extending to the continuation's makespan) — capacity the episode took
  /// away.
  Cost time_degraded = 0.0;
  /// Summed (makespan - rejoin instant) over recovered processors —
  /// capacity the rejoins handed back within the continuation.
  Cost time_recovered = 0.0;
  std::size_t reexecuted_tasks = 0;  ///< finished tasks rolled back & redone
  Cost checkpoint_work_saved = 0.0;  ///< killed work resumed from checkpoints
  /// In-flight tasks kept on their suspected-dead or unreachable processor
  /// as a speculative hedge (RepairOptions::suspects / unreachable), at
  /// most one per processor.
  std::vector<TaskId> pinned_tasks;
  /// Processors excluded from new placements as unreachable-but-alive
  /// (RepairOptions::unreachable), deduplicated.
  ProcId unreachable_procs = 0;
  Cost release_time = 0.0;  ///< earliest instant migrated work may start
  double repair_millis = 0.0;  ///< wall-clock cost of computing the repair
  /// Expected wall duration per task in `schedule`, computed independently
  /// of the placement engine: the observed duration for fixed tasks, the
  /// speed-scaled checkpoint-adjusted remainder for migrated ones. Feeds
  /// the durations-aware validate_schedule overload, and doubles as
  /// SimOptions::work_override to replay the continuation (fault-free)
  /// under any network model.
  std::vector<Cost> durations;
  /// Link reservations committed by the chosen continuation under
  /// RepairOptions::link_busy (empty otherwise): one entry per hop of
  /// every remote transfer, auditable with validate_link_occupancies.
  std::vector<platform::LinkOccupancy> link_occupancies;
};

/// Build a continuation schedule for `g` after executing `nominal` under
/// `plan` produced the partial run `partial` (see simulate()). Fixed tasks
/// keep their observed placement; the rest are placed on processors the
/// (resolved) plan never kills, starting at or after the release instant —
/// the latest death time, raised to the horizon when one is given and to
/// the latest observed finish of any rolled-back task. Throws flb::Error if
/// the plan is malformed, kills every processor, or dropped messages under
/// DroppedDataPolicy::kRefuse. Resumes on a default-constructed FLB engine,
/// whose scratch is one allocation, and keeps no state between calls; a
/// caller that repairs repeatedly passes its own engine to the overload
/// below.
RepairResult repair_schedule(const TaskGraph& g, const Schedule& nominal,
                             const SimResult& partial, const FaultPlan& plan,
                             const RepairOptions& options = {});

/// As above, resuming on the caller's engine `flb` (its FlbOptions set the
/// tie-break and seed). A caller that repairs repeatedly, like the recovery
/// runtime's controller once per reaction, keeps one engine so every
/// resume after the first reuses the scratch earlier ones sized. The
/// result does not depend on what the engine ran before.
RepairResult repair_schedule(const TaskGraph& g, const Schedule& nominal,
                             const SimResult& partial, const FaultPlan& plan,
                             const RepairOptions& options, FlbScheduler& flb);

}  // namespace flb
