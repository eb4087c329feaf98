#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flb/core/scratch.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sched/scheduler.hpp"

/// \file flb.hpp
/// FLB — Fast Load Balancing (Rădulescu & van Gemund, ICPP'99), the paper's
/// contribution. A one-step list scheduler that, at every iteration,
/// schedules the ready task that can start the earliest (ETF's criterion)
/// but finds that task/processor pair in O(log W + log P) rather than
/// O(W P), for a total complexity of O(V (log W + log P) + E).
///
/// The key structure (paper Section 4): a ready task t is *EP-type* iff
/// LMT(t) >= PRT(EP(t)) — it starts earliest on its enabling processor —
/// and *non-EP-type* otherwise, in which case it starts earliest on the
/// processor that becomes idle first (Corollary 2). Theorem 3 shows the
/// globally earliest-starting pair is always one of just two candidates:
///
///   (a) the EP-type task with minimum EST(t, EP(t)) on its enabling
///       processor — found via a per-processor heap of enabled EP tasks
///       keyed by EMT (plus a list of those not yet filed there, flushed
///       each time the processor receives a task) and a heap of *active*
///       processors keyed by min EST;
///   (b) the non-EP-type task with minimum LMT on the processor that
///       becomes idle the earliest — found via a global non-EP task heap
///       keyed by LMT and a global processor heap keyed by PRT.
///
/// On an EST tie the non-EP pair is preferred (its communication is already
/// overlapped with earlier computation). Ties inside every task list break
/// toward the larger bottom level (longest path to an exit), then task id.

namespace flb {

namespace platform {
class CostModel;  // platform/cost_model.hpp — the machine resume() prices
}  // namespace platform

/// Tie-breaking rule used inside FLB's task lists when two tasks share the
/// same primary key (EMT or LMT). The paper uses the bottom level; the
/// alternatives exist for the tie-break ablation study (bench_ablation_tiebreak).
enum class FlbTieBreak {
  kBottomLevel,  ///< larger bottom level first (the paper's rule)
  kTaskId,       ///< smaller task id first (FIFO-like, deterministic)
  kRandom,       ///< random priority drawn per task from the seed
};

/// Options for FlbScheduler.
struct FlbOptions {
  FlbTieBreak tie_break = FlbTieBreak::kBottomLevel;
  std::uint64_t seed = 1;  ///< used only by FlbTieBreak::kRandom
};

/// Counters describing one FLB run; used by tests and the complexity bench.
struct FlbStats {
  /// Scheduling steps, one per placed task: V on a fresh run; on a resume
  /// the prefix's unplaced tasks, or fewer when its bound stopped it.
  std::size_t iterations = 0;
  std::size_t ep_selections = 0;       ///< steps that chose the EP pair
  std::size_t non_ep_selections = 0;   ///< steps that chose the non-EP pair
  std::size_t ep_demotions = 0;        ///< EP tasks re-classified as non-EP
  std::size_t tasks_classified_ep = 0; ///< ready tasks first classified EP
  /// EP tasks filed into the EP heaps: those that survived
  /// core::kMaxUnfiledFlushes flushes on their unfiled list.
  std::size_t ep_filed = 0;
  /// Unfiled-list members visited at flushes: at most
  /// core::kMaxUnfiledFlushes per task classified EP.
  std::size_t unfiled_visits = 0;
  std::size_t max_ready = 0;           ///< peak ready-set size (<= width W)
  /// push, pop, erase and update calls on the engine's five heaps,
  /// set-up included: the per-step heap traffic behind the
  /// O(log W + log P) step cost.
  std::size_t heap_ops = 0;
};

/// Everything an observer sees about one scheduling decision, captured
/// *before* the task is placed. Drives the Table 1 execution trace and the
/// Theorem 3 oracle tests. Snapshots are only materialized when an observer
/// is attached; observer-free runs pay nothing.
struct FlbStep {
  TaskId task = kInvalidTask;   ///< the task being scheduled
  ProcId proc = kInvalidProc;   ///< its processor
  Cost est = 0.0;               ///< its start time
  bool ep_type = false;         ///< whether the chosen pair was the EP pair
  std::vector<TaskId> ready_tasks;              ///< the full ready set
  std::vector<std::vector<TaskId>> ep_lists;    ///< per-proc EP tasks, EMT order
  std::vector<TaskId> non_ep_list;              ///< non-EP tasks, LMT order
};

/// Observer invoked once per iteration with the partial schedule as it was
/// before the step's assignment.
using FlbObserver = std::function<void(const Schedule&, const FlbStep&)>;

/// The FLB scheduler. Carries a reusable, arena-backed core::Scratch that
/// is reset — not reallocated — between runs, so repeated scheduling
/// through one FlbScheduler instance is allocation-free at steady state
/// (the batch-serving layer in flb::serve gives each worker thread its
/// own instance). A single instance is not thread-safe across concurrent
/// run calls for exactly this reason.
class FlbScheduler final : public Scheduler {
 public:
  explicit FlbScheduler(FlbOptions options = {}) : options_(options) {}

  // Copies share only the options: each copy warms up its own scratch.
  FlbScheduler(const FlbScheduler& other) : options_(other.options_) {}
  FlbScheduler& operator=(const FlbScheduler& other) {
    options_ = other.options_;
    return *this;
  }
  FlbScheduler(FlbScheduler&&) noexcept = default;
  FlbScheduler& operator=(FlbScheduler&&) noexcept = default;

  [[nodiscard]] std::string name() const override { return "FLB"; }

  [[nodiscard]] Schedule run(const TaskGraph& g, ProcId num_procs) override;

  /// As run(), but writing into `out` (re-dimensioned with capacity kept)
  /// instead of returning a new Schedule. With a warmed scratch and a
  /// capacity-retaining `out`, this is the zero-allocation serving path:
  /// no heap traffic for any request no larger than the largest one seen.
  void run_into(const TaskGraph& g, ProcId num_procs, Schedule& out);

  /// As run(), but invokes `observer` each iteration and fills `stats`
  /// (either may be null).
  [[nodiscard]] Schedule run_instrumented(const TaskGraph& g,
                                          ProcId num_procs,
                                          const FlbObserver* observer,
                                          FlbStats* stats);

  /// The incremental FLB step, exposed for online schedule repair: continue
  /// from a partial schedule on the machine `model` describes. Every task
  /// already placed in `prefix` is kept verbatim (it models the executed
  /// past, so its times may come from an observed run rather than this
  /// scheduler); the remaining tasks are placed by the same two-candidate
  /// rule as run(), priced entirely through the model:
  ///  * availability — only alive processors receive work, none before its
  ///    admission instant (the release, or a rejoin time), and a task
  ///    re-fetches a local input that predates its processor's reboot. A
  ///    ready task whose enabling processor is dead is classified non-EP:
  ///    it pays full communication wherever it lands, which keeps every
  ///    placement feasible;
  ///  * execution — speeds, work overrides and extra time stretch finish
  ///    times only (a task's EST does not depend on its own duration), which
  ///    is how the related-machines EST/PRT coupling drains work away from
  ///    slow processors;
  ///  * communication — routed, link-busy or cold-cache pricing makes EST
  ///    destination-dependent, so the non-EP candidate is priced on every
  ///    alive processor (O(P * indeg) per step, acceptable on the repair
  ///    path). Under link-busy pricing both candidates are re-priced
  ///    against the current reservations every step and the chosen task's
  ///    incoming transfers are committed to the model, so a congested
  ///    route steers placement; the reservations stay in `model`
  ///    (model.occupancies() is the run's commit log).
  ///
  /// `prefix` is taken by value and completed in place: pass an rvalue to
  /// resume without copying it.
  ///
  /// A finite `bound` abandons a resume that cannot finish by it: the run
  /// stops right after the first placed task that finishes after `bound`
  /// and returns the schedule as it stands (complete() is false). No
  /// decision reads the bound, so every task it placed has the processor,
  /// start and finish an unbounded resume gives it, and the model's
  /// occupancy log is a prefix of the unbounded one. A repair passes the
  /// makespan of the best continuation so far.
  /// Fills `stats` when it is not null. Throws flb::Error unless `prefix`
  /// is sized for `g` and for the model's processor count, places no task
  /// without all its predecessors, every speed is at most 1, the model
  /// fits `g` (CostModel::validate) and `bound` is not NaN.
  [[nodiscard]] Schedule resume(const TaskGraph& g, Schedule prefix,
                                platform::CostModel& model,
                                FlbStats* stats = nullptr,
                                Cost bound = kInfiniteTime);

 private:
  FlbOptions options_;
  core::Scratch scratch_;  ///< reusable per-run state; see core/scratch.hpp
};

}  // namespace flb
