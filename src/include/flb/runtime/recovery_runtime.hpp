#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/runtime/failure_detector.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/util/fnv1a.hpp"

/// \file recovery_runtime.hpp
/// Online, event-driven recovery: closed-loop repair with no fault oracle.
///
/// repair_schedule() (sched/repair.hpp) consumes the *entire* FaultPlan up
/// front — an oracle no real distributed-memory machine has. This module
/// closes the loop the way a real runtime would: the fault-injecting
/// simulator executes the current schedule and emits an observable event
/// stream (SimOptions::event_log); the controller reacts to each observed
/// event by repairing at a horizon truncated to observed history, installs
/// the continuation, and resumes execution — re-repairing on every
/// subsequent event, including opportunistic give-back when a rejoin is
/// observed.
///
/// **The no-future-knowledge guarantee.** All fault information reaches the
/// controller through HorizonFaultView, which is built exclusively from
/// SimEvents whose timestamps lie at or before the current observation
/// horizon. The view's plan() contains only observed failures, rejoins and
/// slowdowns; an active slowdown whose end has not been observed is treated
/// as permanent (until = kInfiniteTime), and a killed processor is treated
/// as dead until its rejoin is observed — give-back therefore emerges
/// naturally at the rejoin event instead of being scheduled in advance.
/// The scalar configuration (seed, checkpoint policy, message-fault model,
/// runtime spread) is copied from the world plan: those describe the
/// machine's *configuration*, which a runtime legitimately knows, not the
/// timing of future faults. The partial execution handed to each repair is
/// likewise horizon-sliced: a task still in flight at the horizon is
/// re-planned, because its eventual finish is not yet observable. A test
/// poisons every plan entry beyond the horizon and asserts bit-identical
/// repairs.
///
/// **Policy knobs** (RuntimeOptions) make the controller robust rather
/// than naive:
///  * *Debounce*: events within `debounce` of the batch's first unobserved
///    event are coalesced into one repair, so a correlated-domain cascade
///    triggers one repair, not one per strike — no repair storms. The
///    repair horizon is the end of the debounce window (the controller
///    waited that long to see the burst settle).
///  * *Bounded retry with exponential backoff* (fixed, not an option):
///    when a processor that just received migrated work fails again
///    mid-recovery, the next repair's release is pushed back by
///    2^(attempt-1) time units; past three such re-strikes the controller
///    stops trusting the optimizing engine and degrades permanently to the
///    greedy fallback.
///  * *Graceful degradation*: whenever fewer than two processors are
///    observed alive, the repair uses the greedy topological min-EST
///    fallback instead of the resumed FLB engine.
///
/// **One loop, three liveness sources.** The same controller loop runs in
/// every mode; only the source of remote-liveness knowledge changes: the
/// simulator's own failure, rejoin and link events (the oracle default),
/// observer 0's FailureDetector belief stream (use_detector), or the
/// gossip quorum aggregate with observer 0's stream as a reachability view
/// (use_gossip). Without a belief stream the loop reduces to reacting on
/// observed events alone.
///
/// Every continuation emitted inside the loop is checked by the linter's
/// feasibility tier, which runs the durations-aware validator, before it
/// is installed. The whole loop is a pure function of (graph, schedule,
/// world plan, options): two runs produce bit-identical event logs,
/// repairs and final schedules — the digests in RuntimeResult exist to
/// diff exactly that.

namespace flb::runtime {

/// Everything the controller may know about faults at a given observation
/// horizon: a FaultPlan reconstructed purely from observed SimEvents plus
/// the machine's scalar configuration. The view can only grow — advance()
/// raises the horizon, observe() adds events at or before it.
class HorizonFaultView {
 public:
  /// Copies only the configuration scalars of `world` (seed, checkpoint,
  /// message model, runtime spread); no failure, rejoin, slowdown, domain
  /// or burst entry is taken. `num_procs` sizes the liveness tracking.
  HorizonFaultView(const FaultPlan& world, ProcId num_procs);

  /// Raise the observation horizon (monotone; lowering throws).
  void advance(Cost horizon);

  /// Fold one observed event into the view. Throws if the event lies
  /// beyond the horizon — that would be future knowledge. Machine-level
  /// events extend the plan (an observed slowdown stays active until its
  /// end event is observed; an observed failure keeps the processor dead
  /// until its rejoin is observed); execution-level events (task kills,
  /// message drops) only mark the key as seen — the horizon-sliced
  /// SimResult carries their payload. Re-observing a key is a no-op.
  void observe(const SimEvent& event);

  /// True iff `event` has already been observed. A kMessageDropped event is
  /// considered observed once *any* drop of its (producer, consumer) pair
  /// has been — re-simulating a continuation shifts the producer's finish
  /// and with it the drop's timestamp, but a deterministic message fate
  /// makes it the same loss; keying drops by edge keeps the observation
  /// space finite and the controller loop convergent.
  [[nodiscard]] bool observed(const SimEvent& event) const;

  [[nodiscard]] Cost horizon() const { return horizon_; }

  /// The observed-history fault plan: passes FaultPlan::validate and feeds
  /// repair_schedule directly.
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Processors not currently observed dead (failure seen, rejoin not).
  [[nodiscard]] ProcId observed_alive() const;

  /// True iff `p` is currently observed dead (failure seen, rejoin not).
  [[nodiscard]] bool observed_dead(ProcId p) const { return dead_[p] != 0; }

  /// Number of distinct events observed so far.
  [[nodiscard]] std::size_t observed_events() const { return seen_.size(); }

 private:
  FaultPlan plan_;
  ProcId num_procs_;
  Cost horizon_ = 0.0;
  std::vector<char> dead_;
  std::set<std::tuple<Cost, int, ProcId, TaskId, TaskId, ProcId>> seen_;
  std::set<std::pair<TaskId, TaskId>> dropped_;
};

/// Policy knobs of the online controller.
struct RuntimeOptions {
  /// Coalescing window: a repair batch spans [t0, t0 + debounce] where t0
  /// is the earliest unobserved event; the repair horizon is the window's
  /// end. 0 still coalesces events at the same instant.
  Cost debounce = 0.0;
  /// Check every continuation with the linter's feasibility tier, which
  /// runs the durations-aware validator, before installing it (throws on
  /// failure).
  bool validate = true;

  /// Unreliable-detector mode (requires world.heartbeat.enabled()): the
  /// controller no longer sees the simulator's raw liveness events —
  /// kFailure and kRejoin become invisible, and remote liveness is inferred
  /// from the FailureDetector's belief stream instead, false positives and
  /// all. Slowdowns, permanent message drops and task-kill telemetry stay
  /// directly observable (local throttling counters, sender timeouts, and
  /// durable-store lease expiry respectively — none of them require knowing
  /// whether a *remote processor* is alive).
  bool use_detector = false;
  /// With use_detector: react to kSuspected by launching a speculative
  /// continuation — the suspect's unfinished queue re-executes elsewhere
  /// while its first in-flight task stays pinned in place
  /// (RepairOptions::suspects). kConfirmedDead promotes the speculation
  /// (the next repair simply drops the pin); kExonerated cancels it and
  /// reconciles first-completion-wins, with the duplicate work priced into
  /// RuntimeResult::speculative_waste. False waits for kConfirmedDead
  /// before migrating anything — the confirm-then-repair baseline.
  bool speculate = true;
  /// With use_detector: re-derive the checkpoint interval each reaction
  /// from the Young/Daly first-order optimum sqrt(2·overhead/λ̂), where λ̂
  /// is a windowed per-processor MLE over confirmed kills. The adapted
  /// interval applies to the tasks each repair re-plans (via
  /// SimOptions::checkpoint_interval), still gated by min_downstream.
  /// Requires world.checkpoint.enabled() to have any effect.
  bool adapt_checkpoint = false;
  /// Lookback window of the failure-rate estimator (time units); the MLE
  /// counts confirmed kills within [horizon - window, horizon]. Infinite =
  /// the whole observed history.
  Cost failure_rate_window = kInfiniteTime;

  /// With use_detector: replace the single-observer belief stream by the
  /// gossip/indirect-suspicion aggregate (FailureDetector::quorum_beliefs)
  /// — a processor is believed dead cluster-wide only while at least
  /// `quorum` observers with a live direct link to it concur. The
  /// controller additionally tracks its own (observer-0) view: a processor
  /// it suspects locally while the cluster still trusts it is *unreachable,
  /// not dead* — excluded from new placements via
  /// RepairOptions::unreachable, its in-flight work pinned in place, and
  /// reconciled (give-back of its queue) when the local exoneration
  /// signals the partition healed. Off = the legacy observer-0 loop,
  /// digest-identical to PR 7.
  bool use_gossip = false;
  /// Concurring-observer threshold of the gossip aggregate (>= 1).
  ProcId quorum = 2;

  /// With use_detector: self-tune the effective suspect threshold from the
  /// observed false-alarm rate. The controller keeps a multiplier `scale`
  /// (>= 1) on heartbeat.suspect_after: every exoneration of a suspect (a
  /// false alarm) multiplies it by 1.5, capped strictly below the confirm
  /// threshold; once no false alarm has been seen for `tune_window`, it
  /// decays back toward 1, one division by 1.5 per reaction. A raw
  /// suspicion whose subject is exonerated before last_heard + scale *
  /// suspect_after * period is *suppressed* — the raised threshold would
  /// have outlasted the silence — and never triggers a reaction.
  /// RuntimeResult::suspect_trace records the trajectory.
  bool self_tune = false;
  /// Quiet time after which the raised threshold starts decaying.
  Cost tune_window = kInfiniteTime;
};

/// One reaction of the controller to a batch of observed events.
struct RepairInvocation {
  Cost observed_at = 0.0;   ///< timestamp of the batch's first new event
  Cost horizon = 0.0;       ///< release horizon the repair ran at
  std::size_t events = 0;   ///< events coalesced into this invocation
  RepairStrategy used = RepairStrategy::kFlbResume;
  ProcId survivors = 0;        ///< processors observed alive at the repair
  std::size_t migrated = 0;    ///< tasks (re)placed by the repair
  std::size_t reexecuted = 0;  ///< finished tasks rolled back (dropped data)
  Cost makespan = 0.0;         ///< the continuation's planned makespan
  /// > 0 when this repair was pushed back by the bounded-retry backoff
  /// (the value is the attempt number).
  std::size_t retry_attempt = 0;
  /// True when every processor was observed dead: no repair is possible,
  /// the controller waits for the next event (a rejoin) instead.
  bool deferred = false;
  /// schedule_digest (sched/schedule.hpp) of the continuation (0 when
  /// deferred) — the unit of the determinism and poisoned-future
  /// comparisons.
  std::uint64_t schedule_digest = 0;
  /// Detector mode: processors suspected but unconfirmed at this reaction.
  ProcId suspects = 0;
  /// Detector mode: this reaction launched a speculative continuation (a
  /// new suspicion entered the batch and speculation is enabled).
  bool speculative = false;
  /// Detector mode: a confirmation promoted an active speculation — the
  /// suspect's pin is dropped and its work migrates for good.
  bool promoted = false;
  /// Detector mode: an exoneration cancelled an active speculation; the
  /// duplicate work it burned is in RuntimeResult::speculative_waste.
  bool cancelled = false;
  /// Adaptive checkpointing: interval installed for the tasks this repair
  /// re-planned (0 = the plan's own interval, i.e. no estimate yet).
  Cost checkpoint_interval = 0.0;
  /// The windowed failure-rate MLE behind it (per processor per time unit).
  double failure_rate = 0.0;
  /// Processors excluded from new placements as unreachable-but-alive at
  /// this reaction (partition-aware repair): cut off from p0 by the
  /// observed link outages, or — gossip mode — suspected by observer 0
  /// while the cluster still trusts them.
  ProcId unreachable = 0;
  /// Self-tuning: the suspect-threshold multiplier in effect at this
  /// reaction (1 when self-tuning is off).
  double suspect_scale = 1.0;
  /// Provenance: the simulator events this reaction coalesced (the
  /// debounced batch). Machine-level entries also appear in the final
  /// event log; execution-level entries (kills, drops) come from the
  /// intermediate continuation that observed them and may not.
  std::vector<SimEvent> batch;
  /// Provenance: the belief events this reaction coalesced (detector
  /// mode; empty otherwise). `events` counts both vectors together.
  std::vector<BeliefEvent> batch_beliefs;
};

/// Outcome of one online recovery episode.
struct RuntimeResult {
  explicit RuntimeResult(Schedule s) : schedule(std::move(s)) {}

  Schedule schedule;            ///< final installed continuation
  /// Expected wall duration per task of the final continuation (the last
  /// repair's durations); empty when no repair was ever needed. Doubles as
  /// SimOptions::work_override for replays.
  std::vector<Cost> durations;
  SimResult execution;          ///< final simulated execution (world plan)
  std::vector<SimEvent> events; ///< full event log of the final execution
  std::vector<RepairInvocation> repairs;  ///< one entry per reaction
  std::size_t events_observed = 0;  ///< distinct events the view consumed
  bool degraded = false;  ///< the greedy fallback was engaged at least once
  Cost makespan = 0.0;    ///< executed makespan of the final continuation
  bool complete = false;  ///< every task ran to completion
  std::uint64_t event_digest = 0;     ///< FNV-1a over the rendered event log
  /// schedule_digest of the final schedule: the last installed repair's
  /// digest, or the nominal schedule's when no repair installed.
  std::uint64_t schedule_digest = 0;
  /// Detector mode: every belief the controller consumed, in consumption
  /// order (empty without use_detector).
  std::vector<BeliefEvent> beliefs;
  /// FNV-1a over belief_log_text(beliefs) — the belief-stream determinism
  /// digest (0 without use_detector).
  std::uint64_t belief_digest = 0;
  /// Suspicions exonerated before confirmation — the detector cried wolf.
  std::size_t false_alarms = 0;
  /// kConfirmedDead beliefs consumed (includes wrong confirmations later
  /// exonerated).
  std::size_t confirmations = 0;
  /// Wall time + communication the cancelled speculations burned on
  /// duplicate placements that had already started when their suspect was
  /// exonerated (each remote input at its edge cost; first-completion-wins
  /// keeps whatever finished, this is the bill for the rest).
  Cost speculative_waste = 0.0;
  /// Duplicate placements counted into speculative_waste.
  std::size_t speculative_tasks = 0;
  /// Mean (first confirmation − true death time) over real deaths the
  /// detector confirmed; 0 when none. Reporting only — computed against
  /// the resolved world after the episode, never used for control.
  Cost mean_detection_latency = 0.0;
  /// Self-tuning trajectory: (time, effective suspect threshold in periods)
  /// at every change — each false alarm raises it, each quiet-window decay
  /// lowers it (empty without RuntimeOptions::self_tune).
  std::vector<std::pair<Cost, double>> suspect_trace;
  /// Raw suspicions the self-tuned threshold suppressed before they could
  /// trigger a reaction (0 without self_tune).
  std::size_t suppressed_alarms = 0;
};

/// Run one closed-loop online recovery episode: execute `nominal` for `g`
/// under the (hidden) `world` plan, repairing at each observed event per
/// `options`. Deterministic: same inputs, bit-identical result. Throws
/// flb::Error on malformed input or — with options.validate — on any
/// continuation that fails the lint feasibility tier (the validator).
RuntimeResult run_online_recovery(const TaskGraph& g, const Schedule& nominal,
                                  const FaultPlan& world,
                                  const RuntimeOptions& options = {});

/// Render an event log as one line per event (to_string(SimEvent) joined
/// with newlines) — the text the event digest is computed over.
std::string event_log_text(const std::vector<SimEvent>& events);

/// FNV-1a 64-bit digest of a string (event-log text, belief-log text); the
/// shared implementation in flb/util/fnv1a.hpp.
using flb::fnv1a_digest;

}  // namespace flb::runtime
