#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/platform/speed_profile.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/topology.hpp"

/// \file machine_sim.hpp
/// Discrete-event simulation of a distributed-memory machine *executing* a
/// compile-time schedule.
///
/// The paper evaluates schedules purely analytically under the clique,
/// contention-free model of Section 2. This simulator closes the loop: it
/// dispatches each processor's tasks in schedule order, delivers messages
/// as events, and reports when everything actually ran.
///
///  * Under SimNetwork::kContentionFree the simulation provably reproduces
///    the analytic schedule built by any scheduler in this library
///    (asserted by the property tests) — an end-to-end cross-validation of
///    schedulers, Schedule bookkeeping and validator alike.
///  * The port-constrained models relax the paper's "communication is
///    performed without contention" assumption (Section 2) and quantify
///    how much of each algorithm's advantage survives when messages
///    serialize at the NICs — the bench_sim_contention ablation.
///  * SimOptions::topology relaxes the clique instead: every remote
///    message is routed store-and-forward over the interconnect's
///    deterministic shortest route, one full message time per hop, and
///    each link carries one transfer at a time, reserved in global event
///    order — the bench_topology ablation. The reserved hops come back in
///    SimResult::link_occupancies.
///  * A seeded FaultPlan (faults.hpp) additionally relaxes *reliability*:
///    fail-stop processor deaths (independent or in correlated domain
///    bursts), slowdown faults that throttle a processor's speed,
///    periodic checkpointing, message loss/delay with bounded retry and
///    exponential backoff, and runtime perturbation. Partial executions it
///    produces feed the online repair path (sched/repair.hpp) — the
///    bench_fault_tolerance ablation.
///  * Recovery events close the loop on transience: a slowdown with a
///    finite `until` restores the processor's speed at that instant, and a
///    ProcRejoin brings a killed processor back with cold caches. On
///    rejoin the processor resumes dispatching its not-yet-started tasks;
///    work that was in flight at the kill stays lost (repair's job), and
///    any input data that reached the processor before the reboot — local
///    predecessor outputs and already-delivered messages alike — must be
///    re-fetched, priced at rejoin_time + comm on the consumer's start
///    (not accounted as network traffic).
///  * SimOptions::event_log turns the simulator into an *observable*
///    machine: every fault and recovery is also emitted as a timestamped
///    SimEvent, the input of the online recovery controller
///    (runtime/recovery_runtime.hpp) which repairs with no knowledge of
///    the plan beyond what the stream has surfaced so far.
///
/// Dispatch discipline: each processor runs its tasks in the order the
/// schedule placed them, each task starting as soon as the processor is
/// free and its messages have arrived (schedule times are *not* replayed;
/// they re-emerge in the contention-free model). Message ports are
/// allocated in global event-time order, which makes all three models
/// deterministic.
///
/// Cost: a fault-free clique replay takes O(V log V + E) time and O(V + E)
/// memory. Each completion pops one event off a binary heap, each edge is
/// visited once by its producer (which writes the message's arrival slot,
/// indexed by the graph's edge id) and once by its consumer (which reads
/// that slot through TaskGraph::in_edge_ids, in O(1)). Faults add their own
/// work on top: a kill walks its processor's task list, a requeue rewinds
/// it, each message checks its link against the outage windows and one
/// sent across a cut link searches for a detour (O(P^2) link checks), and
/// a task's finish integrates its processor's speed profile.
///
/// Slowdown faults give each processor a piecewise-constant speed profile:
/// the speed at any instant is the product of the factors of all slowdowns
/// active then (a fault is active on [time, until)). Segment speeds are
/// recomputed from scratch at each boundary, so a fully recovered
/// processor returns to exactly 1.0 — no accumulated 1/factor drift. A
/// task's finish time integrates its remaining work through that profile.
/// Checkpoint writes pause the computation for the policy's overhead; a
/// fail-stop kill preserves the work up to the last checkpoint whose write
/// completed (SimResult::checkpointed), and only the unprotected remainder
/// counts as work_lost.

namespace flb {

/// Network contention model.
enum class SimNetwork {
  kContentionFree,    ///< the paper's model: all transfers in parallel
  kSinglePortSend,    ///< one outgoing transfer at a time per processor
  kSinglePortSendRecv ///< additionally one incoming transfer at a time
};

/// What an observer of the executing machine would see happen — the event
/// stream a fault-injected simulation emits into SimOptions::event_log.
/// This is the *online* face of the fault model: each entry carries only
/// information available at its timestamp, so a controller consuming the
/// stream in time order (flb::runtime) learns about faults exactly when a
/// real runtime would, never from the FaultPlan it cannot see.
enum class SimEventKind {
  kFailure = 0,        ///< a processor died (fail-stop)
  kRejoin = 1,         ///< a killed processor finished rebooting (cold)
  kSlowdownBegin = 2,  ///< a slowdown struck; `value` is the speed factor
  kSlowdownEnd = 3,    ///< a transient slowdown cleared (factor lifted)
  /// A dispatched task was lost with its processor; `value` is the durably
  /// checkpointed work.
  kTaskKilled = 4,
  /// A message exhausted its retry budget; task -> task2 will never be
  /// delivered.
  kMessageDropped = 5,
  /// The link proc ~ proc2 went dark (both ends stay alive but cannot talk
  /// directly).
  kLinkPartitioned = 6,
  kLinkHealed = 7,  ///< a partitioned link came back
};

/// One observed event. Machine-level events (failure, rejoin, slowdown
/// begin/end) leave task fields at kInvalidTask; kTaskKilled names the lost
/// task, kMessageDropped the producer (`task`) and starved consumer
/// (`task2`). `time` for a dropped message is the instant the *sender*
/// learns the transfer is lost — the emission instant plus the exhausted
/// retry timeouts — not the instant of the first attempt. The link events
/// (kLinkPartitioned, kLinkHealed) name the two endpoints in `proc` and
/// `proc2` (canonical: proc < proc2).
struct SimEvent {
  Cost time = 0.0;
  SimEventKind kind = SimEventKind::kFailure;
  ProcId proc = kInvalidProc;
  TaskId task = kInvalidTask;
  TaskId task2 = kInvalidTask;
  double value = 0.0;  ///< slowdown factor / checkpointed work, else 0
  ProcId proc2 = kInvalidProc;  ///< far endpoint of a link event

  /// Identity key and deterministic log order: (time, kind, proc, tasks).
  [[nodiscard]] auto key() const {
    return std::make_tuple(time, static_cast<int>(kind), proc, task, task2,
                           proc2);
  }
  bool operator<(const SimEvent& other) const { return key() < other.key(); }
  bool operator==(const SimEvent& other) const {
    return key() == other.key() && value == other.value;
  }
};

/// Render one event as a stable, diffable log line, e.g.
/// "t=12.5 failure p2" or "t=20 message-dropped p1 t7->t9".
std::string to_string(const SimEvent& event);

/// Simulation options.
struct SimOptions {
  SimNetwork network = SimNetwork::kContentionFree;
  /// Optional routed interconnect (not owned; must outlive the simulate()
  /// call) with one node per processor. When set, each remote message is
  /// priced by the commit() of platform::CostModel::link_busy(*topology)
  /// instead of send + cost: store-and-forward over the route, each hop
  /// waiting for its link. Requires SimNetwork::kContentionFree and a
  /// trivial fault plan or none (a routed replay models neither ports nor
  /// faults); simulate() throws flb::Error otherwise. Every message costs
  /// its edge's comm per transfer (per hop when routed); a what-if sweep
  /// over message costs scales the graph's edge costs.
  const Topology* topology = nullptr;
  /// Optional fault injection (see faults.hpp). Not owned; must outlive the
  /// simulate() call. With a non-trivial plan the execution may be partial:
  /// check SimResult::complete() before trusting the makespan, or hand the
  /// result to repair_schedule() to build a continuation.
  const FaultPlan* faults = nullptr;
  /// Optional per-task effective-work override (not owned). Entries other
  /// than kUndefinedTime replace the task's computation *including* any
  /// runtime perturbation — used to replay a repaired continuation whose
  /// migrated tasks resume from a checkpoint with only their remaining
  /// work. Must have num_tasks entries, each finite and non-negative (or
  /// kUndefinedTime), when set.
  const std::vector<Cost>* work_override = nullptr;
  /// Optional per-task checkpoint-interval override (not owned). Entries
  /// other than kUndefinedTime replace CheckpointPolicy::interval for that
  /// task; the policy's overhead and min_downstream gating are unchanged,
  /// and an entry of 0 disables the task's checkpoints. Used by the
  /// adaptive-checkpointing controller (flb::runtime), which re-derives
  /// the interval from its online failure-rate estimate and installs it
  /// for the tasks each repair re-plans. Must have num_tasks entries with
  /// finite, non-negative values (or kUndefinedTime) when set; ignored
  /// without a fault plan.
  const std::vector<Cost>* checkpoint_interval = nullptr;
  /// Optional observer stream (not owned). When set and a fault plan is
  /// active, the simulation appends every observable event — failures,
  /// rejoins, slowdown onsets and recoveries, task kills, permanent message
  /// drops — sorted by SimEvent::key(), so two runs of the same plan yield
  /// byte-identical logs. The vector is cleared first. Without a plan the
  /// log is just cleared (a fault-free run has nothing to observe).
  std::vector<SimEvent>* event_log = nullptr;
  /// Treat the schedule's start times as *earliest-start constraints*
  /// instead of replaying as-soon-as-possible: no task starts before its
  /// ST(t), and a task that had not yet started when its processor died is
  /// returned to the queue (nothing of it is lost) and re-dispatched if the
  /// processor rejoins, rather than counted as killed. This is the causal
  /// execution mode for *continuation* schedules (sched/repair.hpp), whose
  /// start times encode repair release instants and rejoin admissions —
  /// without it a replay would start migrated work before the failure it
  /// reacts to was even observable, and would kill given-back tasks that
  /// are scheduled after their processor's reboot. Default off: plain
  /// replays keep the dispatch-ASAP semantics.
  bool honor_start_times = false;
};

/// Simulation outcome. With fault injection, tasks that never ran keep
/// start/finish == kUndefinedTime and are listed in `unfinished`.
struct SimResult {
  std::vector<Cost> start;   ///< actual start per task
  std::vector<Cost> finish;  ///< actual finish per task
  Cost makespan = 0.0;       ///< latest finish among completed tasks
  std::size_t messages = 0;  ///< remote messages delivered
  Cost network_busy = 0.0;   ///< summed transfer time (scaled costs)
  /// Every hop a routed replay (SimOptions::topology) reserved, in
  /// reservation order; empty otherwise. The log RepairResult carries,
  /// auditable with validate_link_occupancies: its size is the hop count,
  /// and a link's busy time is the sum of its entries' end - begin.
  std::vector<platform::LinkOccupancy> link_occupancies;

  // Fault accounting (all zero / empty without a fault plan).
  std::size_t retries = 0;           ///< message retransmissions performed
  std::size_t dropped_messages = 0;  ///< messages lost beyond the retry budget
  std::size_t rejoins = 0;     ///< processor rejoin events applied
  Cost work_lost = 0.0;        ///< unprotected computation discarded by kills
  /// Summed per-processor kill/rejoin downtime clamped to the makespan; for
  /// a processor that never rejoins this is (makespan - death time) as
  /// before.
  Cost dead_proc_idle = 0.0;
  std::vector<TaskId> unfinished;  ///< tasks that never completed, ascending
  /// (producer, consumer) pairs of permanently dropped messages, in
  /// delivery-attempt order — the input of re-execution repair.
  std::vector<std::pair<TaskId, TaskId>> dropped_edges;

  // Checkpoint accounting (zero / empty unless the plan checkpoints).
  Cost work_saved = 0.0;            ///< checkpointed work preserved by kills
  Cost checkpoint_overhead = 0.0;   ///< wall time spent on durable writes
  std::size_t checkpoints_taken = 0;  ///< durable checkpoint writes
  /// Per-task work protected by the last durable checkpoint of a *killed*
  /// task (0 elsewhere); sized num_tasks under a fault plan, else empty.
  std::vector<Cost> checkpointed;

  /// Per-processor unprotected work lost to kills on that processor;
  /// sized num_procs under a fault plan, else empty. Feeds the per-domain
  /// degradation accounting of robustness_metrics().
  std::vector<Cost> proc_work_lost;

  // Partial-partition accounting (zero unless the plan partitions links).
  /// Messages whose direct link was partitioned at their send instant but
  /// that still arrived — rerouted over a multi-hop detour of live links,
  /// or (when the endpoints were momentarily disconnected) held back until
  /// the earliest heal instant restored a path.
  std::size_t rerouted_messages = 0;
  /// Extra wall latency those messages paid: detour hops beyond the first
  /// plus any wait for a heal. Priced through the same cost model as the
  /// nominal transfer.
  Cost reroute_extra = 0.0;
  /// Messages dropped because their endpoints are partitioned with no live
  /// path and no future heal — included in dropped_messages/dropped_edges,
  /// so re-execution repair treats them like exhausted retries.
  std::size_t partition_dropped = 0;

  /// True iff every task ran to completion.
  [[nodiscard]] bool complete() const { return unfinished.empty(); }
};

/// The simulator's event loop as an object that can pause: simulate() is a
/// Replay started and run to completion, and a caller that needs only the
/// start of an execution stops it early and pays only for what it replayed.
///
/// Pause contract. advance(T) processes every pending event with time <= T
/// (completions, failures, rejoins) in exactly the order simulate() does,
/// so pausing changes nothing: a replay advanced any number of times and
/// then run() equals simulate() bit for bit. While paused at reached() = T:
///  * a task whose finish is <= T has its final start and finish; a task
///    already dispatched past T carries a tentative start and finish that
///    a later failure may still void (simulate() reports a killed task as
///    never started);
///  * the event log holds every event with time <= T, unsorted, plus the
///    schedule-independent machine events (failures, rejoins, slowdowns,
///    link outages) of the whole plan and any drop already announced for
///    later; run() sorts it;
///  * counters, dropped_edges (a prefix of the final list) and makespan
///    (the latest finish so far) cover the processed events; unfinished,
///    dead_proc_idle and link_occupancies are filled by run().
///
/// start() keeps every buffer of the previous replay, so a caller that
/// replays one graph repeatedly stops allocating once the buffers have
/// grown. The graph, the schedule, the fault plan, the topology and the
/// event log must outlive the replay and stay unchanged until the next
/// start(); the work and checkpoint-interval overrides are copied by
/// start(), so the caller may change them while the replay is paused.
///
/// Cost: a whole replay costs what simulate() costs; a replay paused at T
/// has paid for the events at or before T plus the dispatches they
/// triggered, and each advance() costs only the events it processes.
class Replay {
 public:
  /// Begin replaying `s` on `g` under `options`, discarding the previous
  /// replay. Validates exactly as simulate() does and throws the same
  /// flb::Error messages.
  void start(const TaskGraph& g, const Schedule& s,
             const SimOptions& options = {});

  /// Process every pending event with time <= `until`; a no-op at or
  /// before reached() and after run().
  void advance(Cost until);

  /// Process every remaining event and finish the result. Throws
  /// flb::Error when a fault-free replay's dispatch order deadlocks.
  void run();

  /// True once run() has finished the result.
  [[nodiscard]] bool done() const { return done_; }

  /// Every event at or before this instant has been processed:
  /// -kInfiniteTime right after start(), kInfiniteTime after run().
  [[nodiscard]] Cost reached() const { return reached_; }

  /// Tasks that have completed so far.
  [[nodiscard]] TaskId completed() const { return completed_; }

  /// The result so far (see the pause contract above).
  [[nodiscard]] const SimResult& result() const { return result_; }

  /// Move the result out; start() must be called before the next use.
  [[nodiscard]] SimResult take_result() { return std::move(result_); }

 private:
  /// Simulation event: (time, kind, sequence) so simultaneous events
  /// resolve deterministically. Completions at time T are processed before
  /// a failure at T — a task finishing exactly when its processor dies
  /// survives, and its output messages are considered in flight.
  struct Event {
    enum Kind { kCompletion = 0, kFailure = 1, kRejoin = 2 };
    Cost time;
    int kind;
    std::size_t seq;
    TaskId task;  ///< completing task, or the processor for kFailure/kRejoin
    /// Dispatch generation of a completion: a task returned to the queue by
    /// a failure (honor_start_times mode) bumps its epoch, so the stale
    /// completion of the canceled dispatch is ignored when it surfaces.
    std::size_t epoch = 0;
    bool operator>(const Event& other) const {
      return std::tie(time, kind, seq) >
             std::tie(other.time, other.kind, other.seq);
    }
  };

  void push(const Event& ev);
  void try_dispatch(ProcId p);
  void process(const Event& ev);
  [[nodiscard]] Cost work_of(TaskId t) const;
  [[nodiscard]] CheckpointPolicy ckpt_of(TaskId t) const;

  const TaskGraph* g_ = nullptr;
  const Schedule* s_ = nullptr;
  const FaultPlan* plan_ = nullptr;  ///< null when absent or trivial
  SimNetwork network_ = SimNetwork::kContentionFree;
  bool routed_ = false;
  bool honor_start_times_ = false;
  std::vector<SimEvent>* log_ = nullptr;
  ResolvedFaults resolved_;
  std::vector<LinkOutage> outages_;
  CheckpointPolicy ckpt_;
  /// Bottom levels gating checkpoints (min_downstream > 0); else empty.
  std::span<const Cost> downstream_;
  bool has_work_override_ = false;
  bool has_ckpt_override_ = false;
  std::vector<Cost> work_override_;
  std::vector<Cost> ckpt_override_;

  SimResult result_;
  bool done_ = false;
  Cost reached_ = -kInfiniteTime;
  TaskId completed_ = 0;
  std::size_t seq_ = 0;
  std::vector<Event> events_;  ///< binary min-heap on Event's order

  std::vector<std::size_t> dispatch_idx_;  ///< next task per processor
  std::vector<Cost> proc_free_;
  std::vector<Cost> send_free_;
  std::vector<Cost> recv_free_;
  std::vector<char> dead_;
  /// Instant each processor last rebooted (kUndefinedTime = never).
  std::vector<Cost> rejoined_at_;
  std::vector<platform::SpeedProfile> profiles_;
  /// The link-busy model of a routed replay, whose commits price and
  /// reserve its messages; a clique replay prices by the graph's edge
  /// costs and leaves this a clique.
  platform::CostModel net_ = platform::CostModel::clique(1);
  /// Arrival per remote edge, indexed by the graph's edge id.
  std::vector<Cost> arrival_;
  std::vector<char> finished_;
  std::vector<char> dispatched_;
  std::vector<char> killed_;   ///< dispatched, then lost to a failure
  std::vector<char> starved_;  ///< an input message was dropped
  std::vector<std::size_t> epoch_;
  std::vector<std::size_t> pending_preds_;
};

/// Execute `s` (a complete schedule of `g`) on the simulated machine: a
/// Replay started and run to completion.
/// Throws flb::Error if the schedule is incomplete or sized for another
/// task count, an option is out of range, or — absent fault injection —
/// its dispatch order deadlocks (impossible for schedules accepted by
/// validate_schedule). With a fault plan, starvation is a legitimate
/// outcome and is reported through SimResult::unfinished instead of an
/// exception.
SimResult simulate(const TaskGraph& g, const Schedule& s,
                   const SimOptions& options = {});

}  // namespace flb
