#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "flb/util/types.hpp"

/// \file faults.hpp
/// Deterministic fault injection for the machine simulator.
///
/// The paper's machine (Section 2) is perfectly reliable: processors never
/// fail, messages always arrive, and runtimes equal their compile-time
/// estimates. A FaultPlan relaxes all of these assumptions at once:
///
///  * **Fail-stop processor failures.** A processor listed in `failures`
///    dies at its failure time: the task it is executing is killed (its
///    unprotected work is lost), unstarted tasks on it never run, and it
///    stays dead for the rest of the simulation — unless a matching entry
///    in `rejoins` reboots it. Messages emitted by tasks that *finished*
///    before the failure are considered in flight and still delivered.
///  * **Recovery.** A processor listed in `rejoins` reboots: from the
///    rejoin instant on it dispatches its remaining scheduled tasks again,
///    but with *cold caches* — its in-flight work and every message
///    delivered to it before (or while) it was down are lost, so inputs
///    that predate the reboot are re-fetched from the durable store at
///    full communication cost. Only durably checkpointed state survives
///    (see `checkpoint`). Kill/rejoin pairs form disjoint windows; a
///    processor may die and rejoin repeatedly. Likewise a slowdown with a
///    finite `until` restores the processor's speed at that instant, and a
///    burst with `recovery_delay > 0` heals each member (reboot after a
///    kill, speed restored after a throttle) that long after its strike.
///  * **Failure domains and correlated bursts.** Real clusters rarely fail
///    one machine at a time: a rack loses power, a switch partitions, and
///    its members fail together. `domains` names groups of processors;
///    `bursts` trigger correlated episodes on a domain — each member
///    participates with `probability` and fails within `[time, time +
///    window]`, and the burst may cascade to further domains. A burst with
///    `slowdown_factor` in (0, 1] throttles its members instead of killing
///    them.
///  * **Partial partitions.** A link listed in `partitions` goes dark for
///    a window: both endpoints stay alive, but messages crossing the link
///    at their send instant reroute around the cut (when a live path
///    exists) or are dropped (when the endpoints are disconnected), and an
///    observer behind the cut stops hearing the far side's heartbeats —
///    the network lies to part of the cluster.
///  * **Slowdown faults.** A processor listed in `slowdowns` does not die;
///    its speed is multiplied by `factor` from `time` on (thermal
///    throttling, co-tenancy). Multiple slowdowns of one processor
///    compound multiplicatively. Communication is unaffected.
///  * **Periodic checkpointing.** With `checkpoint.interval > 0` every task
///    writes a durable checkpoint after each `interval` units of work
///    (costing `checkpoint.overhead` wall time per write); a killed task
///    loses only the work past its last durable checkpoint, and
///    repair_schedule() resumes it from there instead of from zero. With
///    `checkpoint.min_downstream > 0` the policy is criticality-aware:
///    only tasks whose bottom level reaches the threshold checkpoint at
///    all — see CheckpointPolicy.
///  * **Message loss with bounded retry.** Every remote transfer attempt is
///    lost independently with `loss_probability`; a lost attempt is
///    retransmitted after a timeout that grows by `backoff` per retry, up
///    to `max_retries` retransmissions. A message whose final attempt is
///    also lost is dropped permanently — its consumer (and everything
///    behind it in that processor's dispatch order) never runs.
///  * **Message delay.** Independently of loss, a message is delayed with
///    `delay_probability`, multiplying its transfer time by `delay_factor`.
///  * **Runtime perturbation.** Each task's computation cost is scaled by a
///    factor drawn uniformly from [1 - runtime_spread, 1 + runtime_spread],
///    modelling compile-time estimates that drift at runtime.
///
/// All randomness is derived from `seed` plus the task id / edge slot /
/// (burst, member) pair being perturbed, never from event order, so a plan
/// yields bit-identical outcomes across runs, network models and repair
/// strategies. resolve_faults() expands domains and bursts into the
/// concrete per-processor failure/slowdown lists the simulator executes.

namespace flb {

/// One fail-stop processor failure.
struct ProcFailure {
  ProcId proc = kInvalidProc;
  Cost time = 0.0;  ///< the processor is dead from this instant on
};

/// One recovery event: a previously killed processor finishes rebooting and
/// is available again from `time` on, with cold caches — everything it held
/// in memory (in-flight work, already-delivered messages) is gone; durable
/// checkpoints survive. Must pair with a preceding ProcFailure of the same
/// processor; kill/rejoin windows of one processor must not overlap.
struct ProcRejoin {
  ProcId proc = kInvalidProc;
  Cost time = 0.0;  ///< the processor is available again from this instant
};

/// One slowdown fault: the processor stays alive, but from `time` on its
/// speed is multiplied by `factor` (so a task's remaining work proceeds at
/// the reduced rate). Several slowdowns of one processor compound. A finite
/// `until` makes the throttling transient: the factor is lifted again at
/// that instant (thermal throttling that clears, a co-tenant that leaves).
struct SlowdownFault {
  ProcId proc = kInvalidProc;
  Cost time = 0.0;      ///< throttling starts at this instant
  double factor = 1.0;  ///< speed multiplier in (0, 1]
  Cost until = kInfiniteTime;  ///< speed restored here; infinite = permanent
};

/// A named group of processors that fails together (a rack, a switch, a
/// power domain). Domains may overlap; membership order is significant only
/// for the deterministic per-member randomness of bursts.
struct FailureDomain {
  std::string name;
  std::vector<ProcId> members;
};

/// One correlated failure episode on a domain. Each member participates
/// independently with `probability`; a participating member fails (or, with
/// `slowdown_factor` in (0, 1], throttles) at a deterministic instant drawn
/// uniformly from [time, time + window]. With `cascade_probability > 0` the
/// burst spreads: every *other* declared domain is hit by a secondary burst
/// (same window, probability and slowdown_factor, no further cascading)
/// triggered at `time + window + cascade_delay`, independently with
/// `cascade_probability` — seeded, bounded cascading along the domain list.
struct DomainBurst {
  std::string domain;             ///< must name a declared FailureDomain
  Cost time = 0.0;                ///< burst trigger instant
  Cost window = 0.0;              ///< member faults spread over [time, time+window]
  double probability = 1.0;       ///< per-member participation probability
  double slowdown_factor = 0.0;   ///< 0 = fail-stop kill; (0,1] = throttle
  double cascade_probability = 0.0;  ///< per-other-domain spread probability
  Cost cascade_delay = 0.0;       ///< secondary bursts trigger after the window
  /// With recovery_delay > 0 the episode is transient: each struck member
  /// heals that long after its (seeded) strike instant — a killed member
  /// reboots (cold caches), a throttled one gets its speed back. 0 keeps
  /// the PR 2 semantics: the damage is permanent.
  Cost recovery_delay = 0.0;
};

/// Periodic checkpointing policy. Disabled by default (interval 0): a
/// killed task restarts from zero. With interval T > 0, a task writes a
/// durable checkpoint after each T units of *work* (marks at T, 2T, ...
/// strictly below its total work), pausing for `overhead` wall time per
/// write; a checkpoint interrupted by a failure is not durable.
///
/// Criticality-aware placement: with `min_downstream > 0` only tasks whose
/// downstream cost — the bottom level BL(t), the heaviest
/// computation+communication path from t to an exit — reaches the
/// threshold are checkpointed; the rest run unprotected. Losing a task
/// with little work behind it is cheap to absorb, so spending writes on it
/// buys almost nothing; the threshold concentrates the overhead budget on
/// the tasks whose loss would stall the longest chains. 0 keeps the
/// uniform policy: every task checkpoints.
struct CheckpointPolicy {
  Cost interval = 0.0;  ///< work units between checkpoints; 0 disables
  Cost overhead = 0.0;  ///< wall time per durable checkpoint write
  /// Checkpoint only tasks with bottom level >= this (0 = all tasks).
  Cost min_downstream = 0.0;

  [[nodiscard]] bool enabled() const { return interval > 0.0; }

  /// True iff a task with downstream cost (bottom level) `downstream` is
  /// checkpointed under this policy.
  [[nodiscard]] bool covers(Cost downstream) const {
    return enabled() && downstream >= min_downstream;
  }
};

/// One partial-partition window: the link between the two endpoints is
/// unreachable for [time, until). Both processors stay alive and keep
/// computing — only messages that would cross the partitioned link at
/// their send instant are affected (rerouted around the cut when a live
/// path exists, dropped when the endpoints are fully disconnected), and
/// heartbeats crossing the cut never arrive, so an observer behind the
/// partition forms beliefs that disagree with the rest of the cluster.
/// An endpoint is either a single processor (`proc_*`, used when the
/// corresponding `domain_*` is empty) or a named failure domain (every
/// member pair across the two sides partitions). A finite `until` heals
/// the link at that instant; kInfiniteTime never heals.
struct PartitionFault {
  ProcId proc_a = kInvalidProc;  ///< endpoint A when domain_a is empty
  ProcId proc_b = kInvalidProc;  ///< endpoint B when domain_b is empty
  std::string domain_a;          ///< non-empty: endpoint A is this domain
  std::string domain_b;          ///< non-empty: endpoint B is this domain
  Cost time = 0.0;               ///< the link goes dark at this instant
  Cost until = kInfiniteTime;    ///< heal instant; infinite = never heals
};

/// Heartbeat-based failure *sensing* (runtime/failure_detector.hpp). Unlike
/// every other section of a FaultPlan this injects nothing into the
/// simulated execution — it configures how an unreliable observer perceives
/// it. Every processor emits a heartbeat each `period` units of wall time
/// while it is alive; each emission is independently lost with
/// `loss_probability` or delayed by `delay_factor * period` with
/// `delay_probability` (seeded per (processor, beat index), like message
/// faults). A φ-accrual-style monitor suspects a processor once it has
/// been silent for `suspect_after` periods and confirms it dead after
/// `confirm_after`; any later heartbeat exonerates it. False positives
/// (lossy silence from a live processor) and false negatives (a death
/// missed because the processor rejoins within the suspicion window) are
/// both possible by construction.
struct HeartbeatConfig {
  Cost period = 0.0;               ///< emission period; 0 disables sensing
  double loss_probability = 0.0;   ///< per heartbeat, i.i.d., seeded
  double delay_probability = 0.0;  ///< per heartbeat, i.i.d., seeded
  double delay_factor = 1.5;       ///< delayed arrival = emission + factor*period
  double suspect_after = 2.0;      ///< accrual threshold (periods) to suspect
  double confirm_after = 4.0;      ///< accrual threshold (periods) to confirm

  [[nodiscard]] bool enabled() const { return period > 0.0; }
};

/// Per-message loss/delay model with bounded retry.
struct MessageFaults {
  double loss_probability = 0.0;   ///< per transmission attempt
  double delay_probability = 0.0;  ///< per message (applied once)
  double delay_factor = 2.0;       ///< transfer-time multiplier when delayed
  std::size_t max_retries = 3;     ///< retransmissions after the first attempt
  Cost retry_timeout = 1.0;        ///< wait before the first retransmission
  double backoff = 2.0;            ///< timeout multiplier per further retry
};

/// A complete, seeded description of everything that goes wrong during one
/// simulated execution. Default-constructed plans inject no faults.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<ProcFailure> failures;
  std::vector<ProcRejoin> rejoins;
  std::vector<SlowdownFault> slowdowns;
  std::vector<FailureDomain> domains;
  std::vector<DomainBurst> bursts;
  std::vector<PartitionFault> partitions;
  CheckpointPolicy checkpoint;
  MessageFaults message;
  HeartbeatConfig heartbeat;
  double runtime_spread = 0.0;  ///< comp scaled by uniform [1-s, 1+s], s < 1

  /// Convenience: a plan whose only fault is killing `proc` at `time`.
  [[nodiscard]] static FaultPlan single_failure(ProcId proc, Cost time);

  /// True iff the plan injects nothing (the simulator takes the fast path).
  [[nodiscard]] bool trivial() const;

  /// The instant `p` dies according to the *directly listed* failures, or
  /// kInfiniteTime. Burst-induced deaths are not included — use
  /// resolve_faults() / ResolvedFaults::death_time for the full picture.
  [[nodiscard]] Cost death_time(ProcId p) const;

  /// Point-of-use validation. Throws flb::Error naming the offending entry
  /// unless: probabilities are in [0,1]; runtime_spread in [0,1);
  /// retry_timeout > 0; backoff >= 1; every failure names a processor below
  /// `num_procs` with a finite, non-negative time; every rejoin references
  /// a processor with a preceding failure, strictly after it, and no two
  /// kill/rejoin windows of one processor overlap (a repeated failure of a
  /// still-dead processor is rejected as a duplicate); every slowdown
  /// names a processor below `num_procs` with a finite, non-negative time,
  /// a factor in (0,1] and an `until` strictly after its onset; domain
  /// names are unique and non-empty with members below `num_procs`; every
  /// burst references a declared domain with finite, non-negative
  /// time/window/cascade_delay/recovery_delay and a slowdown_factor of 0
  /// or in (0,1]; checkpoint interval, overhead and min_downstream are
  /// finite and non-negative; every partition has distinct endpoints
  /// (no self-partition), processor endpoints below `num_procs`, domain
  /// endpoints naming declared domains, a finite non-negative onset and a
  /// heal instant strictly after it (or infinite); and the heartbeat
  /// section has a finite, non-negative period, probabilities in [0,1], a
  /// finite delay_factor >= 1, and finite accrual thresholds with
  /// 0 < suspect_after < confirm_after.
  void validate(ProcId num_procs) const;
};

/// The concrete fault set a plan expands to: directly listed failures,
/// rejoins and slowdowns plus every burst-induced one, resolved
/// deterministically from the seed. Per processor the kill/rejoin events
/// are canonicalized into alternating disjoint windows (a kill while
/// already dead is dropped, as is a rejoin while alive — relevant when a
/// burst strikes a processor that also has explicit windows); all lists are
/// sorted by (time, proc).
struct ResolvedFaults {
  std::vector<ProcFailure> failures;
  std::vector<ProcRejoin> rejoins;
  std::vector<SlowdownFault> slowdowns;

  /// The instant `p` first dies, or kInfiniteTime if nothing kills it.
  [[nodiscard]] Cost death_time(ProcId p) const;

  /// The instant from which `p` is available for new work with no further
  /// death ahead: 0 if it is never killed, its last rejoin instant if it
  /// ends the episode alive, kInfiniteTime if it ends dead. Data produced
  /// on `p` before a positive available_from() is cold (lost to the
  /// reboot) and must be re-fetched at full communication cost.
  [[nodiscard]] Cost available_from(ProcId p) const;

  /// Total dead time of `p` within [0, horizon]: the summed kill/rejoin
  /// windows, final deaths extending to the horizon.
  [[nodiscard]] Cost downtime(ProcId p, Cost horizon) const;
};

/// Expand domains and bursts into the concrete failure/slowdown lists.
/// Pure function of the plan (call validate() first); bit-identical across
/// runs and network models.
ResolvedFaults resolve_faults(const FaultPlan& plan);

/// One resolved per-link unreachability window: the direct link between
/// processors `a` and `b` (canonical: a < b) is down for [time, until).
struct LinkOutage {
  ProcId a = kInvalidProc;
  ProcId b = kInvalidProc;
  Cost time = 0.0;
  Cost until = kInfiniteTime;
};

/// Expand the plan's partition directives into canonical per-link outage
/// windows: domain endpoints expand to every cross-pair of members, the
/// endpoints of each pair are ordered a < b, overlapping or touching
/// windows of one link are merged into maximal disjoint windows, and the
/// result is sorted by (a, b, time) — a canonical value. Pure function of
/// the plan (call validate() first).
std::vector<LinkOutage> resolve_partitions(const FaultPlan& plan);

/// True iff the direct link x <-> y is partitioned at instant `t` under
/// the canonical outage set (windows are half-open: a link is down at its
/// onset, up again at its heal instant). A link with no outage — and any
/// self-link — is always up.
bool link_partitioned(const std::vector<LinkOutage>& outages, ProcId x,
                      ProcId y, Cost t);

/// True iff a multi-hop path of unpartitioned direct links connects x and
/// y at instant `t`, routing through any of the `num_procs` processors
/// (breadth-first over the complement of the partitioned link set). With
/// no outages every pair is path-connected; a fully cut-off processor is
/// path-connected to nothing but itself.
bool path_connected(const std::vector<LinkOutage>& outages, ProcId num_procs,
                    ProcId x, ProcId y, Cost t);

/// Hop count of the shortest path of unpartitioned direct links from x to
/// y at instant `t` (1 when the direct link is up, 0 for x == y), or 0
/// when no path exists. The simulator prices a rerouted message at this
/// multiple of its nominal transfer cost.
std::size_t reroute_hops(const std::vector<LinkOutage>& outages,
                         ProcId num_procs, ProcId x, ProcId y, Cost t);

/// The asymptotic speed of every processor once all slowdowns in
/// `resolved` have struck *and every transient one has cleared*: the
/// per-processor product of the factors of permanent slowdowns (a finite
/// `until` contributes nothing — the speed comes back). 1.0 for untouched
/// processors. Bridges the fault model into the related-machines speeds of
/// platform::CostModel for speed-aware repair.
std::vector<double> final_speeds(const ResolvedFaults& resolved,
                                 ProcId num_procs);

/// Number of durable checkpoints a task with `work` units of computation
/// writes during a full execution: marks at interval, 2*interval, ...
/// strictly below `work`. Zero when checkpointing is disabled.
std::size_t checkpoint_count(const CheckpointPolicy& ckpt, Cost work);

/// The fate of one remote message under a plan, resolved deterministically
/// from (plan.seed, edge slot): total extra latency accumulated by lost
/// attempts, the number of retransmissions, whether the transfer itself is
/// slowed by delay_factor, and whether the message was dropped for good
/// after the retry budget ran out.
struct MessageOutcome {
  Cost retry_delay = 0.0;     ///< timeout latency before the winning attempt
  std::size_t retries = 0;    ///< retransmissions performed
  bool delayed = false;       ///< transfer time multiplied by delay_factor
  bool dropped = false;       ///< true: the message never arrives
};

/// Resolve the outcome of the message travelling along the edge with global
/// slot index `edge_slot`: the edge's TaskGraph edge id, i.e. its index in
/// the successor CSR (TaskGraph::out_edge_begin).
MessageOutcome resolve_message(const FaultPlan& plan, std::size_t edge_slot);

/// The deterministic runtime-perturbation factor for task `t` (1.0 when the
/// plan has runtime_spread == 0).
Cost runtime_factor(const FaultPlan& plan, TaskId t);

// --- Text serialization -----------------------------------------------------
//
// Line-oriented round-trippable plan format, so fault scenarios can be
// saved, diffed and replayed (and fuzzed — fuzz/fuzz_fault_plan.cpp):
//
//     flb-faultplan 1
//     seed 42
//     runtime-spread 0.1
//     checkpoint <interval> <overhead> [min_downstream]   (defaults to 0)
//     message <loss> <delay_prob> <delay_factor> <max_retries> <timeout> <backoff>
//     heartbeat <period> <loss> <delay_prob> <delay_factor> <suspect> <confirm>
//     fail <proc> <time>
//     rejoin <proc> <time>
//     slowdown <proc> <time> <factor> [until]      (until defaults to inf)
//     domain <name> <member> [member...]
//     burst <domain> <time> <window> [prob] [slowdown] [cascade_prob]
//           [cascade_delay] [recovery_delay]       (defaults 1 0 0 0 0)
//     partition <a> <b> <time> [until]             (until defaults to inf)
//
// A partition endpoint is a processor id (digits) or a declared domain
// name; the two endpoints must differ and `until`, when finite, must be
// strictly after `time` — both are rejected at parse time.
//
// '#' comment lines and blank lines are allowed; directives may repeat
// (fail/rejoin/slowdown/domain/burst append, the scalar ones overwrite).

/// Parse the text format. Throws flb::Error naming the offending line on
/// malformed input (unknown directive, missing or non-finite fields). The
/// parser checks syntax and local field sanity only; call
/// FaultPlan::validate(num_procs) afterwards for the semantic rules.
FaultPlan read_fault_plan(std::istream& is);

/// Convenience: parse a plan from a string.
FaultPlan fault_plan_from_text(const std::string& text);

/// Write `plan` in the text format above (round-trips through
/// read_fault_plan).
void write_fault_plan(std::ostream& os, const FaultPlan& plan);

/// Convenience: serialize a plan to a string.
std::string to_fault_plan_text(const FaultPlan& plan);

}  // namespace flb
