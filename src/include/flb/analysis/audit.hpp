#pragma once

#include <vector>

#include "flb/analysis/lint.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"

/// \file audit.hpp
/// The runtime auditor (flb::analysis::audit_runtime): a rule engine that
/// independently verifies the *semantics* of one online-recovery episode —
/// the event log, the belief stream, the repair trail and the summary
/// digests of a runtime::RuntimeResult — against the canonicalized fault
/// plan the episode executed under.
///
/// The schedule linter (lint.hpp) audits what the *scheduler* claims; this
/// module audits what the *runtime* claims. Everything the recovery loop
/// reports — "this message was dropped because its link was cut with no
/// detour", "this processor was confirmed dead by a quorum", "this repair
/// consumed exactly that debounced batch" — is re-derived here from the
/// plan helpers (resolve_faults, resolve_partitions, resolve_message,
/// FailureDetector) without sharing any state with the controller or the
/// simulator. A bug that makes the runtime lie consistently to itself
/// (producer and checker sharing the broken code path) cannot fool this
/// auditor, because it recomputes every claim from the plan alone.
///
/// Rule families (all error severity; docs/analysis.md has the catalogue):
///
///  * **audit-event-order** — the log is sorted by SimEvent::key() with no
///    duplicate keys, every timestamp finite and non-negative, every id in
///    range and every link event canonical (proc < proc2).
///  * **audit-liveness-pairing** / **audit-partition-pairing** — kFailure/
///    kRejoin and kLinkPartitioned/kLinkHealed events match the resolved
///    plan's kill/rejoin and outage windows exactly (multiset equality)
///    and alternate correctly per processor / per link.
///  * **audit-partition-drop** — every kMessageDropped event re-resolves to
///    either an exhausted retry budget or a genuine partition drop: the
///    direct link cut at the send instant, no live detour, no future heal
///    that restores a path; timestamps and drop counts must agree.
///  * **audit-belief-causality** — consumed beliefs are time-ordered and
///    per-processor legal (suspect before confirm, exoneration only of a
///    suspect), match the detector's pure re-derived stream, and every
///    exoneration coincides with an audible heartbeat arrival.
///  * **audit-quorum-soundness** — in gossip mode, every cluster-wide
///    suspicion/confirmation is backed by at least `quorum` observers that
///    are alive with an uncut direct link to the subject and whose own
///    re-derived streams concur.
///  * **audit-checkpoint-provenance** — no kill event claims more durably
///    checkpointed work than the task ever ran, none claims any under a
///    policy that does not cover the task, and the final claims agree with
///    SimResult::checkpointed.
///  * **audit-repair-provenance** — every repair invocation traces to a
///    non-empty debounced batch inside its window, its horizon covers the
///    window, horizons are monotone, and every machine-level batch event
///    exists in the final log.
///  * **audit-result-consistency** — the result's digests, makespan and
///    completeness flags are recomputed and must match.
///  * **audit-config** — the audit options describe an episode the plan
///    can actually produce (detector modes need a heartbeat section, ...).
///
/// Time comparisons allow kTimeTolerance (util/types.hpp) of slack. An
/// episode holds no link-reservation log (the runtime prices the clique);
/// validate_link_occupancies (sched/validator.hpp) checks the logs that
/// link-busy resumes, repairs and routed replays produce.

namespace flb::analysis {

/// How the audited episode was run — mirrors the runtime::RuntimeOptions
/// the episode used; the auditor needs them to re-derive expectations (it
/// never reads the controller's state).
struct AuditOptions {
  /// The controller's debounce window (RuntimeOptions::debounce): every
  /// repair batch must fit [observed_at, observed_at + debounce].
  Cost debounce = 0.0;
  /// The episode ran on detector beliefs (RuntimeOptions::use_detector);
  /// requires the plan's heartbeat section.
  bool use_detector = false;
  /// The episode used the gossip quorum aggregate
  /// (RuntimeOptions::use_gossip); enables audit-quorum-soundness.
  bool use_gossip = false;
  /// Concurring-observer threshold of the gossip aggregate.
  ProcId quorum = 2;
};

/// The audit rule catalogue (stable ids; documented in docs/analysis.md).
const std::vector<RuleInfo>& audit_rule_catalogue();

/// Audit one online-recovery episode: re-derive every claim in `result`
/// from `world` (the plan the episode executed under) and `g`, and report
/// each broken invariant as a structured diagnostic. `world` must already
/// pass FaultPlan::validate for the schedule's processor count. Shares the
/// Diagnostic / LintReport shape (and write_report / write_report_json)
/// with the schedule linter; a clean() report certifies the episode.
LintReport audit_runtime(const TaskGraph& g, const FaultPlan& world,
                         const runtime::RuntimeResult& result,
                         const AuditOptions& options = {});

}  // namespace flb::analysis
