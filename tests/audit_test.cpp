// The runtime auditor (flb::analysis::audit_runtime): clean recovery
// episodes in all three controller modes certify with zero errors, and
// every error rule is demonstrated live by a mutation self-test — a
// tampered copy of a real episode (reordered events, orphan rejoin, forged
// quorum confirmation, inflated checkpoint claim, ...) must fire exactly
// the rule built to catch it. Mutations recompute
// the result digests after tampering, so audit-result-consistency stays
// quiet and cannot mask a weaker rule. Also pins the flb_lint --json
// report schema with a golden output.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "flb/analysis/audit.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/runtime/failure_detector.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"

namespace flb {
namespace {

using analysis::AuditOptions;
using analysis::Diagnostic;
using analysis::LintReport;
using analysis::Severity;
using analysis::audit_rule_catalogue;
using analysis::audit_runtime;
using runtime::BeliefEvent;
using runtime::BeliefKind;
using runtime::RuntimeOptions;
using runtime::RuntimeResult;
using runtime::belief_log_text;
using runtime::event_log_text;
using runtime::fnv1a_digest;
using runtime::run_online_recovery;

TaskGraph unit_tasks(TaskId n) {
  TaskGraphBuilder b;
  for (TaskId t = 0; t < n; ++t) b.add_task(1.0);
  return std::move(b).build();
}

Schedule strip_schedule(TaskId tasks, ProcId procs, TaskId per_proc) {
  Schedule s(procs, tasks);
  for (TaskId t = 0; t < tasks; ++t) {
    const ProcId p = static_cast<ProcId>(t / per_proc);
    const Cost start = static_cast<Cost>(t % per_proc);
    s.assign(t, p, start, start + 1.0);
  }
  return s;
}

/// Recompute the digests a mutation invalidated, so result-consistency
/// stays quiet and each tampered log fires only the rule under test.
void rehash(RuntimeResult& r, bool detector) {
  r.event_digest = fnv1a_digest(event_log_text(r.events));
  r.schedule_digest = schedule_digest(r.schedule);
  r.belief_digest = detector ? fnv1a_digest(belief_log_text(r.beliefs)) : 0;
}

/// The whole report rendered as text, for assertion failure messages.
std::string report_text(const LintReport& report) {
  std::ostringstream os;
  analysis::write_report(os, report);
  return os.str();
}

/// Assert the report has at least one error and every error carries the
/// expected rule id — the "fires exactly its rule" contract.
void expect_only_rule(const LintReport& report, const std::string& rule) {
  std::size_t errors = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity != Severity::kError) continue;
    ++errors;
    EXPECT_EQ(d.rule, rule) << d.message;
  }
  EXPECT_GT(errors, 0u) << "mutation did not fire " << rule;
}

// --- Episode fixtures -------------------------------------------------------

/// Perfect-event episode: kill + rejoin + checkpointing on a 2-processor
/// strip of unit tasks — kFailure/kRejoin/kTaskKilled material.
RuntimeResult episode_perfect(const TaskGraph& g, const FaultPlan& world) {
  RuntimeOptions opt;
  opt.debounce = 0.25;
  return run_online_recovery(g, strip_schedule(12, 2, 6), world, opt);
}

FaultPlan world_perfect() {
  FaultPlan world;
  world.seed = 7;
  world.checkpoint.interval = 0.4;
  world.checkpoint.overhead = 0.05;
  world.failures.push_back({1, 2.5});
  world.rejoins.push_back({1, 6.0});
  return world;
}

/// Message-drop episode: a cross-processor edge whose every transmission
/// attempt is lost — a guaranteed retry-exhaustion kMessageDropped.
TaskGraph chain_pair_graph() {
  TaskGraphBuilder b;
  for (TaskId t = 0; t < 6; ++t) b.add_task(1.0);
  b.add_edge(0, 1, 0.1);
  b.add_edge(1, 2, 0.1);
  b.add_edge(3, 4, 0.1);
  b.add_edge(4, 5, 0.1);
  b.add_edge(0, 4, 0.1);  // the remote edge the message model kills
  return std::move(b).build();
}

Schedule chain_pair_schedule() {
  Schedule s(2, 6);
  s.assign(0, 0, 0.0, 1.0);
  s.assign(1, 0, 1.2, 2.2);
  s.assign(2, 0, 2.4, 3.4);
  s.assign(3, 1, 0.0, 1.0);
  s.assign(4, 1, 2.0, 3.0);
  s.assign(5, 1, 3.2, 4.2);
  return s;
}

FaultPlan world_drop() {
  FaultPlan world;
  world.seed = 3;
  world.message.loss_probability = 1.0;
  world.message.max_retries = 1;
  world.message.retry_timeout = 0.5;
  return world;
}

/// Detector-mode episode (observer-0 stream): a real death sensed through
/// lossless heartbeats — suspect, confirm, speculative repair.
FaultPlan world_detector() {
  FaultPlan world;
  world.seed = 5;
  world.heartbeat.period = 1.0;
  world.checkpoint.interval = 0.4;
  world.checkpoint.overhead = 0.05;
  world.failures.push_back({1, 2.5});
  return world;
}

RuntimeResult episode_detector(const TaskGraph& g, const FaultPlan& world) {
  RuntimeOptions opt;
  opt.use_detector = true;
  return run_online_recovery(g, strip_schedule(12, 2, 6), world, opt);
}

/// Gossip-mode episode on 4 processors: a real death plus a healing
/// partition window — quorum beliefs, kLinkPartitioned/kLinkHealed.
FaultPlan world_gossip() {
  FaultPlan world;
  world.seed = 13;
  world.heartbeat.period = 1.0;
  world.failures.push_back({2, 2.0});
  world.partitions.push_back({0, 3, "", "", 1.0, 9.0});
  return world;
}

RuntimeResult episode_gossip(const TaskGraph& g, const FaultPlan& world) {
  RuntimeOptions opt;
  opt.use_detector = true;
  opt.use_gossip = true;
  opt.quorum = 2;
  return run_online_recovery(g, strip_schedule(16, 4, 4), world, opt);
}

// --- Clean episodes certify -------------------------------------------------

TEST(RuntimeAudit, PerfectEventEpisodeAuditsClean) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_perfect();
  const RuntimeResult r = episode_perfect(g, world);
  ASSERT_TRUE(r.complete);
  // The final continuation routes around the dead window, so the final
  // replay keeps the machine-level failure/rejoin pair but no kill.
  EXPECT_GT(std::count_if(r.events.begin(), r.events.end(),
                          [](const SimEvent& e) {
                            return e.kind == SimEventKind::kFailure;
                          }),
            0);
  EXPECT_GT(std::count_if(r.events.begin(), r.events.end(),
                          [](const SimEvent& e) {
                            return e.kind == SimEventKind::kRejoin;
                          }),
            0);
  ASSERT_FALSE(r.repairs.empty());

  AuditOptions opt;
  opt.debounce = 0.25;
  const LintReport report = audit_runtime(g, world, r, opt);
  EXPECT_TRUE(report.clean())
      << report_text(report);
  EXPECT_EQ(report.warnings(), 0u);
}

TEST(RuntimeAudit, MessageDropEpisodeAuditsClean) {
  const TaskGraph g = chain_pair_graph();
  const FaultPlan world = world_drop();
  const RuntimeResult r =
      run_online_recovery(g, chain_pair_schedule(), world);
  EXPECT_GT(r.execution.dropped_messages + r.repairs.size(), 0u);

  const LintReport report = audit_runtime(g, world, r);
  EXPECT_TRUE(report.clean())
      << report_text(report);
}

TEST(RuntimeAudit, DetectorEpisodeAuditsClean) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_detector();
  const RuntimeResult r = episode_detector(g, world);
  ASSERT_FALSE(r.beliefs.empty());

  AuditOptions opt;
  opt.use_detector = true;
  const LintReport report = audit_runtime(g, world, r, opt);
  EXPECT_TRUE(report.clean())
      << report_text(report);
}

TEST(RuntimeAudit, GossipPartitionEpisodeAuditsClean) {
  const TaskGraph g = unit_tasks(16);
  const FaultPlan world = world_gossip();
  const RuntimeResult r = episode_gossip(g, world);
  ASSERT_FALSE(r.beliefs.empty());

  AuditOptions opt;
  opt.use_detector = true;
  opt.use_gossip = true;
  opt.quorum = 2;
  const LintReport report = audit_runtime(g, world, r, opt);
  EXPECT_TRUE(report.clean())
      << report_text(report);
}

// --- Mutation self-tests: every error rule fires ---------------------------

TEST(RuntimeAuditMutation, ReorderedEventsFireEventOrder) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_perfect();
  RuntimeResult r = episode_perfect(g, world);
  ASSERT_GE(r.events.size(), 2u);
  std::swap(r.events.front(), r.events.back());
  rehash(r, false);

  AuditOptions opt;
  opt.debounce = 0.25;
  expect_only_rule(audit_runtime(g, world, r, opt), "audit-event-order");
}

TEST(RuntimeAuditMutation, OrphanRejoinFiresLivenessPairing) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_perfect();
  RuntimeResult r = episode_perfect(g, world);

  // Processor 0 never failed: a rejoin for it is an orphan. Insert in key
  // order so only the pairing rule can object.
  SimEvent orphan;
  orphan.time = 3.0;
  orphan.kind = SimEventKind::kRejoin;
  orphan.proc = 0;
  const auto at = std::lower_bound(
      r.events.begin(), r.events.end(), orphan,
      [](const SimEvent& a, const SimEvent& b) { return a.key() < b.key(); });
  r.events.insert(at, orphan);
  rehash(r, false);

  AuditOptions opt;
  opt.debounce = 0.25;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-liveness-pairing");
}

TEST(RuntimeAuditMutation, DroppedHealFiresPartitionPairing) {
  const TaskGraph g = unit_tasks(16);
  const FaultPlan world = world_gossip();
  RuntimeResult r = episode_gossip(g, world);
  const auto heal = std::find_if(r.events.begin(), r.events.end(),
                                 [](const SimEvent& e) {
                                   return e.kind == SimEventKind::kLinkHealed;
                                 });
  ASSERT_NE(heal, r.events.end());
  r.events.erase(heal);
  rehash(r, true);

  AuditOptions opt;
  opt.use_detector = true;
  opt.use_gossip = true;
  opt.quorum = 2;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-partition-pairing");
}

TEST(RuntimeAuditMutation, ShiftedDropInstantFiresPartitionDrop) {
  const TaskGraph g = chain_pair_graph();
  const FaultPlan world = world_drop();
  RuntimeResult r = run_online_recovery(g, chain_pair_schedule(), world);
  auto drop = std::find_if(r.events.begin(), r.events.end(),
                           [](const SimEvent& e) {
                             return e.kind == SimEventKind::kMessageDropped;
                           });
  ASSERT_NE(drop, r.events.end());
  drop->time += 0.25;
  std::sort(r.events.begin(), r.events.end(),
            [](const SimEvent& a, const SimEvent& b) {
              return a.key() < b.key();
            });
  rehash(r, false);

  expect_only_rule(audit_runtime(g, world, r), "audit-partition-drop");
}

TEST(RuntimeAuditMutation, TamperedBeliefFiresBeliefCausality) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_detector();
  RuntimeResult r = episode_detector(g, world);
  ASSERT_FALSE(r.beliefs.empty());
  r.beliefs.front().score += 1.0;
  rehash(r, true);

  AuditOptions opt;
  opt.use_detector = true;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-belief-causality");
}

TEST(RuntimeAuditMutation, ForgedQuorumConfirmationFiresQuorumSoundness) {
  const TaskGraph g = unit_tasks(16);
  const FaultPlan world = world_gossip();
  RuntimeResult r = episode_gossip(g, world);

  // Pull the real confirmation back to the suspicion instant: the state
  // machine still sees suspect -> confirm, but no second observer has
  // escalated that early, so the quorum cannot have backed it.
  auto suspected = std::find_if(r.beliefs.begin(), r.beliefs.end(),
                                [](const BeliefEvent& b) {
                                  return b.kind == BeliefKind::kSuspected;
                                });
  ASSERT_NE(suspected, r.beliefs.end());
  const ProcId subject = suspected->proc;
  const Cost at = suspected->time;
  auto confirmed = std::find_if(
      r.beliefs.begin(), r.beliefs.end(), [&](const BeliefEvent& b) {
        return b.kind == BeliefKind::kConfirmedDead && b.proc == subject;
      });
  ASSERT_NE(confirmed, r.beliefs.end());
  BeliefEvent forged = *confirmed;
  forged.time = at;
  r.beliefs.erase(confirmed);
  r.beliefs.insert(std::next(std::find_if(r.beliefs.begin(), r.beliefs.end(),
                                          [&](const BeliefEvent& b) {
                                            return b.kind ==
                                                       BeliefKind::kSuspected &&
                                                   b.proc == subject;
                                          })),
                   forged);
  rehash(r, true);

  AuditOptions opt;
  opt.use_detector = true;
  opt.use_gossip = true;
  opt.quorum = 2;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-quorum-soundness");
}

TEST(RuntimeAuditMutation, InflatedCheckpointClaimFiresCheckpointProvenance) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_perfect();
  RuntimeResult r = episode_perfect(g, world);

  // A fully repaired final log carries no kill, so forge one claiming far
  // more durable work than the unit task could ever have performed. The
  // execution record is kept consistent with the forged claim, and the
  // event sits in key order — only the work bound can object.
  SimEvent kill;
  kill.time = 2.6;
  kill.kind = SimEventKind::kTaskKilled;
  kill.proc = 1;
  kill.task = 8;
  kill.value = 1000.0;
  const auto at = std::lower_bound(
      r.events.begin(), r.events.end(), kill,
      [](const SimEvent& a, const SimEvent& b) { return a.key() < b.key(); });
  r.events.insert(at, kill);
  r.execution.checkpointed[kill.task] = 1000.0;
  rehash(r, false);

  AuditOptions opt;
  opt.debounce = 0.25;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-checkpoint-provenance");
}

TEST(RuntimeAuditMutation, EmptiedBatchFiresRepairProvenance) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_perfect();
  RuntimeResult r = episode_perfect(g, world);
  ASSERT_FALSE(r.repairs.empty());
  r.repairs.front().batch.clear();
  r.repairs.front().batch_beliefs.clear();

  AuditOptions opt;
  opt.debounce = 0.25;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-repair-provenance");
}

TEST(RuntimeAuditMutation, TamperedMakespanFiresResultConsistency) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_perfect();
  RuntimeResult r = episode_perfect(g, world);
  r.makespan += 1.0;

  AuditOptions opt;
  opt.debounce = 0.25;
  expect_only_rule(audit_runtime(g, world, r, opt),
                   "audit-result-consistency");
}

TEST(RuntimeAuditMutation, DetectorClaimWithoutHeartbeatFiresConfig) {
  const TaskGraph g = unit_tasks(12);
  const FaultPlan world = world_detector();
  const RuntimeResult r = episode_detector(g, world);

  FaultPlan no_heartbeat = world;
  no_heartbeat.heartbeat = HeartbeatConfig{};
  AuditOptions opt;
  opt.use_detector = true;
  expect_only_rule(audit_runtime(g, no_heartbeat, r, opt), "audit-config");
}

// --- Catalogue and report plumbing ------------------------------------------

TEST(RuntimeAudit, CatalogueIdsAreUniqueAndStable) {
  std::set<std::string> ids;
  for (const analysis::RuleInfo& rule : audit_rule_catalogue())
    EXPECT_TRUE(ids.insert(rule.id).second) << rule.id;
  EXPECT_TRUE(ids.count("audit-event-order") == 1);
  EXPECT_TRUE(ids.count("audit-quorum-soundness") == 1);
  EXPECT_TRUE(ids.count("audit-repair-provenance") == 1);
}

/// Golden output for the machine-readable report (docs/analysis.md
/// documents this schema): optional fields are omitted, numbers use
/// round-trip precision, counts and max_severity close the object. Any
/// schema change must update docs and this pin together.
TEST(RuntimeAudit, JsonReportSchemaGolden) {
  LintReport report;
  Diagnostic error;
  error.rule = "audit-event-order";
  error.severity = Severity::kError;
  error.task = 3;
  error.proc = 1;
  error.step = 7;
  error.expected = 2.5;
  error.actual = 2.25;
  error.message = "event 7 sorts before its predecessor";
  error.hint = "the log must be sorted by SimEvent::key()";
  report.diagnostics.push_back(error);
  Diagnostic info;
  info.rule = "audit-summary";
  info.severity = Severity::kInfo;
  info.message = "4 events, 0 beliefs, 2 repairs";
  info.hint = "summary only";
  report.diagnostics.push_back(info);

  std::ostringstream out;
  analysis::write_report_json(out, report);
  EXPECT_EQ(
      out.str(),
      "{\"diagnostics\":[{\"rule\":\"audit-event-order\",\"severity\":"
      "\"error\",\"step\":7,\"task\":3,\"proc\":1,\"expected\":2.5,"
      "\"actual\":2.25,\"message\":\"event 7 sorts before its "
      "predecessor\",\"hint\":\"the log must be sorted by "
      "SimEvent::key()\"},{\"rule\":\"audit-summary\",\"severity\":"
      "\"info\",\"message\":\"4 events, 0 beliefs, 2 repairs\",\"hint\":"
      "\"summary only\"}],\"counts\":{\"error\":1,\"warn\":0,\"info\":1},"
      "\"max_severity\":\"error\"}\n");
}

}  // namespace
}  // namespace flb
