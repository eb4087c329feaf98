#include "flb/analysis/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/runtime/failure_detector.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/util/table.hpp"

namespace flb::analysis {

namespace {

using runtime::BeliefEvent;
using runtime::BeliefKind;
using runtime::FailureDetector;
using runtime::RepairInvocation;
using runtime::RuntimeResult;

// Stable rule ids (documented in docs/analysis.md).
constexpr const char* kConfig = "audit-config";
constexpr const char* kEventOrder = "audit-event-order";
constexpr const char* kLivenessPairing = "audit-liveness-pairing";
constexpr const char* kPartitionPairing = "audit-partition-pairing";
constexpr const char* kPartitionDrop = "audit-partition-drop";
constexpr const char* kBeliefCausality = "audit-belief-causality";
constexpr const char* kQuorumSoundness = "audit-quorum-soundness";
constexpr const char* kCheckpointProvenance = "audit-checkpoint-provenance";
constexpr const char* kRepairProvenance = "audit-repair-provenance";
constexpr const char* kResultConsistency = "audit-result-consistency";
constexpr const char* kSummary = "audit-summary";

bool near(double a, double b) {
  return std::fabs(a - b) <= kTimeTolerance;
}

bool machine_level(SimEventKind k) {
  switch (k) {
    case SimEventKind::kFailure:
    case SimEventKind::kRejoin:
    case SimEventKind::kSlowdownBegin:
    case SimEventKind::kSlowdownEnd:
    case SimEventKind::kLinkPartitioned:
    case SimEventKind::kLinkHealed:
      return true;
    case SimEventKind::kTaskKilled:
    case SimEventKind::kMessageDropped:
      return false;
  }
  return false;
}

const char* kind_name(SimEventKind k) {
  switch (k) {
    case SimEventKind::kFailure: return "failure";
    case SimEventKind::kRejoin: return "rejoin";
    case SimEventKind::kSlowdownBegin: return "slowdown-begin";
    case SimEventKind::kSlowdownEnd: return "slowdown-end";
    case SimEventKind::kTaskKilled: return "task-killed";
    case SimEventKind::kMessageDropped: return "message-dropped";
    case SimEventKind::kLinkPartitioned: return "link-partitioned";
    case SimEventKind::kLinkHealed: return "link-healed";
  }
  return "unknown";
}

/// Per-processor dead windows [death, rejoin) from the resolved plan, the
/// last one possibly extending to infinity — the same canonical view the
/// failure detector keeps.
std::vector<std::vector<std::pair<Cost, Cost>>> down_windows(
    const ResolvedFaults& resolved, ProcId procs) {
  std::vector<std::vector<Cost>> deaths(procs);
  std::vector<std::vector<Cost>> boots(procs);
  for (const ProcFailure& f : resolved.failures)
    deaths[f.proc].push_back(f.time);
  for (const ProcRejoin& r : resolved.rejoins) boots[r.proc].push_back(r.time);
  std::vector<std::vector<std::pair<Cost, Cost>>> windows(procs);
  for (ProcId p = 0; p < procs; ++p) {
    std::sort(deaths[p].begin(), deaths[p].end());
    std::sort(boots[p].begin(), boots[p].end());
    for (std::size_t i = 0; i < deaths[p].size(); ++i)
      windows[p].push_back({deaths[p][i], i < boots[p].size()
                                              ? boots[p][i]
                                              : kInfiniteTime});
  }
  return windows;
}

bool alive_at(const std::vector<std::vector<std::pair<Cost, Cost>>>& windows,
              ProcId p, Cost t) {
  for (const auto& w : windows[p])
    if (t >= w.first && t < w.second) return false;
  return true;
}

// --- audit-event-order ------------------------------------------------------

void event_order_rule(const TaskGraph& g, const RuntimeResult& result,
                      LintReport& report) {
  const ProcId procs = result.schedule.num_procs();
  const TaskId n = g.num_tasks();
  const std::vector<SimEvent>& events = result.events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SimEvent& ev = events[i];
    auto bad = [&](const std::string& what) {
      Diagnostic& d = report.emit(kEventOrder, Severity::kError);
      d.step = i;
      d.message = "event " + std::to_string(i) + " (" +
                  kind_name(ev.kind) + "): " + what;
      d.hint = "the event log must be canonical: finite non-negative "
               "timestamps, ids in range, link endpoints proc < proc2, "
               "sorted by SimEvent::key() with no duplicate keys";
    };
    if (!std::isfinite(ev.time) || ev.time < 0.0) {
      bad("timestamp " + format_compact(ev.time) +
          " is not finite and non-negative");
      continue;
    }
    const int kind = static_cast<int>(ev.kind);
    if (kind < 0 || kind > static_cast<int>(SimEventKind::kLinkHealed)) {
      bad("unknown event kind " + std::to_string(kind));
      continue;
    }
    switch (ev.kind) {
      case SimEventKind::kFailure:
      case SimEventKind::kRejoin:
      case SimEventKind::kSlowdownBegin:
      case SimEventKind::kSlowdownEnd:
        if (ev.proc >= procs)
          bad("processor p" + std::to_string(ev.proc) + " is out of range");
        if (ev.task != kInvalidTask || ev.task2 != kInvalidTask)
          bad("machine-level event names a task");
        break;
      case SimEventKind::kTaskKilled:
        if (ev.proc >= procs)
          bad("processor p" + std::to_string(ev.proc) + " is out of range");
        if (ev.task >= n) bad("killed task is out of range");
        break;
      case SimEventKind::kMessageDropped:
        if (ev.proc >= procs)
          bad("processor p" + std::to_string(ev.proc) + " is out of range");
        if (ev.task >= n || ev.task2 >= n)
          bad("dropped message names an out-of-range task");
        break;
      case SimEventKind::kLinkPartitioned:
      case SimEventKind::kLinkHealed:
        if (ev.proc >= procs || ev.proc2 >= procs || ev.proc >= ev.proc2)
          bad("link endpoints are not canonical (proc < proc2, in range)");
        if (ev.task != kInvalidTask || ev.task2 != kInvalidTask)
          bad("link event names a task");
        break;
    }
    if (i == 0) continue;
    const SimEvent& prev = events[i - 1];
    if (ev.key() < prev.key()) {
      Diagnostic& d = report.emit(kEventOrder, Severity::kError);
      d.step = i;
      d.expected = prev.time;
      d.actual = ev.time;
      d.message = "event " + std::to_string(i) + " (" + kind_name(ev.kind) +
                  " at " + format_compact(ev.time) +
                  ") sorts before its predecessor (" + kind_name(prev.kind) +
                  " at " + format_compact(prev.time) + ")";
      d.hint = "the simulator sorts its log by SimEvent::key(); an unsorted "
               "log breaks digest stability and every consumer that replays "
               "it in order";
    } else if (ev.key() == prev.key()) {
      Diagnostic& d = report.emit(kEventOrder, Severity::kError);
      d.step = i;
      d.message = "event " + std::to_string(i) + " duplicates the key of "
                  "its predecessor (" + kind_name(ev.kind) + " at " +
                  format_compact(ev.time) + ")";
      d.hint = "SimEvent::key() is an identity: the same observation must "
               "not be logged twice";
    }
  }
}

// --- audit-liveness-pairing -------------------------------------------------

void liveness_pairing_rule(const ResolvedFaults& resolved,
                           const RuntimeResult& result, LintReport& report) {
  const ProcId procs = result.schedule.num_procs();
  std::multiset<std::pair<ProcId, Cost>> want_failures;
  std::multiset<std::pair<ProcId, Cost>> want_rejoins;
  for (const ProcFailure& f : resolved.failures)
    want_failures.insert({f.proc, f.time});
  for (const ProcRejoin& r : resolved.rejoins)
    want_rejoins.insert({r.proc, r.time});

  // Per-processor (time, is_rejoin) sequences, sorted — the pairing checks
  // are deliberately order-insensitive so a merely unsorted log fires only
  // audit-event-order.
  std::vector<std::vector<std::pair<Cost, int>>> seq(procs);
  for (const SimEvent& ev : result.events) {
    const bool fail = ev.kind == SimEventKind::kFailure;
    const bool boot = ev.kind == SimEventKind::kRejoin;
    if (!fail && !boot) continue;
    if (ev.proc >= procs) continue;  // audit-event-order owns range errors
    auto& want = fail ? want_failures : want_rejoins;
    const auto it = want.find({ev.proc, ev.time});
    if (it != want.end()) {
      want.erase(it);
    } else {
      Diagnostic& d = report.emit(kLivenessPairing, Severity::kError);
      d.proc = ev.proc;
      d.actual = ev.time;
      d.message = std::string(fail ? "failure" : "rejoin") + " of p" +
                  std::to_string(ev.proc) + " at " +
                  format_compact(ev.time) +
                  " has no counterpart in the resolved fault plan";
      d.hint = "every kFailure/kRejoin event must correspond to exactly one "
               "resolved kill/rejoin window (resolve_faults)";
    }
    seq[ev.proc].push_back({ev.time, boot ? 1 : 0});
  }
  for (const auto& [proc, time] : want_failures) {
    Diagnostic& d = report.emit(kLivenessPairing, Severity::kError);
    d.proc = proc;
    d.expected = time;
    d.message = "resolved failure of p" + std::to_string(proc) + " at " +
                format_compact(time) + " is missing from the event log";
    d.hint = "machine-level events are emitted unconditionally from the "
             "resolved plan; a missing one means the log was truncated or "
             "tampered with";
  }
  for (const auto& [proc, time] : want_rejoins) {
    Diagnostic& d = report.emit(kLivenessPairing, Severity::kError);
    d.proc = proc;
    d.expected = time;
    d.message = "resolved rejoin of p" + std::to_string(proc) + " at " +
                format_compact(time) + " is missing from the event log";
    d.hint = "machine-level events are emitted unconditionally from the "
             "resolved plan; a missing one means the log was truncated or "
             "tampered with";
  }
  for (ProcId p = 0; p < procs; ++p) {
    std::sort(seq[p].begin(), seq[p].end());
    int expect = 0;  // 0 = failure next, 1 = rejoin next
    Cost prev = -kInfiniteTime;
    for (const auto& [time, is_rejoin] : seq[p]) {
      if (is_rejoin != expect) {
        Diagnostic& d = report.emit(kLivenessPairing, Severity::kError);
        d.proc = p;
        d.actual = time;
        d.message = std::string(is_rejoin != 0 ? "rejoin" : "failure") +
                    " of p" + std::to_string(p) + " at " +
                    format_compact(time) +
                    (is_rejoin != 0 ? " without a preceding failure"
                                    : " while already observed dead");
        d.hint = "kill/rejoin events of one processor must strictly "
                 "alternate, starting with a failure";
        continue;  // keep the expected phase: one orphan, one diagnostic
      }
      if (time <= prev) {
        Diagnostic& d = report.emit(kLivenessPairing, Severity::kError);
        d.proc = p;
        d.actual = time;
        d.message = "kill/rejoin events of p" + std::to_string(p) +
                    " do not strictly increase in time";
        d.hint = "kill/rejoin windows of one processor are disjoint by "
                 "construction (FaultPlan::validate)";
      }
      prev = time;
      expect = 1 - expect;
    }
  }
}

// --- audit-partition-pairing ------------------------------------------------

void partition_pairing_rule(const std::vector<LinkOutage>& outages,
                            const RuntimeResult& result, LintReport& report) {
  const ProcId procs = result.schedule.num_procs();
  using Link = std::pair<ProcId, ProcId>;
  std::multiset<std::tuple<ProcId, ProcId, Cost>> want_cuts;
  std::multiset<std::tuple<ProcId, ProcId, Cost>> want_heals;
  for (const LinkOutage& w : outages) {
    want_cuts.insert({w.a, w.b, w.time});
    if (w.until != kInfiniteTime) want_heals.insert({w.a, w.b, w.until});
  }
  std::map<Link, std::vector<std::pair<Cost, int>>> seq;
  for (const SimEvent& ev : result.events) {
    const bool cut = ev.kind == SimEventKind::kLinkPartitioned;
    const bool heal = ev.kind == SimEventKind::kLinkHealed;
    if (!cut && !heal) continue;
    if (ev.proc >= procs || ev.proc2 >= procs || ev.proc >= ev.proc2)
      continue;  // audit-event-order owns canonical-form errors
    auto& want = cut ? want_cuts : want_heals;
    const auto it = want.find({ev.proc, ev.proc2, ev.time});
    if (it != want.end()) {
      want.erase(it);
    } else {
      Diagnostic& d = report.emit(kPartitionPairing, Severity::kError);
      d.proc = ev.proc;
      d.actual = ev.time;
      d.message = std::string(cut ? "link-partitioned" : "link-healed") +
                  " p" + std::to_string(ev.proc) + "~p" +
                  std::to_string(ev.proc2) + " at " +
                  format_compact(ev.time) +
                  " has no counterpart in the resolved outage windows";
      d.hint = "every link event must correspond to exactly one canonical "
               "outage window (resolve_partitions)";
    }
    seq[{ev.proc, ev.proc2}].push_back({ev.time, heal ? 1 : 0});
  }
  for (const auto& [a, b, time] : want_cuts) {
    Diagnostic& d = report.emit(kPartitionPairing, Severity::kError);
    d.proc = a;
    d.expected = time;
    d.message = "resolved partition of p" + std::to_string(a) + "~p" +
                std::to_string(b) + " at " + format_compact(time) +
                " is missing from the event log";
    d.hint = "link events are emitted unconditionally from the resolved "
             "outage windows";
  }
  for (const auto& [a, b, time] : want_heals) {
    Diagnostic& d = report.emit(kPartitionPairing, Severity::kError);
    d.proc = a;
    d.expected = time;
    d.message = "resolved heal of p" + std::to_string(a) + "~p" +
                std::to_string(b) + " at " + format_compact(time) +
                " is missing from the event log";
    d.hint = "link events are emitted unconditionally from the resolved "
             "outage windows";
  }
  for (auto& [link, entries] : seq) {
    std::sort(entries.begin(), entries.end());
    int expect = 0;  // 0 = cut next, 1 = heal next
    Cost prev = -kInfiniteTime;
    for (const auto& [time, is_heal] : entries) {
      if (is_heal != expect) {
        Diagnostic& d = report.emit(kPartitionPairing, Severity::kError);
        d.proc = link.first;
        d.actual = time;
        d.message = std::string(is_heal != 0 ? "heal" : "cut") + " of p" +
                    std::to_string(link.first) + "~p" +
                    std::to_string(link.second) + " at " +
                    format_compact(time) +
                    (is_heal != 0 ? " without a preceding cut"
                                  : " while the link is already cut");
        d.hint = "cut/heal events of one link must strictly alternate, "
                 "starting with a cut (windows are merged and disjoint)";
        continue;
      }
      if (time <= prev) {
        Diagnostic& d = report.emit(kPartitionPairing, Severity::kError);
        d.proc = link.first;
        d.actual = time;
        d.message = "cut/heal events of p" + std::to_string(link.first) +
                    "~p" + std::to_string(link.second) +
                    " do not strictly increase in time";
        d.hint = "canonical outage windows of one link are disjoint and "
                 "sorted";
      }
      prev = time;
      expect = 1 - expect;
    }
  }
}

// --- audit-partition-drop ---------------------------------------------------

void partition_drop_rule(const TaskGraph& g, const FaultPlan& world,
                         const std::vector<LinkOutage>& outages,
                         const RuntimeResult& result, LintReport& report) {
  const ProcId procs = result.schedule.num_procs();
  const TaskId n = g.num_tasks();

  std::size_t drops = 0;
  std::size_t partition_drops = 0;
  std::multiset<std::pair<TaskId, TaskId>> logged_pairs;
  for (std::size_t i = 0; i < result.events.size(); ++i) {
    const SimEvent& ev = result.events[i];
    if (ev.kind != SimEventKind::kMessageDropped) continue;
    if (ev.task >= n || ev.task2 >= n || ev.proc >= procs)
      continue;  // audit-event-order owns range errors
    ++drops;
    logged_pairs.insert({ev.task, ev.task2});
    auto bad = [&](const std::string& what, const std::string& hint) {
      Diagnostic& d = report.emit(kPartitionDrop, Severity::kError);
      d.task = ev.task;
      d.proc = ev.proc;
      d.step = i;
      d.message = "dropped message t" + std::to_string(ev.task) + " -> t" +
                  std::to_string(ev.task2) + " at " +
                  format_compact(ev.time) + ": " + what;
      d.hint = hint;
    };
    const auto succs = g.successors(ev.task);
    std::size_t pos = succs.size();
    for (std::size_t k = 0; k < succs.size(); ++k)
      if (succs[k].node == ev.task2) {
        pos = k;
        break;
      }
    if (pos == succs.size()) {
      bad("the graph has no such edge",
          "a drop event must name an existing (producer, consumer) edge");
      continue;
    }
    if (!result.schedule.is_scheduled(ev.task) ||
        !result.schedule.is_scheduled(ev.task2)) {
      bad("producer or consumer is not scheduled",
          "the final continuation must place both endpoints of a dropped "
          "message");
      continue;
    }
    const ProcId from = result.schedule.proc(ev.task);
    const ProcId to = result.schedule.proc(ev.task2);
    if (from != ev.proc) {
      bad("the event names p" + std::to_string(ev.proc) +
              " but the final schedule runs the producer on p" +
              std::to_string(from),
          "a drop is observed by the producer's processor");
      continue;
    }
    if (from == to) {
      bad("producer and consumer are colocated — a local edge sends no "
          "message",
          "only remote edges resolve message fates");
      continue;
    }
    const Cost finish = ev.task < result.execution.finish.size()
                            ? result.execution.finish[ev.task]
                            : kUndefinedTime;
    if (finish == kUndefinedTime || !std::isfinite(finish)) {
      bad("the producer never finished in the final execution",
          "a message is only emitted — and can only be dropped — at its "
          "producer's completion");
      continue;
    }
    const MessageOutcome fate =
        resolve_message(world, g.out_edge_begin(ev.task) + pos);
    if (fate.dropped) {
      const Cost expected = finish + fate.retry_delay;
      if (!near(ev.time, expected)) {
        Diagnostic& d = report.emit(kPartitionDrop, Severity::kError);
        d.task = ev.task;
        d.proc = ev.proc;
        d.step = i;
        d.expected = expected;
        d.actual = ev.time;
        d.message = "retry-exhausted drop t" + std::to_string(ev.task) +
                    " -> t" + std::to_string(ev.task2) +
                    " is logged at " + format_compact(ev.time) +
                    " but the exhausted timeouts expire at " +
                    format_compact(expected);
        d.hint = "the sender observes a retry-exhausted loss once all "
                 "timeouts have expired: producer finish + retry_delay";
      }
      continue;
    }
    // Not a retry exhaustion: the only legitimate cause left is a full
    // partition with no detour and no future heal at the send instant.
    const Cost send_start = finish + fate.retry_delay;
    ++partition_drops;
    if (!link_partitioned(outages, from, to, send_start)) {
      bad("the direct link p" + std::to_string(from) + "~p" +
              std::to_string(to) + " is up at the send instant " +
              format_compact(send_start),
          "a partition drop requires the direct link to be cut when the "
          "message is sent");
      continue;
    }
    if (reroute_hops(outages, procs, from, to, send_start) != 0) {
      bad("a live detour connects the endpoints at the send instant",
          "the simulator reroutes over live paths; only fully disconnected "
          "endpoints drop");
      continue;
    }
    Cost heal = kInfiniteTime;
    for (const LinkOutage& w : outages)
      if (w.until != kInfiniteTime && w.until > send_start && w.until < heal &&
          reroute_hops(outages, procs, from, to, w.until) > 0)
        heal = w.until;
    if (heal != kInfiniteTime) {
      bad("a heal at " + format_compact(heal) + " restores a path — the "
          "message should have been held back, not dropped",
          "the simulator holds a disconnected message to the earliest heal "
          "that restores a path");
      continue;
    }
    if (!near(ev.time, send_start)) {
      Diagnostic& d = report.emit(kPartitionDrop, Severity::kError);
      d.task = ev.task;
      d.proc = ev.proc;
      d.step = i;
      d.expected = send_start;
      d.actual = ev.time;
      d.message = "partition drop t" + std::to_string(ev.task) + " -> t" +
                  std::to_string(ev.task2) + " is logged at " +
                  format_compact(ev.time) + " but the send instant is " +
                  format_compact(send_start);
      d.hint = "a partition drop is observed at the send instant itself";
    }
  }

  const SimResult& ex = result.execution;
  if (drops != ex.dropped_messages) {
    Diagnostic& d = report.emit(kPartitionDrop, Severity::kError);
    d.expected = static_cast<Cost>(ex.dropped_messages);
    d.actual = static_cast<Cost>(drops);
    d.message = "the log records " + std::to_string(drops) +
                " dropped messages but the execution counted " +
                std::to_string(ex.dropped_messages);
    d.hint = "every permanent loss emits exactly one kMessageDropped event";
  }
  if (partition_drops != ex.partition_dropped) {
    Diagnostic& d = report.emit(kPartitionDrop, Severity::kError);
    d.expected = static_cast<Cost>(ex.partition_dropped);
    d.actual = static_cast<Cost>(partition_drops);
    d.message = "the log implies " + std::to_string(partition_drops) +
                " partition drops but the execution counted " +
                std::to_string(ex.partition_dropped);
    d.hint = "a drop whose message fate is not `dropped` can only be a "
             "partition drop";
  }
  std::multiset<std::pair<TaskId, TaskId>> executed_pairs(
      ex.dropped_edges.begin(), ex.dropped_edges.end());
  if (logged_pairs != executed_pairs) {
    Diagnostic& d = report.emit(kPartitionDrop, Severity::kError);
    d.message = "the (producer, consumer) pairs of the drop events disagree "
                "with SimResult::dropped_edges";
    d.hint = "dropped_edges and the kMessageDropped events describe the "
             "same losses and must match as multisets";
  }
}

// --- audit-belief-causality -------------------------------------------------

void belief_causality_rule(const FaultPlan& world, const FailureDetector& det,
                           const RuntimeResult& result,
                           const AuditOptions& opt, LintReport& report) {
  const ProcId procs = result.schedule.num_procs();
  const std::vector<BeliefEvent>& beliefs = result.beliefs;
  std::vector<int> level(procs, 0);
  Cost prev = -kInfiniteTime;
  for (std::size_t i = 0; i < beliefs.size(); ++i) {
    const BeliefEvent& b = beliefs[i];
    auto bad = [&](const std::string& what, const std::string& hint) {
      Diagnostic& d = report.emit(kBeliefCausality, Severity::kError);
      d.proc = b.proc;
      d.step = i;
      d.message = "belief " + std::to_string(i) + " (p" +
                  std::to_string(b.proc) + " at " + format_compact(b.time) +
                  "): " + what;
      d.hint = hint;
    };
    if (!std::isfinite(b.time) || b.time < 0.0) {
      bad("timestamp is not finite and non-negative",
          "belief timestamps are arrival/threshold instants, always finite");
      continue;
    }
    if (b.proc >= procs) {
      bad("subject processor is out of range",
          "beliefs name processors of the audited machine");
      continue;
    }
    if (b.time < prev) {
      Diagnostic& d = report.emit(kBeliefCausality, Severity::kError);
      d.proc = b.proc;
      d.step = i;
      d.expected = prev;
      d.actual = b.time;
      d.message = "belief " + std::to_string(i) + " at " +
                  format_compact(b.time) +
                  " precedes an earlier consumed belief at " +
                  format_compact(prev);
      d.hint = "the controller consumes the prefix-stable belief stream in "
               "time order; a regression means the stream was reordered";
    }
    prev = std::max(prev, b.time);
    switch (b.kind) {
      case BeliefKind::kSuspected:
        if (level[b.proc] != 0)
          bad("suspected while already suspected or confirmed",
              "a suspicion opens from the trusted state only; suspect -> "
              "confirm -> exonerate is the legal order");
        level[b.proc] = 1;
        break;
      case BeliefKind::kConfirmedDead:
        if (level[b.proc] != 1)
          bad("confirmed dead without an open suspicion",
              "a confirmation must escalate an existing suspicion — the "
              "accrual score crosses suspect_after before confirm_after");
        level[b.proc] = 2;
        break;
      case BeliefKind::kExonerated:
        if (level[b.proc] == 0)
          bad("exonerated while not suspected",
              "an exoneration closes an open suspicion or confirmation");
        level[b.proc] = 0;
        break;
    }
  }

  if (beliefs.empty()) return;
  const Cost horizon = prev;
  if (!opt.use_gossip) {
    // The consumed stream must be exactly a prefix of the re-derived
    // observer-0 stream (prefix stability is what makes incremental
    // consumption sound). The gossip aggregate is instead audited by
    // audit-quorum-soundness, observer by observer.
    const std::vector<BeliefEvent> stream = det.beliefs(horizon);
    for (std::size_t i = 0; i < beliefs.size(); ++i) {
      const BeliefEvent& b = beliefs[i];
      if (i >= stream.size() || stream[i].key() != b.key() ||
          !near(stream[i].last_heard, b.last_heard) ||
          !near(stream[i].score, b.score)) {
        Diagnostic& d = report.emit(kBeliefCausality, Severity::kError);
        d.proc = b.proc;
        d.step = i;
        d.actual = b.time;
        d.message = "consumed belief " + std::to_string(i) + " (p" +
                    std::to_string(b.proc) + " at " +
                    format_compact(b.time) +
                    ") is not the corresponding event of the re-derived "
                    "detector stream";
        d.hint = "FailureDetector::beliefs is a pure function of (plan, "
                 "procs); the consumed stream must be one of its prefixes";
        break;  // one desynchronization, one diagnostic
      }
    }
    // Exoneration audibility: re-derive the arrival process from the raw
    // heartbeat config — every exoneration must coincide with a beat that
    // actually arrived.
    const Cost period = world.heartbeat.period;
    for (std::size_t i = 0; i < beliefs.size(); ++i) {
      const BeliefEvent& b = beliefs[i];
      if (b.kind != BeliefKind::kExonerated) continue;
      const auto kmax = static_cast<std::uint64_t>(b.time / period) + 2;
      bool audible = false;
      for (std::uint64_t k = 1; k <= kmax && !audible; ++k)
        audible = near(det.arrival(b.proc, k), b.time);
      if (!audible) {
        Diagnostic& d = report.emit(kBeliefCausality, Severity::kError);
        d.proc = b.proc;
        d.step = i;
        d.actual = b.time;
        d.message = "exoneration of p" + std::to_string(b.proc) + " at " +
                    format_compact(b.time) +
                    " coincides with no audible heartbeat arrival";
        d.hint = "only an arriving heartbeat can exonerate a suspect; lost "
                 "and partition-cut beats are inaudible";
      }
    }
  }
}

// --- audit-quorum-soundness -------------------------------------------------

void quorum_soundness_rule(
    const FailureDetector& det,
    const std::vector<std::vector<std::pair<Cost, Cost>>>& down,
    const std::vector<LinkOutage>& outages, const RuntimeResult& result,
    const AuditOptions& opt, LintReport& report) {
  const ProcId procs = result.schedule.num_procs();
  const std::vector<BeliefEvent>& beliefs = result.beliefs;
  Cost horizon = 0.0;
  for (const BeliefEvent& b : beliefs)
    if (std::isfinite(b.time)) horizon = std::max(horizon, b.time);
  // Per-observer streams, re-derived once; prefix-stable, so the level an
  // observer holds at any t <= horizon is a scan of its stream.
  std::vector<std::vector<BeliefEvent>> views(procs);
  for (ProcId o = 0; o < procs; ++o) views[o] = det.beliefs(o, horizon);

  for (std::size_t i = 0; i < beliefs.size(); ++i) {
    const BeliefEvent& b = beliefs[i];
    if (b.proc >= procs || !std::isfinite(b.time)) continue;
    const bool confirm = b.kind == BeliefKind::kConfirmedDead;
    if (b.kind != BeliefKind::kSuspected && !confirm) continue;
    const int need = confirm ? 2 : 1;
    ProcId concurring = 0;
    for (ProcId o = 0; o < procs; ++o) {
      if (o == b.proc) continue;
      if (!alive_at(down, o, b.time)) continue;
      if (link_partitioned(outages, o, b.proc, b.time)) continue;
      int level = 0;
      for (const BeliefEvent& v : views[o]) {
        if (v.time > b.time) break;
        if (v.proc != b.proc) continue;
        level = v.kind == BeliefKind::kExonerated     ? 0
                : v.kind == BeliefKind::kSuspected    ? 1
                                                      : 2;
      }
      if (level >= need) ++concurring;
    }
    if (concurring < opt.quorum) {
      Diagnostic& d = report.emit(kQuorumSoundness, Severity::kError);
      d.proc = b.proc;
      d.step = i;
      d.expected = static_cast<Cost>(opt.quorum);
      d.actual = static_cast<Cost>(concurring);
      d.message = std::string(confirm ? "confirmation" : "suspicion") +
                  " of p" + std::to_string(b.proc) + " at " +
                  format_compact(b.time) + " is backed by only " +
                  std::to_string(concurring) +
                  " eligible concurring observer(s)";
      d.hint = "a cluster-wide belief requires >= quorum observers that are "
               "alive with an uncut direct link to the subject and whose "
               "own re-derived streams concur";
    }
  }
}

// --- audit-checkpoint-provenance --------------------------------------------

void checkpoint_provenance_rule(const TaskGraph& g, const FaultPlan& world,
                                const RuntimeResult& result,
                                LintReport& report) {
  const TaskId n = g.num_tasks();
  const std::vector<Cost> bl = bottom_levels(g);
  // Last kill event per task — SimResult::checkpointed keeps the last
  // claim, so that is the one that must agree.
  std::vector<std::size_t> last_kill(n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < result.events.size(); ++i) {
    const SimEvent& ev = result.events[i];
    if (ev.kind != SimEventKind::kTaskKilled || ev.task >= n) continue;
    last_kill[ev.task] = i;
    auto bad = [&](const std::string& what, const std::string& hint) {
      Diagnostic& d = report.emit(kCheckpointProvenance, Severity::kError);
      d.task = ev.task;
      d.proc = ev.proc;
      d.step = i;
      d.actual = ev.value;
      d.message = "kill of t" + std::to_string(ev.task) + " at " +
                  format_compact(ev.time) + " claims " +
                  format_compact(ev.value) + " checkpointed work: " + what;
      d.hint = hint;
    };
    if (!std::isfinite(ev.value) || ev.value < 0.0) {
      bad("the claim is not finite and non-negative",
          "durably checkpointed work is a non-negative amount of "
          "computation");
      continue;
    }
    Cost bound = g.comp(ev.task) * runtime_factor(world, ev.task);
    if (ev.task < result.durations.size() &&
        result.durations[ev.task] != kUndefinedTime &&
        std::isfinite(result.durations[ev.task]))
      bound = std::max(bound, result.durations[ev.task]);
    if (ev.value > bound + kTimeTolerance) {
      Diagnostic& d = report.emit(kCheckpointProvenance, Severity::kError);
      d.task = ev.task;
      d.proc = ev.proc;
      d.step = i;
      d.expected = bound;
      d.actual = ev.value;
      d.message = "kill of t" + std::to_string(ev.task) + " claims " +
                  format_compact(ev.value) +
                  " checkpointed work but the task never ran more than " +
                  format_compact(bound);
      d.hint = "resumed work must not exceed the work the task ever "
               "performed — an inflated claim would resurrect computation "
               "that never happened";
    }
    if (ev.value > kTimeTolerance && !world.checkpoint.enabled())
      bad("the plan checkpoints nothing",
          "with checkpointing disabled a killed task restarts from zero");
    else if (ev.value > kTimeTolerance && !world.checkpoint.covers(bl[ev.task]))
      bad("the criticality threshold does not cover this task",
          "CheckpointPolicy::min_downstream gates durable writes by bottom "
          "level; an uncovered task can save nothing");
  }
  for (TaskId t = 0; t < n; ++t) {
    const Cost recorded = t < result.execution.checkpointed.size()
                              ? result.execution.checkpointed[t]
                              : 0.0;
    if (last_kill[t] == static_cast<std::size_t>(-1)) {
      if (recorded > kTimeTolerance) {
        Diagnostic& d = report.emit(kCheckpointProvenance, Severity::kError);
        d.task = t;
        d.actual = recorded;
        d.message = "t" + std::to_string(t) + " records " +
                    format_compact(recorded) +
                    " checkpointed work but the log has no kill event for "
                    "it";
        d.hint = "SimResult::checkpointed is written only when a kill is "
                 "observed";
      }
      continue;
    }
    const SimEvent& ev = result.events[last_kill[t]];
    if (!near(ev.value, recorded)) {
      Diagnostic& d = report.emit(kCheckpointProvenance, Severity::kError);
      d.task = t;
      d.step = last_kill[t];
      d.expected = recorded;
      d.actual = ev.value;
      d.message = "the last kill of t" + std::to_string(t) + " claims " +
                  format_compact(ev.value) +
                  " checkpointed work but the execution recorded " +
                  format_compact(recorded);
      d.hint = "the final kill event and SimResult::checkpointed describe "
               "the same durable state";
    }
  }
}

// --- audit-repair-provenance ------------------------------------------------

void repair_provenance_rule(const RuntimeResult& result,
                            const AuditOptions& opt, LintReport& report) {
  std::set<std::tuple<Cost, int, ProcId, TaskId, TaskId, ProcId>> log_keys;
  for (const SimEvent& ev : result.events) log_keys.insert(ev.key());
  Cost prev_horizon = -kInfiniteTime;
  for (std::size_t i = 0; i < result.repairs.size(); ++i) {
    const RepairInvocation& inv = result.repairs[i];
    auto bad = [&](const std::string& what, const std::string& hint) {
      Diagnostic& d = report.emit(kRepairProvenance, Severity::kError);
      d.step = i;
      d.message = "repair " + std::to_string(i) + " (observed at " +
                  format_compact(inv.observed_at) + "): " + what;
      d.hint = hint;
    };
    const std::size_t batched = inv.batch.size() + inv.batch_beliefs.size();
    if (batched == 0) {
      bad("traces to an empty observation batch",
          "the controller reacts only to observations; a repair with no "
          "batch has no cause");
      continue;
    }
    if (inv.events != batched)
      bad("claims " + std::to_string(inv.events) + " coalesced events but "
              "its batch holds " + std::to_string(batched),
          "RepairInvocation::events counts exactly the batched "
          "observations");
    Cost earliest = kInfiniteTime;
    Cost latest = -kInfiniteTime;
    for (const SimEvent& ev : inv.batch) {
      earliest = std::min(earliest, ev.time);
      latest = std::max(latest, ev.time);
      if (machine_level(ev.kind) && log_keys.count(ev.key()) == 0)
        bad("batched " + std::string(kind_name(ev.kind)) + " at " +
                format_compact(ev.time) +
                " does not appear in the final event log",
            "machine-level events are schedule-independent: one the "
            "controller consumed must exist in every execution's log");
    }
    for (const BeliefEvent& b : inv.batch_beliefs) {
      earliest = std::min(earliest, b.time);
      latest = std::max(latest, b.time);
    }
    if (!near(earliest, inv.observed_at))
      bad("its earliest batched observation is at " +
              format_compact(earliest) + ", not the claimed " +
              format_compact(inv.observed_at),
          "observed_at is the timestamp of the batch's first new "
          "observation");
    if (latest > inv.observed_at + opt.debounce + kTimeTolerance)
      bad("a batched observation at " + format_compact(latest) +
              " lies beyond the debounce window ending at " +
              format_compact(inv.observed_at + opt.debounce),
          "a batch spans [observed_at, observed_at + debounce]");
    if (inv.horizon + kTimeTolerance < inv.observed_at + opt.debounce)
      bad("its horizon " + format_compact(inv.horizon) +
              " does not cover the debounce window",
          "the repair horizon is at least the end of the window the "
          "controller waited out");
    if (inv.horizon < prev_horizon - kTimeTolerance)
      bad("its horizon " + format_compact(inv.horizon) +
              " regresses below the previous reaction's " +
              format_compact(prev_horizon),
          "observation horizons only grow (HorizonFaultView::advance is "
          "monotone)");
    prev_horizon = std::max(prev_horizon, inv.horizon);
    if (!opt.use_detector && !inv.batch_beliefs.empty())
      bad("batched beliefs without detector mode",
          "only the detector loop consumes beliefs");
    if (inv.deferred && inv.schedule_digest != 0)
      bad("is deferred but carries a schedule digest",
          "a deferred reaction installs nothing");
  }
}

// --- audit-result-consistency -----------------------------------------------

void result_consistency_rule(const FaultPlan& world,
                             const RuntimeResult& result,
                             const AuditOptions& opt, LintReport& report) {
  auto bad = [&](const std::string& what, const std::string& hint,
                 Cost expected, Cost actual) {
    Diagnostic& d = report.emit(kResultConsistency, Severity::kError);
    d.expected = expected;
    d.actual = actual;
    d.message = what;
    d.hint = hint;
  };
  const std::uint64_t event_digest =
      runtime::fnv1a_digest(runtime::event_log_text(result.events));
  if (event_digest != result.event_digest)
    bad("the recomputed event-log digest disagrees with the recorded one",
        "RuntimeResult::event_digest is FNV-1a over event_log_text(events)",
        kUndefinedTime, kUndefinedTime);
  if (schedule_digest(result.schedule) != result.schedule_digest)
    bad("the recomputed schedule digest disagrees with the recorded one",
        "RuntimeResult::schedule_digest is schedule_digest(schedule): "
        "FNV-1a over the final schedule's placement bits",
        kUndefinedTime, kUndefinedTime);
  const bool detector_ok = opt.use_detector && world.heartbeat.enabled();
  if (detector_ok) {
    const std::uint64_t belief_digest =
        runtime::fnv1a_digest(runtime::belief_log_text(result.beliefs));
    if (belief_digest != result.belief_digest)
      bad("the recomputed belief digest disagrees with the recorded one",
          "RuntimeResult::belief_digest is FNV-1a over "
          "belief_log_text(beliefs)",
          kUndefinedTime, kUndefinedTime);
  } else if (!opt.use_detector &&
             (!result.beliefs.empty() || result.belief_digest != 0)) {
    bad("a non-detector episode carries consumed beliefs",
        "without use_detector the belief stream stays empty and its digest "
        "0",
        0.0, static_cast<Cost>(result.beliefs.size()));
  }

  Cost makespan = 0.0;
  for (const Cost f : result.execution.finish)
    if (f != kUndefinedTime && std::isfinite(f))
      makespan = std::max(makespan, f);
  if (!near(result.execution.makespan, makespan))
    bad("the execution's makespan is not the latest completed finish",
        "SimResult::makespan is max finish over completed tasks", makespan,
        result.execution.makespan);
  if (!near(result.makespan, result.execution.makespan))
    bad("the result's makespan disagrees with its execution",
        "RuntimeResult::makespan restates the final execution's makespan",
        result.execution.makespan, result.makespan);

  std::vector<TaskId> unfinished;
  for (TaskId t = 0; t < result.execution.finish.size(); ++t)
    if (result.execution.finish[t] == kUndefinedTime)
      unfinished.push_back(static_cast<TaskId>(t));
  if (unfinished != result.execution.unfinished)
    bad("SimResult::unfinished disagrees with the finish array",
        "a task is unfinished iff its finish is undefined",
        static_cast<Cost>(unfinished.size()),
        static_cast<Cost>(result.execution.unfinished.size()));
  if (result.complete != result.execution.complete())
    bad("the completeness flag disagrees with the execution",
        "RuntimeResult::complete restates SimResult::complete()",
        result.execution.complete() ? 1.0 : 0.0, result.complete ? 1.0 : 0.0);
}

}  // namespace

const std::vector<RuleInfo>& audit_rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      {kConfig, Severity::kError,
       "the audit options describe an episode the plan can produce"},
      {kEventOrder, Severity::kError,
       "the event log is canonical: sorted by key, unique, finite, in range"},
      {kLivenessPairing, Severity::kError,
       "kill/rejoin events match the resolved plan and alternate per "
       "processor"},
      {kPartitionPairing, Severity::kError,
       "cut/heal events match the resolved outage windows and alternate per "
       "link"},
      {kPartitionDrop, Severity::kError,
       "every dropped message re-resolves to an exhausted retry budget or a "
       "genuine no-detour partition cut"},
      {kBeliefCausality, Severity::kError,
       "consumed beliefs are ordered, per-processor legal, a prefix of the "
       "re-derived stream, and exonerations are audible"},
      {kQuorumSoundness, Severity::kError,
       "every cluster-wide suspicion is backed by >= quorum eligible "
       "concurring observers"},
      {kCheckpointProvenance, Severity::kError,
       "no kill claims more durably checkpointed work than the task ran or "
       "than the policy covers"},
      {kRepairProvenance, Severity::kError,
       "every repair traces to a debounced batch inside its window, with "
       "monotone horizons"},
      {kResultConsistency, Severity::kError,
       "digests, makespan and completeness restate the audited record"},
      {kSummary, Severity::kInfo, "episode summary"},
  };
  return rules;
}

LintReport audit_runtime(const TaskGraph& g, const FaultPlan& world,
                         const runtime::RuntimeResult& result,
                         const AuditOptions& options) {
  LintReport report;
  const ProcId procs = result.schedule.num_procs();
  const TaskId n = g.num_tasks();

  if (result.schedule.num_tasks() != n || procs == 0) {
    Diagnostic& d = report.emit(kConfig, Severity::kError);
    d.message = "the result's schedule does not describe the audited graph "
                "(task count or processor count mismatch)";
    d.hint = "audit the RuntimeResult against the graph and plan of the "
             "same episode";
    return report;
  }
  if (!std::isfinite(options.debounce) || options.debounce < 0.0) {
    Diagnostic& d = report.emit(kConfig, Severity::kError);
    d.actual = options.debounce;
    d.message = "the debounce window must be finite and non-negative";
    d.hint = "pass the RuntimeOptions::debounce the episode actually used";
    return report;
  }
  if (options.use_gossip && !options.use_detector) {
    Diagnostic& d = report.emit(kConfig, Severity::kError);
    d.message = "gossip mode implies detector mode";
    d.hint = "use_gossip refines how beliefs are aggregated; without "
             "use_detector there is no belief stream to aggregate";
  }
  const bool detector_ok = options.use_detector && world.heartbeat.enabled();
  if (options.use_detector && !world.heartbeat.enabled()) {
    Diagnostic& d = report.emit(kConfig, Severity::kError);
    d.message = "detector mode requires the plan's heartbeat section";
    d.hint = "an episode cannot have consumed beliefs from a plan that "
             "emits no heartbeats (heartbeat.period > 0)";
  }
  if (options.use_gossip && options.quorum < 1) {
    Diagnostic& d = report.emit(kConfig, Severity::kError);
    d.actual = static_cast<Cost>(options.quorum);
    d.message = "the gossip quorum must be >= 1";
    d.hint = "FailureDetector::quorum_beliefs requires a positive quorum";
  }

  const ResolvedFaults resolved = resolve_faults(world);
  const std::vector<LinkOutage> outages = resolve_partitions(world);

  event_order_rule(g, result, report);
  liveness_pairing_rule(resolved, result, report);
  partition_pairing_rule(outages, result, report);
  partition_drop_rule(g, world, outages, result, report);
  checkpoint_provenance_rule(g, world, result, report);
  repair_provenance_rule(result, options, report);
  if (detector_ok) {
    const FailureDetector det(world, procs);
    belief_causality_rule(world, det, result, options, report);
    if (options.use_gossip && options.quorum >= 1)
      quorum_soundness_rule(det, down_windows(resolved, procs), outages,
                            result, options, report);
  }
  result_consistency_rule(world, result, options, report);

  Diagnostic& d = report.emit(kSummary, Severity::kInfo);
  d.message = std::to_string(result.events.size()) + " events, " +
              std::to_string(result.beliefs.size()) + " beliefs, " +
              std::to_string(result.repairs.size()) +
              " repairs; makespan " + format_compact(result.makespan) +
              (result.complete ? ", complete" : ", INCOMPLETE");
  d.hint = "summary only — the audited record, not a finding";
  return report;
}

}  // namespace flb::analysis
