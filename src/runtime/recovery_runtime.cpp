#include "flb/runtime/recovery_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/analysis/lint.hpp"
#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/util/error.hpp"

namespace flb::runtime {

// --- HorizonFaultView -------------------------------------------------------

HorizonFaultView::HorizonFaultView(const FaultPlan& world, ProcId num_procs)
    : num_procs_(num_procs), dead_(num_procs, 0) {
  FLB_REQUIRE(num_procs > 0, "HorizonFaultView: need at least one processor");
  // Configuration scalars only: the timing of faults (failures, rejoins,
  // slowdowns, domains, bursts) stays hidden until observed.
  plan_.seed = world.seed;
  plan_.checkpoint = world.checkpoint;
  plan_.message = world.message;
  plan_.heartbeat = world.heartbeat;
  plan_.runtime_spread = world.runtime_spread;
}

void HorizonFaultView::advance(Cost horizon) {
  FLB_REQUIRE(horizon >= horizon_,
              "HorizonFaultView: the observation horizon cannot move "
              "backwards (advance to " +
                  std::to_string(horizon) + " with the horizon at " +
                  std::to_string(horizon_) + ")");
  horizon_ = horizon;
}

bool HorizonFaultView::observed(const SimEvent& event) const {
  if (event.kind == SimEventKind::kMessageDropped &&
      dropped_.count({event.task, event.task2}) != 0)
    return true;
  return seen_.count(event.key()) != 0;
}

void HorizonFaultView::observe(const SimEvent& event) {
  FLB_REQUIRE(event.time <= horizon_,
              "HorizonFaultView: an event at t=" + std::to_string(event.time) +
                  " beyond the horizon " + std::to_string(horizon_) +
                  " cannot be observed — that would be future knowledge");
  if (observed(event)) return;
  seen_.insert(event.key());
  switch (event.kind) {
    case SimEventKind::kFailure:
      plan_.failures.push_back({event.proc, event.time});
      dead_[event.proc] = 1;
      break;
    case SimEventKind::kRejoin:
      plan_.rejoins.push_back({event.proc, event.time});
      dead_[event.proc] = 0;
      break;
    case SimEventKind::kSlowdownBegin:
      // Until the end is observed the throttling must be assumed permanent.
      plan_.slowdowns.push_back(
          {event.proc, event.time, event.value, kInfiniteTime});
      break;
    case SimEventKind::kSlowdownEnd: {
      // Close the earliest still-open slowdown of this processor with the
      // matching factor. The onset always precedes the end, so it has been
      // observed already (batches are consumed in time order).
      SlowdownFault* open = nullptr;
      for (SlowdownFault& f : plan_.slowdowns)
        if (f.proc == event.proc && f.factor == event.value &&
            f.until == kInfiniteTime && (open == nullptr || f.time < open->time))
          open = &f;
      FLB_REQUIRE(open != nullptr,
                  "HorizonFaultView: slowdown end without an observed onset");
      open->until = event.time;
      break;
    }
    case SimEventKind::kTaskKilled:
      break;  // payload lives in the horizon-sliced SimResult
    case SimEventKind::kMessageDropped:
      dropped_.insert({event.task, event.task2});
      break;
    case SimEventKind::kLinkPartitioned:
      // Until the heal is observed the link must be assumed dark forever.
      plan_.partitions.push_back(
          {event.proc, event.proc2, "", "", event.time, kInfiniteTime});
      break;
    case SimEventKind::kLinkHealed: {
      // Close the earliest still-open outage of this link; the onset always
      // precedes the heal, so it has been observed already.
      PartitionFault* open = nullptr;
      for (PartitionFault& p : plan_.partitions)
        if (p.domain_a.empty() && p.domain_b.empty() &&
            p.proc_a == event.proc && p.proc_b == event.proc2 &&
            p.until == kInfiniteTime &&
            (open == nullptr || p.time < open->time))
          open = &p;
      FLB_REQUIRE(open != nullptr,
                  "HorizonFaultView: link heal without an observed onset");
      open->until = event.time;
      break;
    }
  }
}

ProcId HorizonFaultView::observed_alive() const {
  ProcId alive = 0;
  for (ProcId p = 0; p < num_procs_; ++p)
    if (dead_[p] == 0) ++alive;
  return alive;
}

// --- Digests ----------------------------------------------------------------

std::string event_log_text(const std::vector<SimEvent>& events) {
  std::string text;
  for (const SimEvent& event : events) {
    text += to_string(event);
    text += '\n';
  }
  return text;
}

// --- The controller loop ----------------------------------------------------

namespace {

// Fixed controller policy (docs/runtime.md, "Policy knobs").
/// Release delay of the first retry after a repair target fails again;
/// each further retry doubles it.
constexpr Cost kBackoffBase = 1.0;
/// Re-strikes of repair targets the optimizing engine survives; the next
/// one degrades the controller to the greedy fallback for good.
constexpr std::size_t kMaxRetries = 3;
/// Repairs use the greedy fallback below this many observed survivors.
constexpr ProcId kDegradeBelow = 2;
/// Self-tuning: the suspect-threshold multiplier grows by this factor per
/// false alarm and shrinks by it per quiet reaction.
constexpr double kTuneRaise = 1.5;

/// The slice of one simulated execution the controller is allowed to see at
/// `horizon`: placements of tasks that *finished* by then; everything else
/// (including work in flight at the horizon, whose eventual finish is not
/// yet observable) is re-planned. `checkpointed` is reconstructed from the
/// accumulated work-override bookkeeping, `dropped_edges` from the observed
/// drop events — never from the world's SimResult fields directly, which
/// embed post-horizon knowledge.
SimResult observed_slice(const TaskGraph& g, const SimResult& sim,
                         Cost horizon, const std::vector<Cost>& remaining,
                         const FaultPlan& world,
                         const HorizonFaultView& view) {
  const TaskId n = g.num_tasks();
  SimResult obs;
  obs.start.assign(n, kUndefinedTime);
  obs.finish.assign(n, kUndefinedTime);
  obs.checkpointed.assign(n, 0.0);
  for (TaskId t = 0; t < n; ++t) {
    if (sim.finish[t] != kUndefinedTime && sim.finish[t] <= horizon) {
      obs.start[t] = sim.start[t];
      obs.finish[t] = sim.finish[t];
      obs.makespan = std::max(obs.makespan, obs.finish[t]);
    } else {
      obs.unfinished.push_back(t);
    }
    // Work already durably saved for tasks resuming from a checkpoint:
    // repair subtracts this from the full (perturbed) computation, landing
    // exactly on the remainder the simulator's work override executes.
    if (remaining[t] != kUndefinedTime)
      obs.checkpointed[t] = std::max(
          0.0, g.comp(t) * runtime_factor(world, t) - remaining[t]);
  }
  for (const auto& edge : sim.dropped_edges)
    if (view.observed({0.0, SimEventKind::kMessageDropped, kInvalidProc,
                       edge.first, edge.second, 0.0}))
      obs.dropped_edges.push_back(edge);
  obs.dropped_messages = obs.dropped_edges.size();
  return obs;
}

// A continuation is validated once: the lint feasibility tier runs the
// durations-aware validate_schedule and reports each violation as an error
// diagnostic.
void check_continuation(const TaskGraph& g, const RepairResult& rep,
                        ProcId procs, Cost horizon) {
  analysis::LintOptions lint_options;
  lint_options.theorems = false;
  lint_options.quality = false;
  const analysis::LintReport report =
      analysis::lint_schedule(g, rep.schedule, rep.durations,
                              platform::CostModel::clique(procs), lint_options);
  FLB_REQUIRE(report.clean(),
              "online recovery: the continuation repaired at horizon " +
                  std::to_string(horizon) + " fails lint rule " +
                  report.diagnostics.front().rule + ": " +
                  report.diagnostics.front().message);
}

/// Where the controller's knowledge of remote liveness comes from: the only
/// seam between the runtime's modes. The source decides which simulator
/// events are sensed, which belief streams are merged into the observation
/// stream, and whether the lookahead window widens to wait for a belief.
///  * Oracle (no detector): the simulator is the sensor. Every SimEvent is
///    observable, failures, rejoins and link cuts included, and no belief
///    stream exists.
///  * Detector: kFailure, kRejoin and link events are invisible; remote
///    liveness is inferred from observer 0's FailureDetector stream, false
///    positives and all. Slowdowns, permanent message drops and task-kill
///    telemetry stay observable: throttling is a local counter, a drop is
///    the sender's own retry budget, and a lost dispatched task surfaces
///    through durable-store lease expiry — none of them requires knowing
///    whether a remote *processor* is alive.
///  * Gossip: the cluster-wide quorum aggregate replaces observer 0's
///    stream, which rides beside it as the controller's own reachability
///    view.
/// Each stream is computed once per widening of the horizon asked for and
/// cached: it is prefix-stable in its horizon (failure_detector.hpp), so a
/// query up to `until` is exactly the cached events at time <= until.
class LivenessSource {
 public:
  LivenessSource(const FaultPlan& world, ProcId procs,
                 const RuntimeOptions& options)
      : gossip_(options.use_detector && options.use_gossip),
        quorum_(options.quorum) {
    if (options.use_detector) detector_.emplace(world, procs);
  }

  [[nodiscard]] bool has_beliefs() const { return detector_.has_value(); }

  [[nodiscard]] bool senses(SimEventKind kind) const {
    return !has_beliefs() || (kind != SimEventKind::kFailure &&
                              kind != SimEventKind::kRejoin &&
                              kind != SimEventKind::kLinkPartitioned &&
                              kind != SimEventKind::kLinkHealed);
  }

  /// The liveness stream the controller acts on, up to `until`. A query
  /// that has to compute the stream computes it at least up to `widen_to`
  /// and to twice the horizon computed before, so a run of slowly growing
  /// queries recomputes the stream only a few times. The view stays valid
  /// until the next call that widens the horizon.
  [[nodiscard]] std::span<const BeliefEvent> beliefs(Cost until,
                                                     Cost widen_to = 0.0) {
    if (!detector_) return {};
    return slice(stream_, until, widen_to, [&](Cost h) {
      return gossip_ ? detector_->quorum_beliefs(quorum_, h)
                     : detector_->beliefs(h);
    });
  }

  /// Observer 0's reachability beliefs up to `until` (gossip mode only).
  [[nodiscard]] std::span<const BeliefEvent> local_view(Cost until,
                                                        Cost widen_to = 0.0) {
    if (!gossip_) return {};
    return slice(local_, until, widen_to,
                 [&](Cost h) { return detector_->beliefs(h); });
  }

 private:
  /// One stream, computed up to the widest horizon asked so far.
  struct Cached {
    Cost until = -kInfiniteTime;
    std::vector<BeliefEvent> events;
  };

  template <class Compute>
  static std::span<const BeliefEvent> slice(Cached& c, Cost until,
                                            Cost widen_to, Compute compute) {
    if (until > c.until) {
      c.until = std::max({until, widen_to, 2.0 * c.until});
      c.events = compute(c.until);
    }
    const auto end = std::upper_bound(
        c.events.begin(), c.events.end(), until,
        [](Cost u, const BeliefEvent& b) { return u < b.time; });
    return {c.events.begin(), end};
  }

  std::optional<FailureDetector> detector_;
  bool gossip_;
  ProcId quorum_;
  Cached stream_;
  Cached local_;
};

}  // namespace

RuntimeResult run_online_recovery(const TaskGraph& g, const Schedule& nominal,
                                  const FaultPlan& world,
                                  const RuntimeOptions& options) {
  const TaskId n = g.num_tasks();
  const ProcId procs = nominal.num_procs();
  FLB_REQUIRE(nominal.complete(),
              "run_online_recovery: the nominal schedule must be complete");
  FLB_REQUIRE(nominal.num_tasks() == n,
              "run_online_recovery: schedule and graph disagree on the task "
              "count");
  FLB_REQUIRE(options.debounce >= 0.0,
              "run_online_recovery: debounce must be non-negative");
  world.validate(procs);
  if (options.use_detector) {
    FLB_REQUIRE(world.heartbeat.enabled(),
                "run_online_recovery: use_detector requires a heartbeat "
                "section in the world plan (heartbeat.period > 0)");
    FLB_REQUIRE(!options.use_gossip || options.quorum >= 1,
                "run_online_recovery: use_gossip requires a quorum of at "
                "least one observer");
  }
  LivenessSource source(world, procs, options);
  const HeartbeatConfig& hb = world.heartbeat;

  HorizonFaultView view(world, procs);
  Schedule current = nominal;
  // Effective remaining work per task, fed back to the simulator as
  // SimOptions::work_override: once a kill with durably checkpointed work is
  // observed, the re-executed task carries only its unprotected remainder —
  // the world honors checkpoint resume across repairs.
  std::vector<Cost> remaining(n, kUndefinedTime);
  std::vector<Cost> last_durations;
  std::vector<RepairInvocation> repairs;
  std::vector<char> repair_targets(procs, 0);
  std::vector<char> killed_observed(n, 0);
  std::size_t retry_attempts = 0;
  bool force_greedy = false;
  bool degraded = false;

  // The controller's belief per processor: 0 trusted, 1 suspected,
  // 2 confirmed dead. open_since is the hypothesized death instant (the
  // suspicion time); closed holds finished hypothesis windows — a
  // confirmed death whose processor was later heard from again is treated
  // as a reboot with cold caches. Without a belief stream every processor
  // stays trusted and the view's observed failures carry liveness alone.
  std::vector<int> belief(procs, 0);
  std::vector<Cost> open_since(procs, 0.0);
  std::vector<std::vector<std::pair<Cost, Cost>>> closed(procs);
  std::set<std::tuple<Cost, int, ProcId>> belief_seen;
  std::vector<BeliefEvent> consumed;
  // Active speculations: the placements each one moved off its suspect, so
  // an exoneration can price what the cancelled hedge burned.
  std::vector<std::vector<TaskId>> spec_moved(procs);
  std::size_t false_alarms = 0, confirmations = 0, spec_tasks = 0;
  Cost spec_waste = 0.0;
  std::vector<Cost> confirm_times;
  // A processor is written off (its queue migrates) once confirmed dead —
  // or, when speculating, from the first suspicion on.
  auto listed_dead = [&](ProcId p) {
    return options.speculate ? belief[p] != 0 : belief[p] == 2;
  };

  // Gossip mode: the controller's own (observer-0) view, kept beside the
  // cluster-wide stream. A processor suspected locally while the cluster
  // still trusts it is unreachable from the controller, not dead.
  std::vector<int> local_level(procs, 0);
  std::set<std::tuple<Cost, int, ProcId>> local_seen;

  // Self-tuning: multiplier on the suspect threshold, raised on false
  // alarms, capped strictly below the confirm threshold, decayed after a
  // quiet window.
  double scale = 1.0;
  const double scale_cap =
      std::max(1.0, 0.95 * hb.confirm_after / hb.suspect_after);
  Cost last_alarm = -kInfiniteTime;
  std::vector<std::pair<Cost, double>> suspect_trace;
  std::size_t suppressed = 0;

  // Adaptive checkpointing: per-task interval overrides installed for the
  // tasks each repair re-plans (those start at or after the reaction's
  // horizon in every later simulation, so overriding them never perturbs
  // already-observed history), and the current Young/Daly estimate.
  std::vector<Cost> ckpt_interval(n, kUndefinedTime);
  Cost current_tau = 0.0;  // 0 = no estimate yet: keep the plan's interval

  std::vector<SimEvent> log;
  SimOptions sim_options;
  sim_options.faults = &world;
  sim_options.work_override = &remaining;
  sim_options.checkpoint_interval = &ckpt_interval;
  sim_options.event_log = &log;
  // Causal continuation replay: repaired start times encode release
  // instants and rejoin admissions, so they are hard earliest-start
  // constraints — and a task that had not started when its processor died
  // must return to the queue, not count as killed, or give-back after a
  // rejoin could never execute.
  sim_options.honor_start_times = true;

  // One merged observation: a sensed SimEvent (src 0), a liveness belief
  // from the source's stream (src 1), or — gossip mode — an observer-0
  // reachability belief (src 2).
  struct Obs {
    Cost time = 0.0;
    int src = 0;
    SimEvent ev{};
    BeliefEvent bel{};
  };

  // Does the stream exonerate p in (after, by]? Pure lookahead into the
  // prefix-stable belief stream — used by the self-tuned threshold to tell
  // a silence the raised threshold would outlast from a real one.
  auto exonerated_by = [&](ProcId p, Cost after, Cost by) {
    for (const BeliefEvent& e : source.beliefs(by))
      if (e.proc == p && e.time > after)
        return e.kind == BeliefKind::kExonerated && e.time <= by;
    return false;
  };

  // One replay per episode, restarted on every installed schedule with its
  // buffers kept. An iteration advances it only as far as its decision
  // needs (see the step loop below); `sim` is its result so far.
  Replay replay;
  const SimResult& sim = replay.result();
  // The digest of the last installed repair, which is the final schedule:
  // each installed schedule is hashed once. Empty while the nominal runs.
  std::optional<std::uint64_t> installed_digest;
  // Per-iteration scratch, hoisted out of the controller loop: cleared (or
  // copy-assigned) each round with capacity retained, so a long episode
  // stops churning the allocator on every repair.
  std::vector<Obs> fresh;
  std::vector<Obs> batch;
  std::vector<ProcId> newly_suspected;
  std::vector<char> exonerated_now;
  std::vector<LinkOutage> outages;
  // Every (producer, consumer) pair whose drop the controller observed.
  std::vector<std::pair<TaskId, TaskId>> observed_drops;
  FaultPlan bp;
  // One engine resumes every repair of the episode, so each resume after
  // the first runs on the scratch the earlier ones sized.
  FlbScheduler flb;
  RepairOptions repair_options;
  repair_options.dropped_data = DroppedDataPolicy::kReexecuteProducers;
  // Every iteration observes at least one new event or belief (or breaks),
  // and the observation space is finite — machine events are fixed by the
  // plan, task kills are keyed by the plan's finite death instants, message
  // drops by edge, beliefs by the prefix-stable stream. The cap is a
  // runaway backstop, far above any real episode.
  const std::size_t cap = 1000 + 32 * (static_cast<std::size_t>(n) +
                                       g.num_edges() + procs);
  for (std::size_t iter = 0;; ++iter) {
    FLB_REQUIRE(iter < cap,
                "run_online_recovery: controller failed to converge");
    replay.start(g, current, sim_options);

    bool spec_launched = false, promoted = false, cancelled = false;
    newly_suspected.clear();
    exonerated_now.assign(procs, 0);
    // A raw suspicion the self-tuned threshold absorbs: the subject is
    // exonerated before the silence would have crossed the raised
    // threshold, so the controller never reacts to it.
    auto tuned_out = [&](const BeliefEvent& b) {
      if (!options.self_tune || scale <= 1.0) return false;
      if (b.kind != BeliefKind::kSuspected || belief[b.proc] != 0)
        return false;
      const Cost tuned_at =
          b.last_heard + scale * hb.suspect_after * hb.period;
      return b.time < tuned_at && exonerated_by(b.proc, b.time, tuned_at);
    };
    auto consume_belief = [&](const BeliefEvent& b) {
      belief_seen.insert(b.key());
      consumed.push_back(b);
      const ProcId p = b.proc;
      switch (b.kind) {
        case BeliefKind::kSuspected:
          if (belief[p] == 0) {
            if (tuned_out(b)) {
              ++suppressed;
              break;
            }
            belief[p] = 1;
            open_since[p] = b.time;
            if (options.speculate) {
              spec_launched = true;
              newly_suspected.push_back(p);
            }
          }
          break;
        case BeliefKind::kConfirmedDead:
          if (belief[p] == 1) {
            belief[p] = 2;
            ++confirmations;
            confirm_times.push_back(b.time);
            if (!spec_moved[p].empty()) {
              promoted = true;  // the speculation becomes the plan
              spec_moved[p].clear();
            }
          }
          break;
        case BeliefKind::kExonerated:
          if (belief[p] == 1) {
            ++false_alarms;
            if (options.self_tune) {
              // Multiplicative raise per false alarm: the next silence must
              // outlast a strictly larger threshold before the controller
              // reacts.
              scale = std::min(scale_cap, scale * kTuneRaise);
              last_alarm = b.time;
              suspect_trace.push_back({b.time, scale * hb.suspect_after});
            }
            if (options.speculate) exonerated_now[p] = 1;
            if (!spec_moved[p].empty()) {
              // Cancel the speculation, first-completion-wins: duplicate
              // placements that finished before the exoneration are banked
              // (they stay in the fixed prefix); ones still in flight are
              // re-planned, so the wall time they burned — plus the input
              // shipping their placement paid — is pure waste.
              cancelled = true;
              for (const TaskId t : spec_moved[p]) {
                if (current.proc(t) == p) continue;
                // A hedge that started before the exoneration and still runs
                // at the replay's pause may yet be killed, and the full
                // replay reports a killed task as never started: replay up
                // to its finish to learn which it is.
                if (sim.start[t] != kUndefinedTime && sim.start[t] < b.time &&
                    sim.finish[t] > replay.reached())
                  replay.advance(sim.finish[t]);
                if (sim.start[t] == kUndefinedTime ||
                    sim.start[t] >= b.time)
                  continue;
                if (sim.finish[t] != kUndefinedTime &&
                    sim.finish[t] <= b.time)
                  continue;  // completed elsewhere first: the hedge won
                spec_waste += b.time - sim.start[t];
                for (const Adj& in : g.predecessors(t))
                  if (current.proc(in.node) != current.proc(t))
                    spec_waste += in.comm;
                ++spec_tasks;
              }
            }
          } else if (belief[p] == 2) {
            closed[p].push_back({open_since[p], b.time});
          }
          belief[p] = 0;
          spec_moved[p].clear();
          break;
      }
    };

    // Observer-0 reachability beliefs (gossip mode) only steer where new
    // placements go; they are folded into local_level as they are consumed.
    auto consume_local = [&](const BeliefEvent& b) {
      local_seen.insert(b.key());
      local_level[b.proc] = b.kind == BeliefKind::kExonerated     ? 0
                            : b.kind == BeliefKind::kSuspected    ? 1
                                                                  : 2;
    };

    // Every sensed event triggers a reaction. In confirm-then-repair mode
    // a suspicion (or the exoneration of a mere suspect) changes nothing
    // the controller would act on: consume such leading beliefs passively,
    // without a reaction. A suspicion the self-tuned threshold absorbs is
    // likewise passive knowledge, and so is a local (observer-0) belief
    // that merely *adds* the subject to the unreachable set: the controller
    // cannot retract the schedule already installed behind the cut, so
    // going dark re-plans nothing — the mask is recorded and constrains
    // whatever belief-driven repair comes next. Only the belief that
    // *removes* a processor from the set reacts: the link healed, and a
    // reconciliation repair re-balances whatever fell behind the partition.
    auto actionable = [&](const Obs& o) {
      if (o.src == 2) {
        const bool now =
            local_level[o.bel.proc] >= 1 && belief[o.bel.proc] == 0;
        const bool next = o.bel.kind != BeliefKind::kExonerated &&
                          belief[o.bel.proc] == 0;
        return now && !next;
      }
      if (o.src != 1) return true;
      if (tuned_out(o.bel)) return false;
      if (options.speculate) return true;
      if (o.bel.kind == BeliefKind::kConfirmedDead) return true;
      return o.bel.kind == BeliefKind::kExonerated &&
             belief[o.bel.proc] == 2;
    };
    // Fresh observations, in time order: the unobserved sensed events of the
    // log and the unconsumed beliefs up to `until` — and, while the replay
    // is paused, only those at or before `until`, the instant up to which
    // its log is final (Replay's pause contract). Once the execution runs to
    // completion, anything at or beyond its makespan can no longer affect
    // anything — a controller that has seen every task finish stops
    // reacting.
    auto collect = [&](Cost until, Cost widen_to) {
      fresh.clear();
      const Cost cut = replay.done() ? kInfiniteTime : until;
      const bool over = replay.done() && sim.complete();
      for (const SimEvent& event : log) {
        if (event.time > cut) continue;
        if (!source.senses(event.kind)) continue;
        if (view.observed(event)) continue;
        if (over && event.time >= sim.makespan) continue;
        fresh.push_back({event.time, 0, event, {}});
      }
      for (const BeliefEvent& b : source.beliefs(until, widen_to)) {
        if (belief_seen.count(b.key()) != 0) continue;
        if (over && b.time >= sim.makespan) continue;
        fresh.push_back({b.time, 1, {}, b});
      }
      for (const BeliefEvent& b : source.local_view(until, widen_to)) {
        if (local_seen.count(b.key()) != 0) continue;
        if (over && b.time >= sim.makespan) continue;
        fresh.push_back({b.time, 2, {}, b});
      }
      // A total order (payloads break key ties), so the paused and the
      // complete log, which hold their events in different orders, yield
      // the same sequence.
      std::sort(fresh.begin(), fresh.end(), [](const Obs& a, const Obs& b) {
        if (a.time != b.time) return a.time < b.time;
        if (a.src != b.src) return a.src < b.src;
        if (a.src != 0)
          return std::tuple(a.bel.key(), a.bel.last_heard, a.bel.score) <
                 std::tuple(b.bel.key(), b.bel.last_heard, b.bel.score);
        return std::tuple(a.ev.key(), a.ev.value) <
               std::tuple(b.ev.key(), b.ev.value);
      });
    };
    // Consume the leading passive observations of `fresh`; returns the index
    // of the first actionable one (fresh.size() if none).
    std::size_t passive = 0;  // passive observations consumed this round
    auto consume_passive = [&] {
      std::size_t i = 0;
      for (; i < fresh.size() && !actionable(fresh[i]); ++i, ++passive) {
        if (fresh[i].src == 2)
          consume_local(fresh[i].bel);
        else
          consume_belief(fresh[i].bel);
      }
      return i;
    };

    // The belief stream is prefix-stable in its horizon, so any finite
    // window works; start with enough slack past the latest activity to
    // cover a full confirm window. The window of the complete replay is at
    // least `window(latest logged event)` at any pause, since its makespan
    // and its log only grow.
    const Cost slack =
        source.has_beliefs()
            ? hb.period * (hb.confirm_after + hb.delay_factor + 2.0)
            : 0.0;
    auto window = [&](Cost latest) {
      return std::max({view.horizon(), sim.makespan, latest}) + slack;
    };
    auto latest_logged = [&] {
      Cost latest = -kInfiniteTime;
      for (const SimEvent& event : log) latest = std::max(latest, event.time);
      return latest;
    };
    // Streams are computed ahead to about the window the complete replay
    // would ask for, so the narrower queries of a paused replay are slices.
    const Cost ahead = std::max(window(latest_logged()), current.makespan() +
                                                            slack);
    // The earliest instant after `after` at which a new observation can
    // surface: an unobserved sensed event already in the log, a failure
    // past the view's horizon (its task kills are sensed in every mode), or
    // an unconsumed belief. Drops need no entry: one at or before the next
    // pause is in the log by then. Only a hint for where to pause next —
    // an observation it misses still lies in the final part of the log.
    auto next_candidate = [&](Cost after) {
      Cost next = kInfiniteTime;
      for (const SimEvent& e : log) {
        if (e.time <= after || e.time >= next) continue;
        if ((source.senses(e.kind) && !view.observed(e)) ||
            (e.kind == SimEventKind::kFailure && e.time > view.horizon()))
          next = e.time;
      }
      for (const BeliefEvent& b : source.beliefs(ahead, ahead))
        if (b.time > after && belief_seen.count(b.key()) == 0) {
          next = std::min(next, b.time);
          break;
        }
      for (const BeliefEvent& b : source.local_view(ahead, ahead))
        if (b.time > after && local_seen.count(b.key()) == 0) {
          next = std::min(next, b.time);
          break;
        }
      return next;
    };

    // Step the replay from one candidate instant to the next until the
    // first actionable observation and its debounce window lie in the final
    // part of its log and belief window; the decision taken there is the
    // one the complete replay would give. Otherwise — nothing actionable
    // before the replay ends, or a window the pause cannot bound — run it
    // to completion and decide as the complete replay does: widen the
    // window geometrically when an incomplete execution is waiting on a
    // belief further out (the rescue confirmation of a silently dead
    // processor, or the exoneration of a falsely suspected one). Sensed
    // events need no window: the log holds them all.
    std::size_t idx = 0;
    Cost target = next_candidate(-kInfiniteTime);
    for (;;) {
      if (target == kInfiniteTime)
        replay.run();
      else
        replay.advance(target);
      if (replay.completed() == n) replay.run();
      if (replay.done()) {
        Cost until = std::max(view.horizon(), sim.makespan);
        if (!log.empty()) until = std::max(until, log.back().time);
        until += slack;
        collect(until, until);
        for (int grow = 0; source.has_beliefs() && fresh.empty() &&
                           passive == 0 && !sim.complete() && grow < 60;
             ++grow) {
          until *= 2.0;
          collect(until, until);
        }
        idx = consume_passive();
        break;
      }
      const Cost known =
          source.has_beliefs()
              ? std::min(replay.reached(), window(latest_logged()))
              : replay.reached();
      collect(known, ahead);
      idx = consume_passive();
      if (idx < fresh.size()) {
        const Cost batch_end = fresh[idx].time + options.debounce;
        if (batch_end <= known) break;
        target = batch_end;
      } else {
        target = next_candidate(known);
      }
      if (target <= replay.reached()) target = kInfiniteTime;
    }
    if (idx == fresh.size()) {
      if (passive == 0) break;  // nothing left to observe
      continue;                 // only passive knowledge this round
    }

    // Debounce: coalesce everything within the window opened by the first
    // actionable observation into one reaction.
    const Cost observed_at = fresh[idx].time;
    const Cost batch_end = observed_at + options.debounce;
    batch.clear();
    for (std::size_t i = idx; i < fresh.size(); ++i)
      if (fresh[i].time <= batch_end) batch.push_back(fresh[i]);

    // Bounded retry: a failure — observed, or confirmed by the stream —
    // striking a processor the previous repair migrated work onto pushes
    // the next repair back exponentially; past the retry budget the
    // optimizing engine is no longer trusted.
    std::size_t attempt = 0;
    for (const Obs& o : batch) {
      const bool strike =
          o.src == 0 ? o.ev.kind == SimEventKind::kFailure &&
                           repair_targets[o.ev.proc] != 0
                     : o.src == 1 &&
                           o.bel.kind == BeliefKind::kConfirmedDead &&
                           repair_targets[o.bel.proc] != 0;
      if (strike) {
        attempt = ++retry_attempts;
        if (retry_attempts > kMaxRetries) force_greedy = true;
        break;
      }
    }
    Cost horizon = std::max(view.horizon(), batch_end);
    if (attempt > 0)
      horizon += kBackoffBase *
                 std::ldexp(1.0, static_cast<int>(std::min<std::size_t>(
                                     attempt - 1, 30)));

    // The horizon slice reads every finish at or before the horizon.
    replay.advance(horizon);
    view.advance(horizon);
    for (const Obs& o : batch) {
      if (o.src == 1) {
        consume_belief(o.bel);
        continue;
      }
      if (o.src == 2) {
        consume_local(o.bel);
        continue;
      }
      view.observe(o.ev);
      if (o.ev.kind == SimEventKind::kMessageDropped)
        observed_drops.emplace_back(o.ev.task, o.ev.task2);
      if (o.ev.kind == SimEventKind::kTaskKilled) {
        killed_observed[o.ev.task] = 1;
        if (o.ev.value > 0.0) {
          const Cost before = remaining[o.ev.task] != kUndefinedTime
                                  ? remaining[o.ev.task]
                                  : g.comp(o.ev.task) *
                                        runtime_factor(world, o.ev.task);
          remaining[o.ev.task] = std::max(0.0, before - o.ev.value);
        }
      }
    }

    // Decay the self-tuned threshold once per reaction after a quiet
    // window: no false alarm within tune_window of the horizon.
    if (options.self_tune && scale > 1.0 &&
        horizon - last_alarm > options.tune_window) {
      scale = std::max(1.0, scale / kTuneRaise);
      last_alarm = horizon;
      suspect_trace.push_back({horizon, scale * hb.suspect_after});
    }

    RepairInvocation inv;
    inv.observed_at = observed_at;
    inv.horizon = horizon;
    inv.events = batch.size();
    for (const Obs& o : batch) {
      if (o.src == 0)
        inv.batch.push_back(o.ev);
      else
        inv.batch_beliefs.push_back(o.bel);
    }
    inv.retry_attempt = attempt;
    inv.speculative = spec_launched;
    inv.promoted = promoted;
    inv.cancelled = cancelled;
    inv.suspect_scale = scale;
    for (ProcId p = 0; p < procs; ++p) {
      if (belief[p] == 1) ++inv.suspects;
      if (!view.observed_dead(p) && !listed_dead(p)) ++inv.survivors;
    }

    // Partition-aware placement: a live processor the controller cannot
    // reach — no path from p0 through the observed link outages at the
    // horizon, or suspected locally while the cluster-wide stream still
    // trusts it — is unreachable, not dead. No new placements go there,
    // its in-flight task is pinned rather than written off, and the heal
    // (or the local exoneration) triggers the reconciliation repair that
    // hands its queue back.
    repair_options.unreachable.clear();
    const bool cut = !view.plan().partitions.empty();
    if (cut) outages = resolve_partitions(view.plan());
    for (ProcId p = 1; p < procs; ++p) {
      if (view.observed_dead(p) || belief[p] != 0) continue;
      if (local_level[p] >= 1 ||
          (cut && !path_connected(outages, procs, 0, p, horizon)))
        repair_options.unreachable.push_back(p);
    }
    inv.unreachable = static_cast<ProcId>(repair_options.unreachable.size());

    if (inv.survivors <= inv.unreachable) {
      // Nothing reachable to repair onto: hold the current schedule and
      // wait for the next observation (a rejoin or heal, if one ever
      // comes).
      inv.deferred = true;
      repairs.push_back(inv);
      continue;
    }

    // The plan handed to the repair is the controller's *hypothesis*: the
    // observed history plus one failure window per belief — closed windows
    // for confirmed-then-exonerated processors (a reboot with cold caches,
    // as far as the controller can tell), an open failure at the suspicion
    // instant for everything currently written off. Speculating suspects
    // are listed dead too (their queue migrates) while
    // RepairOptions::suspects pins their in-flight work in place.
    bp = view.plan();  // copy-assign into the hoisted plan: reuses capacity
    for (ProcId p = 0; p < procs; ++p) {
      for (const auto& w : closed[p]) {
        bp.failures.push_back({p, w.first});
        bp.rejoins.push_back({p, w.second});
      }
      if (listed_dead(p)) bp.failures.push_back({p, open_since[p]});
    }

    // Windowed MLE over confirmed kills, re-deriving the Young/Daly
    // first-order optimum tau = sqrt(2 * overhead / lambda). The estimate
    // prices the repair's checkpoint pauses (bp) and is installed as the
    // interval override of every task this repair re-plans.
    if (options.adapt_checkpoint && world.checkpoint.enabled() &&
        world.checkpoint.overhead > 0.0) {
      const Cost span = std::min(options.failure_rate_window, horizon);
      if (span > 0.0) {
        std::size_t kills = 0;
        for (const Cost ct : confirm_times)
          if (ct > horizon - span) ++kills;
        if (kills > 0) {
          const double lambda = static_cast<double>(kills) /
                                (span * static_cast<double>(procs));
          current_tau =
              std::sqrt(2.0 * world.checkpoint.overhead / lambda);
          inv.failure_rate = lambda;
        }
      }
    }
    inv.checkpoint_interval = current_tau;
    if (current_tau > 0.0) bp.checkpoint.interval = current_tau;

    // The slice lists every drop of an observed edge the replay makes, past
    // the horizon too: finish the replay while such a producer has yet to
    // complete.
    for (const auto& [producer, consumer] : observed_drops)
      if (current.proc(producer) != current.proc(consumer) &&
          !(sim.finish[producer] != kUndefinedTime &&
            sim.finish[producer] <= replay.reached())) {
        replay.run();
        break;
      }
    const SimResult obs =
        observed_slice(g, sim, horizon, remaining, world, view);
    repair_options.strategy =
        (force_greedy || inv.survivors < kDegradeBelow)
            ? RepairStrategy::kGreedy
            : RepairStrategy::kAuto;
    repair_options.horizon = horizon;
    repair_options.suspects.clear();
    repair_options.pin_exclude = nullptr;
    if (options.speculate && source.has_beliefs()) {
      // Pin in-flight work on every currently suspected processor — and on
      // every processor exonerated in this very batch: the reconciliation
      // repair now knows it is alive, so keeping its running task's
      // placement and start (first-completion-wins) is what preserves the
      // progress the false alarm would otherwise throw away.
      for (ProcId p = 0; p < procs; ++p)
        if (belief[p] == 1 || exonerated_now[p] != 0)
          repair_options.suspects.push_back(p);
      repair_options.pin_exclude = &killed_observed;
    }
    RepairResult rep =
        repair_schedule(g, current, obs, bp, repair_options, flb);
    if (options.validate) check_continuation(g, rep, procs, horizon);

    // Record what each just-launched speculation moved off its suspect, so
    // a later exoneration can price the cancelled hedge.
    for (const ProcId p : newly_suspected) {
      spec_moved[p].clear();
      for (const TaskId t : current.tasks_on(p))
        if (!(sim.finish[t] != kUndefinedTime && sim.finish[t] <= horizon) &&
            rep.schedule.proc(t) != p)
          spec_moved[p].push_back(t);
    }

    // Install the adapted interval for the re-planned tasks only: they
    // start at or after this horizon in every later simulation, so the
    // already-observed prefix never changes under the new policy.
    if (current_tau > 0.0)
      for (TaskId t = 0; t < n; ++t)
        if (rep.schedule.start(t) >= horizon - kTimeTolerance)
          ckpt_interval[t] = current_tau;

    inv.used = rep.used;
    inv.migrated = rep.migrated_tasks;
    inv.reexecuted = rep.reexecuted_tasks;
    inv.makespan = rep.schedule.makespan();
    inv.schedule_digest = schedule_digest(rep.schedule);
    installed_digest = inv.schedule_digest;
    repairs.push_back(inv);
    if (rep.used == RepairStrategy::kGreedy) degraded = true;

    repair_targets.assign(procs, 0);
    for (ProcId p = 0; p < procs; ++p)
      for (const TaskId t : rep.schedule.tasks_on(p))
        if (rep.schedule.start(t) >= rep.release_time - kTimeTolerance) {
          repair_targets[p] = 1;
          break;
        }

    current = std::move(rep.schedule);
    last_durations = std::move(rep.durations);
  }

  RuntimeResult result(std::move(current));
  result.durations = std::move(last_durations);
  result.makespan = sim.makespan;
  result.complete = sim.complete();
  result.execution = replay.take_result();
  result.events = std::move(log);
  result.repairs = std::move(repairs);
  result.events_observed = view.observed_events();
  result.degraded = degraded;
  result.event_digest = fnv1a_digest(event_log_text(result.events));
  result.schedule_digest = installed_digest
                               ? *installed_digest
                               : schedule_digest(result.schedule);
  if (!source.has_beliefs()) return result;

  result.beliefs = std::move(consumed);
  result.belief_digest = fnv1a_digest(belief_log_text(result.beliefs));
  result.false_alarms = false_alarms;
  result.confirmations = confirmations;
  result.speculative_waste = spec_waste;
  result.speculative_tasks = spec_tasks;
  result.suspect_trace = std::move(suspect_trace);
  result.suppressed_alarms = suppressed;
  // Reporting only (never used for control): detection latency against
  // the resolved truth — mean gap between each real death and its first
  // confirmation.
  const ResolvedFaults truth = resolve_faults(world);
  Cost total = 0.0;
  std::size_t found = 0;
  for (const ProcFailure& f : truth.failures) {
    for (const BeliefEvent& b : result.beliefs)
      if (b.kind == BeliefKind::kConfirmedDead && b.proc == f.proc &&
          b.time >= f.time) {
        total += b.time - f.time;
        ++found;
        break;
      }
  }
  if (found > 0)
    result.mean_detection_latency = total / static_cast<Cost>(found);
  return result;
}

}  // namespace flb::runtime
