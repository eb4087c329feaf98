#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "flb/sim/faults.hpp"
#include "flb/util/types.hpp"

/// \file failure_detector.hpp
/// Unreliable, heartbeat-based failure detection.
///
/// The controller's oracle liveness source (recovery_runtime.hpp) trusts
/// the simulator as a sensor: every SimEvent::kFailure is ground truth,
/// delivered the instant it happens. A real distributed-memory machine has
/// no such sensor — remote liveness is inferred from heartbeats that are
/// late, lossy and sometimes wrong. This module models that inference as a
/// deterministic φ-accrual-style monitor:
///
///  * Every processor emits a heartbeat at k·period (k = 1, 2, ...) while
///    it is alive per the resolved fault plan. Emission timing is
///    machine-level, so the belief stream is independent of whatever
///    schedule is executing — re-simulating a repaired continuation never
///    changes what the detector saw.
///  * Each emission is independently lost with `loss_probability`, or
///    arrives `delay_factor · period` late with `delay_probability`, drawn
///    from the plan seed per (observer, processor, beat index) with the
///    same splitmix decorrelation the message-fault machinery uses —
///    heartbeat paths are lossy *independently per observer*, so one noisy
///    path does not silence a processor for the whole cluster. A heartbeat
///    emitted just before a death may still arrive after it — the monitor
///    can be *fresher than the truth*.
///  * Detection is **per-observer**: each processor o forms its own belief
///    stream from the heartbeats *it* can hear. Heartbeats are direct
///    point-to-point probes (the SWIM model), so a beat from p reaches o
///    only while the direct link o ~ p is unpartitioned at the arrival
///    instant — an observer behind a partial partition (FaultPlan::
///    partitions) goes deaf to the far side and wrongly suspects it.
///    quorum_beliefs() merges the observer views into a cluster-wide
///    indirect-suspicion stream: a processor is suspected (confirmed)
///    cluster-wide only while at least `quorum` observers that are alive
///    and have a live direct link to it concur, so a single lossy or
///    partitioned path can no longer manufacture a cluster-wide false
///    alarm on its own.
///  * The suspicion score of a processor at time t is
///    φ(t) = (t − last_arrival) / period — silence measured in expected
///    beats, the first-order φ-accrual statistic. Crossing `suspect_after`
///    emits kSuspected; crossing `confirm_after` emits kConfirmedDead; any
///    later arrival emits kExonerated and resets the score. A rebooted
///    processor resumes beating, so a rejoin surfaces as an exoneration.
///
/// False positives (a lossy streak suspends a live processor) and false
/// negatives (a death whose rejoin lands inside the suspicion window) are
/// both possible by construction. The stream is a pure function of
/// (plan, num_procs): beliefs(until₁) is a prefix of beliefs(until₂) for
/// until₁ ≤ until₂, which is what lets the controller consume it
/// incrementally across re-simulations.

namespace flb::runtime {

/// What the detector came to believe about a processor.
enum class BeliefKind : int {
  kSuspected = 0,      ///< silent past the suspect threshold
  kConfirmedDead = 1,  ///< silent past the confirm threshold
  kExonerated = 2,     ///< a heartbeat arrived from a suspect
};

/// One entry of the belief stream.
struct BeliefEvent {
  Cost time = 0.0;
  BeliefKind kind = BeliefKind::kSuspected;
  ProcId proc = kInvalidProc;
  /// Arrival instant of the last heartbeat the monitor had seen when this
  /// belief formed (the silence started here).
  Cost last_heard = 0.0;
  /// Accrual score φ at emission: periods of silence for suspicions and
  /// confirmations, 0 for exonerations.
  double score = 0.0;

  /// Deterministic sort/dedup key.
  [[nodiscard]] auto key() const {
    return std::tuple<Cost, int, ProcId>(time, static_cast<int>(kind), proc);
  }
};

/// One belief as the stable log line belief_log_text joins ("suspect p3 @
/// 12.5 last-heard 9 score 2.33" and friends) — the unit of the belief
/// digest, so the format is part of the determinism contract.
[[nodiscard]] std::string to_string(const BeliefEvent& belief);

/// One line per belief (to_string joined with newlines) — the text the
/// belief digest is computed over.
[[nodiscard]] std::string belief_log_text(
    const std::vector<BeliefEvent>& beliefs);

/// The deterministic heartbeat monitor. Construction resolves the plan's
/// faults once (validate(num_procs) is called); beliefs() then replays the
/// per-processor arrival process against the accrual thresholds.
class FailureDetector {
 public:
  /// Requires world.heartbeat.enabled(); throws flb::Error otherwise.
  FailureDetector(const FaultPlan& world, ProcId num_procs);

  /// Observer 0's belief stream up to and including `until`, sorted by
  /// (time, kind, proc). Pure and prefix-stable in `until`. This is the
  /// single-observer view the controller consumes without gossip — one
  /// partitioned or lossy path to observer 0 can fool it.
  [[nodiscard]] std::vector<BeliefEvent> beliefs(Cost until) const;

  /// Observer `o`'s belief stream: what processor o came to believe about
  /// every processor from the heartbeats it could hear. Observer 0 uses
  /// the legacy per-(proc, beat) loss/delay stream, so beliefs(0, until)
  /// == beliefs(until) byte for byte; other observers draw their path
  /// fates from a per-observer stream. Pure and prefix-stable in `until`.
  [[nodiscard]] std::vector<BeliefEvent> beliefs(ProcId o, Cost until) const;

  /// The deterministic gossip/indirect-suspicion aggregate: processor p is
  /// suspected (confirmed dead) cluster-wide only while at least `quorum`
  /// observers that are alive and have an unpartitioned direct link to p
  /// concur in suspecting (confirming) it; dropping below the quorum
  /// exonerates cluster-wide. `last_heard` of an aggregate event is the
  /// freshest evidence among the concurring observers, `score` the number
  /// of observers that concurred. With quorum larger than the concurring
  /// eligible observers a cluster-wide suspicion never forms (a fully
  /// partitioned minority cannot condemn anyone). Requires quorum >= 1.
  /// Pure and prefix-stable in `until`.
  [[nodiscard]] std::vector<BeliefEvent> quorum_beliefs(ProcId quorum,
                                                        Cost until) const;

  /// Arrival time at observer 0 of processor `p`'s k-th heartbeat
  /// (k >= 1): kInfiniteTime when the beat was lost, never emitted (the
  /// processor was dead at k·period), or cut off by a partition at the
  /// arrival instant. Exposed so tests can search seeds for specific
  /// arrival patterns (e.g. suspicion flaps).
  [[nodiscard]] Cost arrival(ProcId p, std::uint64_t k) const;

  /// Arrival time at observer `o` of processor `p`'s k-th heartbeat. An
  /// observer always hears itself while alive; a beat crossing a
  /// partitioned direct link at its arrival instant is lost for that
  /// observer only.
  [[nodiscard]] Cost arrival(ProcId o, ProcId p, std::uint64_t k) const;

  [[nodiscard]] const HeartbeatConfig& config() const { return hb_; }

 private:
  HeartbeatConfig hb_;
  std::uint64_t seed_ = 0;
  ProcId num_procs_ = 0;
  /// Per-processor dead intervals [death, rejoin) (last one may extend to
  /// infinity), from the resolved plan.
  std::vector<std::vector<std::pair<Cost, Cost>>> down_;
  /// Canonical per-link partition windows, from the resolved plan.
  std::vector<LinkOutage> outages_;

  [[nodiscard]] bool alive_at(ProcId p, Cost t) const;
  /// Observer o's accrual replay for subject p alone, appended to `out`.
  void subject_beliefs(ProcId o, ProcId p, Cost until,
                       std::vector<BeliefEvent>& out) const;
};

}  // namespace flb::runtime
