#include "flb/runtime/failure_detector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb::runtime {

namespace {

const char* kind_name(BeliefKind kind) {
  switch (kind) {
    case BeliefKind::kSuspected: return "suspect";
    case BeliefKind::kConfirmedDead: return "confirm-dead";
    case BeliefKind::kExonerated: return "exonerate";
  }
  return "?";
}

}  // namespace

std::string to_string(const BeliefEvent& belief) {
  std::ostringstream os;
  os.precision(17);
  os << "t=" << belief.time << " " << kind_name(belief.kind) << " proc "
     << belief.proc << " last-heard " << belief.last_heard;
  if (belief.kind != BeliefKind::kExonerated)
    os << " phi " << belief.score;
  return os.str();
}

std::string belief_log_text(const std::vector<BeliefEvent>& beliefs) {
  std::string text;
  for (const BeliefEvent& b : beliefs) {
    text += to_string(b);
    text += '\n';
  }
  return text;
}

FailureDetector::FailureDetector(const FaultPlan& world, ProcId num_procs)
    : hb_(world.heartbeat), seed_(world.seed), num_procs_(num_procs) {
  FLB_REQUIRE(hb_.enabled(),
              "FailureDetector: the world plan has no heartbeat section "
              "(heartbeat.period must be positive)");
  world.validate(num_procs);
  const ResolvedFaults resolved = resolve_faults(world);
  outages_ = resolve_partitions(world);
  down_.assign(num_procs, {});
  // resolve_faults canonicalizes kill/rejoin into alternating disjoint
  // windows sorted by time; pair them back up per processor.
  for (const ProcFailure& f : resolved.failures)
    down_[f.proc].push_back({f.time, kInfiniteTime});
  for (const ProcRejoin& r : resolved.rejoins) {
    auto& windows = down_[r.proc];
    for (auto& w : windows)
      if (w.second == kInfiniteTime && r.time > w.first) {
        w.second = r.time;
        break;
      }
  }
  for (auto& windows : down_)
    std::sort(windows.begin(), windows.end());
}

bool FailureDetector::alive_at(ProcId p, Cost t) const {
  for (const auto& w : down_[p])
    if (t >= w.first && t < w.second) return false;
  return true;
}

Cost FailureDetector::arrival(ProcId p, std::uint64_t k) const {
  return arrival(0, p, k);
}

Cost FailureDetector::arrival(ProcId o, ProcId p, std::uint64_t k) const {
  FLB_REQUIRE(o < num_procs_ && p < num_procs_ && k >= 1,
              "FailureDetector::arrival: observer, processor or beat index "
              "out of range");
  const Cost emit = static_cast<Cost>(k) * hb_.period;
  if (!alive_at(p, emit)) return kInfiniteTime;
  const std::uint64_t key =
      o == 0 ? (static_cast<std::uint64_t>(p) << 40) | k
             : (static_cast<std::uint64_t>(o) << 52) |
                   (static_cast<std::uint64_t>(p) << 26) | k;
  // Observer 0 draws its heartbeat-path fates from the heartbeat stream,
  // every other observer from the observer stream under its own key: paths
  // are lossy independently per observer, which is what lets a quorum
  // outvote one noisy path.
  Rng rng(stream_hash(
      seed_, o == 0 ? SeedStream::kHeartbeat : SeedStream::kObserver, key));
  if (rng.bernoulli(hb_.loss_probability)) return kInfiniteTime;
  Cost arr = emit;
  if (rng.bernoulli(hb_.delay_probability))
    arr = emit + hb_.delay_factor * hb_.period;
  // Heartbeats are direct point-to-point probes: a beat whose link is
  // partitioned at the arrival instant never reaches this observer.
  if (link_partitioned(outages_, o, p, arr)) return kInfiniteTime;
  return arr;
}

void FailureDetector::subject_beliefs(ProcId o, ProcId p, Cost until,
                                      std::vector<BeliefEvent>& out) const {
  // Any threshold crossing at or before `until` depends only on arrivals
  // at or before `until`; beats emitted up to `until` (plus the delay
  // slack) cover every arrival that can matter. The count is clamped
  // before the conversion: a widened window can exceed what std::uint64_t
  // holds.
  const double beats = std::floor(until / hb_.period + hb_.delay_factor + 1.0);
  const auto last_beat = static_cast<std::uint64_t>(std::min(beats, 0x1p63));
  // A beat emitted at or after p's permanent death, or after a permanent
  // cut of the (o, p) link, is never heard (arrival() returns
  // kInfiniteTime for it), so the walk stops at the first such beat.
  Cost silent_from = kInfiniteTime;
  if (!down_[p].empty() && down_[p].back().second == kInfiniteTime)
    silent_from = down_[p].back().first;
  if (o != p)
    for (const LinkOutage& w : outages_)
      if (w.a == std::min(o, p) && w.b == std::max(o, p) &&
          w.until == kInfiniteTime)
        silent_from = std::min(silent_from, w.time);
  std::vector<Cost> arrivals;  // observer o heard p at these instants
  for (std::uint64_t k = 1; k <= last_beat; ++k) {
    if (static_cast<Cost>(k) * hb_.period >= silent_from) break;
    const Cost a = arrival(o, p, k);
    if (a != kInfiniteTime && a <= until) arrivals.push_back(a);
  }
  std::sort(arrivals.begin(), arrivals.end());

  // Replay the accrual state machine: the processor "checked in" at
  // t = 0 (startup handshake), then each silence window spawns its
  // suspect/confirm crossings until the next arrival clears them.
  Cost last_heard = 0.0;
  int level = 0;  // 0 = trusted, 1 = suspected, 2 = confirmed
  auto emit_crossings = [&](Cost next_arrival) {
    const Cost suspect_at = last_heard + hb_.suspect_after * hb_.period;
    const Cost confirm_at = last_heard + hb_.confirm_after * hb_.period;
    if (level < 1 && suspect_at < next_arrival && suspect_at <= until) {
      out.push_back({suspect_at, BeliefKind::kSuspected, p, last_heard,
                     hb_.suspect_after});
      level = 1;
    }
    if (level == 1 && confirm_at < next_arrival && confirm_at <= until) {
      out.push_back({confirm_at, BeliefKind::kConfirmedDead, p, last_heard,
                     hb_.confirm_after});
      level = 2;
    }
  };
  for (const Cost a : arrivals) {
    if (a <= last_heard) continue;  // stale (delayed past a fresher beat)
    emit_crossings(a);
    if (level != 0)
      out.push_back({a, BeliefKind::kExonerated, p, last_heard, 0.0});
    level = 0;
    last_heard = a;
  }
  emit_crossings(kInfiniteTime);
}

std::vector<BeliefEvent> FailureDetector::beliefs(Cost until) const {
  return beliefs(0, until);
}

std::vector<BeliefEvent> FailureDetector::beliefs(ProcId o,
                                                  Cost until) const {
  FLB_REQUIRE(o < num_procs_,
              "FailureDetector::beliefs: observer out of range");
  FLB_REQUIRE(std::isfinite(until) && until >= 0.0,
              "FailureDetector::beliefs: horizon must be finite and "
              "non-negative");
  std::vector<BeliefEvent> out;
  for (ProcId p = 0; p < num_procs_; ++p) subject_beliefs(o, p, until, out);
  std::sort(out.begin(), out.end(),
            [](const BeliefEvent& a, const BeliefEvent& b) {
              return a.key() < b.key();
            });
  return out;
}

std::vector<BeliefEvent> FailureDetector::quorum_beliefs(ProcId quorum,
                                                         Cost until) const {
  FLB_REQUIRE(quorum >= 1,
              "FailureDetector::quorum_beliefs: quorum must be >= 1");
  FLB_REQUIRE(std::isfinite(until) && until >= 0.0,
              "FailureDetector::quorum_beliefs: horizon must be finite and "
              "non-negative");
  std::vector<BeliefEvent> out;
  for (ProcId p = 0; p < num_procs_; ++p) {
    // Every observer's private view of p, plus every instant at which an
    // observer's eligibility (alive, unpartitioned link to p) can change —
    // the cluster-wide level about p can only move at one of these times.
    std::vector<std::vector<BeliefEvent>> views(num_procs_);
    std::vector<Cost> cand;
    for (ProcId o = 0; o < num_procs_; ++o) {
      if (o == p) continue;
      subject_beliefs(o, p, until, views[o]);
      for (const BeliefEvent& b : views[o]) cand.push_back(b.time);
      for (const auto& w : down_[o]) {
        if (w.first <= until) cand.push_back(w.first);
        if (w.second != kInfiniteTime && w.second <= until)
          cand.push_back(w.second);
      }
    }
    for (const LinkOutage& w : outages_) {
      if (w.a != p && w.b != p) continue;
      if (w.time <= until) cand.push_back(w.time);
      if (w.until != kInfiniteTime && w.until <= until)
        cand.push_back(w.until);
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

    int level = 0;  // cluster-wide: 0 = trusted, 1 = suspected, 2 = dead
    for (const Cost t : cand) {
      std::size_t suspecting = 0;
      std::size_t confirming = 0;
      Cost freshest = 0.0;
      for (ProcId o = 0; o < num_procs_; ++o) {
        if (o == p) continue;
        if (!alive_at(o, t)) continue;
        if (link_partitioned(outages_, o, p, t)) continue;
        int lv = 0;
        Cost lh = 0.0;
        for (const BeliefEvent& b : views[o]) {
          if (b.time > t) break;
          lv = b.kind == BeliefKind::kExonerated     ? 0
               : b.kind == BeliefKind::kSuspected    ? 1
                                                     : 2;
          lh = b.last_heard;
        }
        if (lv >= 1) {
          ++suspecting;
          freshest = std::max(freshest, lh);
        }
        if (lv >= 2) ++confirming;
      }
      if (level == 0 && suspecting >= quorum) {
        out.push_back({t, BeliefKind::kSuspected, p, freshest,
                       static_cast<double>(suspecting)});
        level = 1;
      }
      if (level == 1 && confirming >= quorum) {
        out.push_back({t, BeliefKind::kConfirmedDead, p, freshest,
                       static_cast<double>(confirming)});
        level = 2;
      }
      if (level >= 1 && suspecting < quorum) {
        out.push_back({t, BeliefKind::kExonerated, p, freshest, 0.0});
        level = 0;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BeliefEvent& a, const BeliefEvent& b) {
              return a.key() < b.key();
            });
  return out;
}

}  // namespace flb::runtime
