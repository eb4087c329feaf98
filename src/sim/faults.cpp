#include "flb/sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb {

namespace {

bool finite_nonneg(Cost v) { return std::isfinite(v) && v >= 0.0; }

// Resolve one burst episode on `members`: each member participates with
// spec.probability and strikes at trigger + uniform[0, window]. The
// burst_index keys the deterministic per-member randomness, so primary and
// cascade episodes draw from disjoint streams.
void expand_burst(const FaultPlan& plan, const std::vector<ProcId>& members,
                  const DomainBurst& spec, Cost trigger,
                  std::uint64_t burst_index, ResolvedFaults& out) {
  for (std::size_t j = 0; j < members.size(); ++j) {
    Rng rng(stream_hash(plan.seed, SeedStream::kBurst,
                        (burst_index << 32) | static_cast<std::uint64_t>(j)));
    if (spec.probability < 1.0 && !rng.bernoulli(spec.probability)) continue;
    Cost when = trigger;
    if (spec.window > 0.0) when += rng.uniform(0.0, spec.window);
    const bool transient = spec.recovery_delay > 0.0;
    if (spec.slowdown_factor == 0.0) {
      out.failures.push_back({members[j], when});
      if (transient)
        out.rejoins.push_back({members[j], when + spec.recovery_delay});
    } else {
      out.slowdowns.push_back(
          {members[j], when, spec.slowdown_factor,
           transient ? when + spec.recovery_delay : kInfiniteTime});
    }
  }
}

// Canonicalize one processor's kill/rejoin events into alternating disjoint
// windows: walk them in time order (kills before rejoins at equal instants)
// keeping only state-changing events. Burst-induced strikes may legally
// collide with explicit windows; validation guarantees the *directly
// listed* events already alternate.
void canonicalize_windows(ResolvedFaults& out) {
  if (out.failures.empty()) {
    out.rejoins.clear();
    return;
  }
  struct Ev {
    Cost time;
    int kind;  // 0 = kill, 1 = rejoin
    ProcId proc;
  };
  std::vector<Ev> events;
  events.reserve(out.failures.size() + out.rejoins.size());
  for (const ProcFailure& f : out.failures) events.push_back({f.time, 0, f.proc});
  for (const ProcRejoin& r : out.rejoins) events.push_back({r.time, 1, r.proc});
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    return std::tie(a.proc, a.time, a.kind) < std::tie(b.proc, b.time, b.kind);
  });
  out.failures.clear();
  out.rejoins.clear();
  ProcId cur = kInvalidProc;
  bool dead = false;
  for (const Ev& e : events) {
    if (e.proc != cur) {
      cur = e.proc;
      dead = false;
    }
    if (e.kind == 0 && !dead) {
      out.failures.push_back({e.proc, e.time});
      dead = true;
    } else if (e.kind == 1 && dead) {
      out.rejoins.push_back({e.proc, e.time});
      dead = false;
    }
  }
  std::sort(out.failures.begin(), out.failures.end(),
            [](const ProcFailure& a, const ProcFailure& b) {
              return a.time != b.time ? a.time < b.time : a.proc < b.proc;
            });
  std::sort(out.rejoins.begin(), out.rejoins.end(),
            [](const ProcRejoin& a, const ProcRejoin& b) {
              return a.time != b.time ? a.time < b.time : a.proc < b.proc;
            });
}

}  // namespace

FaultPlan FaultPlan::single_failure(ProcId proc, Cost time) {
  FaultPlan plan;
  plan.failures.push_back({proc, time});
  return plan;
}

bool FaultPlan::trivial() const {
  return failures.empty() && rejoins.empty() && slowdowns.empty() &&
         bursts.empty() && partitions.empty() && !checkpoint.enabled() &&
         message.loss_probability == 0.0 &&
         message.delay_probability == 0.0 && runtime_spread == 0.0;
}

Cost FaultPlan::death_time(ProcId p) const {
  Cost earliest = kInfiniteTime;
  for (const ProcFailure& f : failures)
    if (f.proc == p && f.time < earliest) earliest = f.time;
  return earliest;
}

void FaultPlan::validate(ProcId num_procs) const {
  FLB_REQUIRE(message.loss_probability >= 0.0 &&
                  message.loss_probability <= 1.0,
              "FaultPlan: loss probability must be in [0, 1]");
  FLB_REQUIRE(message.delay_probability >= 0.0 &&
                  message.delay_probability <= 1.0,
              "FaultPlan: delay probability must be in [0, 1]");
  FLB_REQUIRE(message.delay_factor >= 1.0 &&
                  std::isfinite(message.delay_factor),
              "FaultPlan: delay factor must be finite and >= 1");
  FLB_REQUIRE(message.retry_timeout > 0.0 &&
                  std::isfinite(message.retry_timeout),
              "FaultPlan: retry timeout must be finite and positive");
  FLB_REQUIRE(message.backoff >= 1.0 && std::isfinite(message.backoff),
              "FaultPlan: backoff must be finite and >= 1");
  FLB_REQUIRE(runtime_spread >= 0.0 && runtime_spread < 1.0,
              "FaultPlan: runtime spread must be in [0, 1)");

  // Kill/rejoin windows: walk each processor's directly listed events in
  // time order (kills before rejoins at equal instants). A second failure
  // of a still-dead processor overlaps the open window; a rejoin needs an
  // open window that started strictly before it.
  struct KrEvent {
    Cost time;
    int kind;  // 0 = kill, 1 = rejoin
    std::size_t index;
  };
  std::map<ProcId, std::vector<KrEvent>> windows;

  for (std::size_t i = 0; i < failures.size(); ++i) {
    const ProcFailure& f = failures[i];
    const std::string where = "FaultPlan: failures[" + std::to_string(i) + "]";
    FLB_REQUIRE(f.proc < num_procs,
                where + " names processor " + std::to_string(f.proc) +
                    " but the machine has " + std::to_string(num_procs));
    FLB_REQUIRE(finite_nonneg(f.time),
                where + ": failure time must be finite and non-negative");
    windows[f.proc].push_back({f.time, 0, i});
  }

  for (std::size_t i = 0; i < rejoins.size(); ++i) {
    const ProcRejoin& r = rejoins[i];
    const std::string where = "FaultPlan: rejoins[" + std::to_string(i) + "]";
    FLB_REQUIRE(r.proc < num_procs,
                where + " names processor " + std::to_string(r.proc) +
                    " but the machine has " + std::to_string(num_procs));
    FLB_REQUIRE(finite_nonneg(r.time),
                where + ": rejoin time must be finite and non-negative");
    windows[r.proc].push_back({r.time, 1, i});
  }

  for (auto& [proc, events] : windows) {
    std::sort(events.begin(), events.end(),
              [](const KrEvent& a, const KrEvent& b) {
                return std::tie(a.time, a.kind) < std::tie(b.time, b.kind);
              });
    bool dead = false;
    Cost open_kill = 0.0;
    for (const KrEvent& e : events) {
      if (e.kind == 0) {
        FLB_REQUIRE(!dead,
                    "FaultPlan: failures[" + std::to_string(e.index) +
                        "] duplicates a failure of processor " +
                        std::to_string(proc) +
                        " inside a still-open kill/rejoin window");
        dead = true;
        open_kill = e.time;
      } else {
        const std::string where =
            "FaultPlan: rejoins[" + std::to_string(e.index) + "]";
        FLB_REQUIRE(dead, where + " rejoins processor " +
                              std::to_string(proc) +
                              " which has no preceding failure");
        FLB_REQUIRE(e.time > open_kill,
                    where + ": a rejoin must be strictly after the failure "
                            "it recovers from");
        dead = false;
      }
    }
  }

  for (std::size_t i = 0; i < slowdowns.size(); ++i) {
    const SlowdownFault& s = slowdowns[i];
    const std::string where =
        "FaultPlan: slowdowns[" + std::to_string(i) + "]";
    FLB_REQUIRE(s.proc < num_procs,
                where + " names processor " + std::to_string(s.proc) +
                    " but the machine has " + std::to_string(num_procs));
    FLB_REQUIRE(finite_nonneg(s.time),
                where + ": slowdown time must be finite and non-negative");
    FLB_REQUIRE(s.factor > 0.0 && s.factor <= 1.0 &&
                    std::isfinite(s.factor),
                where + ": slowdown factor must be in (0, 1]");
    FLB_REQUIRE(s.until == kInfiniteTime ||
                    (std::isfinite(s.until) && s.until > s.time),
                where + ": recovery instant `until` must be strictly after "
                        "the onset (or infinite for a permanent slowdown)");
  }

  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const FailureDomain& d = domains[i];
    const std::string where = "FaultPlan: domains[" + std::to_string(i) + "]";
    FLB_REQUIRE(!d.name.empty(), where + " has an empty name");
    FLB_REQUIRE(names.insert(d.name).second,
                where + " duplicates domain name '" + d.name + "'");
    for (ProcId m : d.members)
      FLB_REQUIRE(m < num_procs,
                  where + " ('" + d.name + "') lists member processor " +
                      std::to_string(m) + " but the machine has " +
                      std::to_string(num_procs));
  }

  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const DomainBurst& b = bursts[i];
    const std::string where = "FaultPlan: bursts[" + std::to_string(i) + "]";
    FLB_REQUIRE(names.count(b.domain) != 0,
                where + " references unknown domain '" + b.domain + "'");
    FLB_REQUIRE(finite_nonneg(b.time),
                where + ": burst time must be finite and non-negative");
    FLB_REQUIRE(finite_nonneg(b.window),
                where + ": burst window must be finite and non-negative");
    FLB_REQUIRE(b.probability >= 0.0 && b.probability <= 1.0,
                where + ": participation probability must be in [0, 1]");
    FLB_REQUIRE(b.slowdown_factor == 0.0 ||
                    (b.slowdown_factor > 0.0 && b.slowdown_factor <= 1.0 &&
                     std::isfinite(b.slowdown_factor)),
                where + ": slowdown factor must be 0 (fail-stop) or in "
                        "(0, 1]");
    FLB_REQUIRE(b.cascade_probability >= 0.0 && b.cascade_probability <= 1.0,
                where + ": cascade probability must be in [0, 1]");
    FLB_REQUIRE(finite_nonneg(b.cascade_delay),
                where + ": cascade delay must be finite and non-negative");
    FLB_REQUIRE(finite_nonneg(b.recovery_delay),
                where + ": recovery delay must be finite and non-negative");
  }

  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const PartitionFault& p = partitions[i];
    const std::string where =
        "FaultPlan: partitions[" + std::to_string(i) + "]";
    for (const std::string* d : {&p.domain_a, &p.domain_b})
      if (!d->empty())
        FLB_REQUIRE(names.count(*d) != 0,
                    where + " references unknown domain '" + *d + "'");
    if (p.domain_a.empty())
      FLB_REQUIRE(p.proc_a < num_procs,
                  where + " names processor " + std::to_string(p.proc_a) +
                      " but the machine has " + std::to_string(num_procs));
    if (p.domain_b.empty())
      FLB_REQUIRE(p.proc_b < num_procs,
                  where + " names processor " + std::to_string(p.proc_b) +
                      " but the machine has " + std::to_string(num_procs));
    const bool self =
        (!p.domain_a.empty() || !p.domain_b.empty())
            ? (!p.domain_a.empty() && p.domain_a == p.domain_b)
            : p.proc_a == p.proc_b;
    FLB_REQUIRE(!self, where + ": the two endpoints must differ (a "
                               "processor cannot partition from itself)");
    FLB_REQUIRE(finite_nonneg(p.time),
                where + ": partition onset must be finite and non-negative");
    FLB_REQUIRE(p.until == kInfiniteTime ||
                    (std::isfinite(p.until) && p.until > p.time),
                where + ": heal instant `until` must be strictly after the "
                        "onset (or infinite for a permanent partition)");
  }

  FLB_REQUIRE(finite_nonneg(checkpoint.interval),
              "FaultPlan: checkpoint interval must be finite and "
              "non-negative");
  FLB_REQUIRE(finite_nonneg(checkpoint.overhead),
              "FaultPlan: checkpoint overhead must be finite and "
              "non-negative");
  FLB_REQUIRE(finite_nonneg(checkpoint.min_downstream),
              "FaultPlan: checkpoint min_downstream must be finite and "
              "non-negative");

  FLB_REQUIRE(finite_nonneg(heartbeat.period),
              "FaultPlan: heartbeat period must be finite and non-negative");
  FLB_REQUIRE(heartbeat.loss_probability >= 0.0 &&
                  heartbeat.loss_probability <= 1.0,
              "FaultPlan: heartbeat loss probability must be in [0, 1]");
  FLB_REQUIRE(heartbeat.delay_probability >= 0.0 &&
                  heartbeat.delay_probability <= 1.0,
              "FaultPlan: heartbeat delay probability must be in [0, 1]");
  FLB_REQUIRE(std::isfinite(heartbeat.delay_factor) &&
                  heartbeat.delay_factor >= 1.0,
              "FaultPlan: heartbeat delay factor must be finite and >= 1");
  FLB_REQUIRE(std::isfinite(heartbeat.suspect_after) &&
                  heartbeat.suspect_after > 0.0,
              "FaultPlan: heartbeat suspect threshold must be finite and "
              "positive");
  FLB_REQUIRE(std::isfinite(heartbeat.confirm_after) &&
                  heartbeat.confirm_after > heartbeat.suspect_after,
              "FaultPlan: heartbeat confirm threshold must be finite and "
              "strictly above the suspect threshold");
}

Cost ResolvedFaults::death_time(ProcId p) const {
  Cost earliest = kInfiniteTime;
  for (const ProcFailure& f : failures)
    if (f.proc == p && f.time < earliest) earliest = f.time;
  return earliest;
}

Cost ResolvedFaults::available_from(ProcId p) const {
  std::size_t kills = 0;
  for (const ProcFailure& f : failures)
    if (f.proc == p) ++kills;
  if (kills == 0) return 0.0;
  std::size_t recovered = 0;
  Cost last_rejoin = 0.0;
  for (const ProcRejoin& r : rejoins)
    if (r.proc == p) {
      ++recovered;
      last_rejoin = std::max(last_rejoin, r.time);
    }
  // Windows are canonical: alternating kill/rejoin, so the processor ends
  // the episode alive iff every kill window was closed.
  return recovered == kills ? last_rejoin : kInfiniteTime;
}

Cost ResolvedFaults::downtime(ProcId p, Cost horizon) const {
  // Canonical windows: the i-th kill of p pairs with the i-th rejoin of p
  // (both lists are time-sorted); an unpaired kill extends to the horizon.
  std::vector<Cost> kills, recoveries;
  for (const ProcFailure& f : failures)
    if (f.proc == p) kills.push_back(f.time);
  for (const ProcRejoin& r : rejoins)
    if (r.proc == p) recoveries.push_back(r.time);
  Cost total = 0.0;
  for (std::size_t i = 0; i < kills.size(); ++i) {
    const Cost begin = std::min(kills[i], horizon);
    const Cost end =
        i < recoveries.size() ? std::min(recoveries[i], horizon) : horizon;
    total += std::max(0.0, end - begin);
  }
  return total;
}

ResolvedFaults resolve_faults(const FaultPlan& plan) {
  ResolvedFaults out;
  out.failures = plan.failures;
  out.rejoins = plan.rejoins;
  out.slowdowns = plan.slowdowns;

  std::unordered_map<std::string, std::size_t> by_name;
  for (std::size_t d = 0; d < plan.domains.size(); ++d)
    by_name.emplace(plan.domains[d].name, d);

  const std::uint64_t num_bursts = plan.bursts.size();
  const std::uint64_t num_domains = plan.domains.size();
  for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
    const DomainBurst& b = plan.bursts[i];
    const std::size_t home = by_name.at(b.domain);
    expand_burst(plan, plan.domains[home].members, b, b.time, i, out);
    if (b.cascade_probability == 0.0) continue;
    // One bounded level of cascading: each *other* domain is hit by a
    // secondary burst with cascade_probability, triggered once the primary
    // window has passed. Synthetic burst indices keep the member draws of
    // primary and cascade episodes decorrelated.
    for (std::size_t d = 0; d < plan.domains.size(); ++d) {
      if (d == home) continue;
      Rng rng(stream_hash(plan.seed, SeedStream::kCascade,
                          (static_cast<std::uint64_t>(i) << 32) |
                              static_cast<std::uint64_t>(d)));
      if (!rng.bernoulli(b.cascade_probability)) continue;
      expand_burst(plan, plan.domains[d].members, b,
                   b.time + b.window + b.cascade_delay,
                   num_bursts + i * num_domains + d, out);
    }
  }

  // Collapse kill/rejoin events into canonical alternating windows (for a
  // rejoin-free plan this reduces to the old earliest-death dedup); sort all
  // lists so the resolved set is a canonical value.
  canonicalize_windows(out);
  std::sort(out.slowdowns.begin(), out.slowdowns.end(),
            [](const SlowdownFault& a, const SlowdownFault& b) {
              return a.time != b.time ? a.time < b.time : a.proc < b.proc;
            });
  return out;
}

std::vector<LinkOutage> resolve_partitions(const FaultPlan& plan) {
  std::unordered_map<std::string, std::size_t> by_name;
  for (std::size_t d = 0; d < plan.domains.size(); ++d)
    by_name.emplace(plan.domains[d].name, d);

  std::vector<LinkOutage> raw;
  for (const PartitionFault& p : plan.partitions) {
    std::vector<ProcId> side_a, side_b;
    if (p.domain_a.empty())
      side_a.push_back(p.proc_a);
    else
      side_a = plan.domains[by_name.at(p.domain_a)].members;
    if (p.domain_b.empty())
      side_b.push_back(p.proc_b);
    else
      side_b = plan.domains[by_name.at(p.domain_b)].members;
    for (ProcId a : side_a)
      for (ProcId b : side_b) {
        if (a == b) continue;  // overlapping domains: no self-link
        raw.push_back({std::min(a, b), std::max(a, b), p.time, p.until});
      }
  }

  std::sort(raw.begin(), raw.end(),
            [](const LinkOutage& x, const LinkOutage& y) {
              return std::tie(x.a, x.b, x.time, x.until) <
                     std::tie(y.a, y.b, y.time, y.until);
            });
  // Merge overlapping or touching windows of one link into maximal
  // disjoint windows, so the outage set is a canonical value.
  std::vector<LinkOutage> out;
  for (const LinkOutage& w : raw) {
    if (!out.empty() && out.back().a == w.a && out.back().b == w.b &&
        w.time <= out.back().until) {
      out.back().until = std::max(out.back().until, w.until);
    } else {
      out.push_back(w);
    }
  }
  return out;
}

bool link_partitioned(const std::vector<LinkOutage>& outages, ProcId x,
                      ProcId y, Cost t) {
  if (x == y) return false;
  const ProcId a = std::min(x, y), b = std::max(x, y);
  for (const LinkOutage& w : outages)
    if (w.a == a && w.b == b && t >= w.time && t < w.until) return true;
  return false;
}

bool path_connected(const std::vector<LinkOutage>& outages, ProcId num_procs,
                    ProcId x, ProcId y, Cost t) {
  return reroute_hops(outages, num_procs, x, y, t) > 0 || x == y;
}

std::size_t reroute_hops(const std::vector<LinkOutage>& outages,
                         ProcId num_procs, ProcId x, ProcId y, Cost t) {
  if (x == y) return 0;
  if (!link_partitioned(outages, x, y, t)) return 1;
  // Breadth-first search over the complement of the partitioned link set
  // (the machine is a clique; only cut links are missing).
  std::vector<std::size_t> dist(num_procs, 0);
  std::vector<ProcId> frontier{x};
  dist[x] = 1;  // 1 + hops, so 0 doubles as "unvisited"
  while (!frontier.empty()) {
    std::vector<ProcId> next;
    for (ProcId u : frontier)
      for (ProcId v = 0; v < num_procs; ++v) {
        if (dist[v] != 0 || link_partitioned(outages, u, v, t) || u == v)
          continue;
        dist[v] = dist[u] + 1;
        if (v == y) return dist[v] - 1;
        next.push_back(v);
      }
    frontier = std::move(next);
  }
  return 0;
}

std::vector<double> final_speeds(const ResolvedFaults& resolved,
                                 ProcId num_procs) {
  std::vector<double> speeds(num_procs, 1.0);
  for (const SlowdownFault& s : resolved.slowdowns)
    if (s.proc < num_procs && s.until == kInfiniteTime)
      speeds[s.proc] *= s.factor;
  return speeds;
}

std::size_t checkpoint_count(const CheckpointPolicy& ckpt, Cost work) {
  if (!ckpt.enabled() || work <= ckpt.interval) return 0;
  return static_cast<std::size_t>(std::ceil(work / ckpt.interval)) - 1;
}

MessageOutcome resolve_message(const FaultPlan& plan, std::size_t edge_slot) {
  MessageOutcome out;
  const MessageFaults& m = plan.message;
  if (m.loss_probability == 0.0 && m.delay_probability == 0.0) return out;
  Rng rng(stream_hash(plan.seed, SeedStream::kEdge, edge_slot));

  if (m.delay_probability > 0.0)
    out.delayed = rng.bernoulli(m.delay_probability);

  if (m.loss_probability > 0.0) {
    Cost timeout = m.retry_timeout;
    std::size_t attempt = 0;
    while (rng.bernoulli(m.loss_probability)) {
      if (attempt == m.max_retries) {
        out.dropped = true;
        return out;
      }
      out.retry_delay += timeout;
      timeout *= m.backoff;
      ++attempt;
      ++out.retries;
    }
  }
  return out;
}

Cost runtime_factor(const FaultPlan& plan, TaskId t) {
  if (plan.runtime_spread == 0.0) return 1.0;
  Rng rng(stream_hash(plan.seed, SeedStream::kTask, t));
  return rng.uniform(1.0 - plan.runtime_spread, 1.0 + plan.runtime_spread);
}

}  // namespace flb
