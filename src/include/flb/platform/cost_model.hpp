#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/types.hpp"

/// \file cost_model.hpp
/// The platform cost model: the one description of the machine that every
/// placement decision in this library prices against. FLB resumes,
/// schedule repair, HEFT/CPOP and ETF/DLS run_on take a caller-built
/// CostModel (fresh FLB, ETF, DLS and ETF-LA runs build
/// CostModel::clique(P)), and the machine simulator (flb::simulate) prices
/// its messages through one: a clique, or link_busy() over
/// SimOptions::topology. A model answers three questions:
///
///  * **Communication** — `comm(src, dst, bytes, depart)` in three modes:
///    - kClique: the paper's contention-free clique (Section 2); O(1) per
///      query, which preserves FLB's O(V(log W + log P) + E) bound;
///    - kRoutedHops: `bytes * hops(src, dst)` over a Topology's
///      deterministic shortest routes — distance-aware, contention-free;
///    - kLinkBusy: store-and-forward over the route against per-link
///      reservations — each hop begins when both the message and the link
///      are free. `comm()` *probes* without reserving; `commit()` walks the
///      same route, claims the links, and logs a LinkOccupancy per hop so
///      schedules can be audited against link exclusivity
///      (validate_link_occupancies).
///    `arrivals(src, bytes, finish, out)` prices one message to every
///    destination at once — in link-busy mode by one walk of the source's
///    route tree (Topology::route_tree) instead of P route probes.
///  * **Execution** — `exec(g, t, p)`: per-task work overrides
///    (checkpoint-resumed remainders), related-machines speed factors, and
///    per-task additive wall time (checkpoint writes).
///  * **Availability** — alive processors, admission instants (global
///    release + per-processor rejoin times) and cold-cache horizons,
///    folded into `arrival()`: warm local data is free, local data
///    predating a reboot is re-fetched at `cold + bytes`, and remote data
///    pays the mode's network price.
///
/// From the three answers it prices the paper's EST for every placement
/// engine: inputs_ready(), inputs_ready_row(), min_est() and
/// commit_inputs().
///
/// A fresh model (any factory, nothing else set) has unit speeds, graph
/// costs and every processor admitted from 0; CostModel::clique(P) is then
/// exactly the paper's machine. Its arithmetic is the paper's operation
/// for operation (a message costs its edge's `bytes`, the comm(t, t') of
/// Section 2, with no multiplier), so clique-mode FLB schedules are
/// bit-identical to the paper's pricing — guarded by the golden digests
/// in tests/platform_test.cpp. A what-if sweep over message costs scales
/// the graph's edge costs instead.

namespace flb::platform {

/// How remote communication is priced.
enum class CommMode {
  kClique,      ///< the paper's model: flat cost, contention-free, O(1)
  kRoutedHops,  ///< cost * shortest-route hop count (contention-free)
  kLinkBusy,    ///< store-and-forward against per-link reservations
};

/// One reserved hop of a committed link-busy transfer: link `link` carries
/// a message on [begin, end). The commit log of a pricing run; feeds
/// validate_link_occupancies.
struct LinkOccupancy {
  std::size_t link = 0;
  Cost begin = 0.0;
  Cost end = 0.0;
};

/// When each processor may run work, and at what cache state. The empty
/// vectors are the common fast case: everything alive from `release`, no
/// reboots.
struct Availability {
  /// No newly placed task starts before this instant.
  Cost release = 0.0;
  /// Which processors may receive work (empty = all of them).
  std::vector<bool> alive;
  /// Per-processor admission instant, combined with `release` by max
  /// (empty = all `release`). A rejoined processor becomes usable at its
  /// rejoin time.
  std::vector<Cost> proc_release;
  /// Per-processor cold-cache horizon (empty = none): data produced on p
  /// at or before this instant was lost with its memory at the reboot and
  /// must be re-fetched. 0 = never rebooted.
  std::vector<Cost> cold_before;

  [[nodiscard]] bool is_alive(ProcId p) const {
    return alive.empty() || alive[p];
  }
  [[nodiscard]] Cost admission(ProcId p) const {
    return proc_release.empty() ? release
                                : std::max(release, proc_release[p]);
  }
  [[nodiscard]] Cost cold_horizon(ProcId p) const {
    return cold_before.empty() ? 0.0 : cold_before[p];
  }
  [[nodiscard]] bool any_cold() const {
    for (Cost c : cold_before)
      if (c > 0.0) return true;
    return false;
  }

  /// The repair path's recovery rule: admit the processors in `admitted`;
  /// those that were killed and rejoined (0 < available_from < inf) are
  /// admitted from max(release, rejoin) with a cold cache up to the rejoin
  /// instant; never-killed processors are admitted from `release` warm.
  static Availability recovery(Cost release,
                               const std::vector<bool>& admitted,
                               const std::vector<Cost>& available_from);
};

/// The platform model every scheduler, repair and simulator prices against.
/// Construct via the factories; configure availability/execution as needed.
/// The clique factory never touches a Topology, so clique queries stay O(1)
/// with no indirection — FLB's complexity bound depends on it.
class CostModel {
 public:
  /// P fully connected processors, contention-free — the paper's machine.
  static CostModel clique(ProcId num_procs);
  /// Hop-count pricing over `topology` (not owned; must outlive the model
  /// and every copy of it). comm() reads the topology's hop table through
  /// a span the model keeps, so a query costs one lookup and no pointer
  /// chase; the model copies nothing of it.
  static CostModel routed(const Topology& topology);
  /// Store-and-forward link reservations over `topology` (not owned, as in
  /// routed()). Probes and commits walk the topology's CSR routes;
  /// arrivals() walks its route trees.
  static CostModel link_busy(const Topology& topology);

  [[nodiscard]] ProcId num_procs() const { return procs_; }
  [[nodiscard]] CommMode mode() const { return mode_; }
  [[nodiscard]] const Topology* topology() const { return topo_; }

  // -- Availability -------------------------------------------------------

  /// Install the availability windows. Throws flb::Error unless every
  /// per-processor vector is empty or covers num_procs() entries, and the
  /// release, per-processor releases and cold-cache horizons are finite and
  /// non-negative.
  void set_availability(Availability a);
  [[nodiscard]] const Availability& availability() const { return avail_; }
  [[nodiscard]] bool alive(ProcId p) const { return avail_.is_alive(p); }
  [[nodiscard]] Cost admission(ProcId p) const { return avail_.admission(p); }
  [[nodiscard]] Cost cold_horizon(ProcId p) const {
    return avail_.cold_horizon(p);
  }

  /// True when EST pricing is destination-dependent beyond the clique
  /// corollary (routed/link-busy modes or any cold cache) — consumers use
  /// this to switch from Corollary 2 shortcuts to exact pricing.
  [[nodiscard]] bool exact_pricing() const {
    return mode_ != CommMode::kClique || avail_.any_cold();
  }

  // -- Execution ----------------------------------------------------------

  /// Related-machines speed factors, all finite and > 0 (empty = unit
  /// speeds). Throws flb::Error otherwise, or unless it covers
  /// num_procs() entries.
  void set_speeds(std::vector<double> speeds);
  /// Per-task work override (empty = graph costs; kUndefinedTime entries
  /// fall back to the graph) — checkpoint-resumed remainders. Throws
  /// flb::Error on a NaN, infinite or negative entry other than
  /// kUndefinedTime, the rule simulate() applies to its work override.
  void set_work(std::vector<Cost> work);
  /// Per-task additive wall time after speed scaling (empty = none).
  /// Throws flb::Error on a NaN, infinite or negative entry.
  void set_extra_time(std::vector<Cost> extra);

  /// Check that this model fits `g` before pricing it: the per-task work
  /// and extra-time vectors are empty or cover every task of `g`, and at
  /// least one processor is admitted. Throws flb::Error otherwise. Every
  /// function that takes a model and a graph (FLB resume, HEFT, CPOP and
  /// their ranks, ETF/DLS run_on) calls it first.
  void validate(const TaskGraph& g) const;

  [[nodiscard]] double speed(ProcId p) const {
    return speeds_.empty() ? 1.0 : speeds_[p];
  }

  /// Effective work of task t: the override when set, else comp(t).
  [[nodiscard]] Cost work_of(const TaskGraph& g, TaskId t) const {
    Cost work = g.comp(t);
    if (!work_.empty() && work_[t] != kUndefinedTime) work = work_[t];
    return work;
  }

  /// Wall time of `work` units on p: work / speed(p).
  [[nodiscard]] Cost exec_work(Cost work, ProcId p) const {
    if (!speeds_.empty()) return work / speeds_[p];
    return work;
  }

  /// Wall time of task t on p: effective work through exec_work, plus the
  /// task's additive extra time.
  [[nodiscard]] Cost exec(const TaskGraph& g, TaskId t, ProcId p) const {
    Cost d = exec_work(work_of(g, t), p);
    if (!extra_.empty()) d += extra_[t];
    return d;
  }

  /// Mean wall time of `work` over all processors (HEFT's rank weights).
  [[nodiscard]] Cost mean_exec_work(Cost work) const {
    return work * mean_inverse_speed_;
  }

  // -- Communication ------------------------------------------------------

  /// The instant data departing `src` at `depart` becomes usable on `dst`.
  /// Same-processor transfers are free in every mode. Link-busy probes the
  /// current reservations without claiming them — call commit() for the
  /// chosen placement.
  [[nodiscard]] Cost comm(ProcId src, ProcId dst, Cost bytes,
                          Cost depart) const {
    if (src == dst) return depart;
    if (mode_ == CommMode::kClique) return depart + bytes;
    if (mode_ == CommMode::kRoutedHops)
      return depart + bytes * routed_hops(src, dst);
    return probe_route(src, dst, bytes, depart);
  }

  /// Cold-cache-aware arrival of a predecessor output produced on `src`
  /// (finishing at `finish`) at a consumer on `dst`: warm local data is
  /// free; local data predating dst's reboot is re-fetched at
  /// cold_horizon + bytes (a fresh flat transfer); remote data pays
  /// comm().
  [[nodiscard]] Cost arrival(ProcId src, ProcId dst, Cost bytes,
                             Cost finish) const {
    if (src == dst) {
      const Cost cold = avail_.cold_horizon(dst);
      if (cold > 0.0 && finish <= cold) return cold + bytes;
      return finish;
    }
    return comm(src, dst, bytes, finish);
  }

  /// arrival(src, p, bytes, finish) for every processor p, written to
  /// `out[p]` (`out` holds num_procs() entries). Bit-identical to the P
  /// separate calls in every mode; in link-busy mode one walk of src's
  /// route tree visits P - 1 links where P probes would visit the sum of
  /// all hop counts.
  void arrivals(ProcId src, Cost bytes, Cost finish,
                std::span<Cost> out) const;

  /// As comm(), but in link-busy mode the route's links are reserved: each
  /// hop is logged as a LinkOccupancy and extends that link's free time.
  /// In clique/routed modes this is exactly comm() (nothing to reserve).
  Cost commit(ProcId src, ProcId dst, Cost bytes, Cost depart);

  /// As arrival(), with the remote case committed instead of probed.
  Cost commit_arrival(ProcId src, ProcId dst, Cost bytes, Cost finish) {
    if (src == dst) return arrival(src, dst, bytes, finish);
    return commit(src, dst, bytes, finish);
  }

  // -- EST pricing --------------------------------------------------------
  //
  // EST(t, p) = max(PRT(p), admission(p), every input's arrival at p)
  // (paper Section 2, with availability). Every placement engine prices it
  // through these four members; every predecessor of t must be placed in
  // `s`. The independent checkers (the validator, the linter and the naive
  // sched/tentative references) keep their own arithmetic.

  /// The instant every input of t is usable on p: the max of `floor` and
  /// each predecessor output's arrival() at p. Probes only.
  [[nodiscard]] Cost inputs_ready(const TaskGraph& g, const Schedule& s,
                                  TaskId t, ProcId p, Cost floor) const {
    for (const Adj& in : g.predecessors(t))
      floor = std::max(floor,
                       arrival(s.proc(in.node), p, in.comm, s.finish(in.node)));
    return floor;
  }

  /// inputs_ready() on every processor at once: `ready[p]` holds p's floor
  /// on entry and its inputs-ready instant on return. Each input is priced
  /// by one arrivals() row into `row` (scratch); both spans hold
  /// num_procs() entries. Bit-identical to P inputs_ready() calls.
  void inputs_ready_row(const TaskGraph& g, const Schedule& s, TaskId t,
                        std::span<Cost> ready, std::span<Cost> row) const;

  /// The alive processor where t starts the earliest, and that start: the
  /// least max(PRT(p), admission(p), inputs ready on p), the smaller id on
  /// a tie; {kInvalidProc, kInfiniteTime} if no start is finite. `est`
  /// receives every processor's start, `row` is scratch as in
  /// inputs_ready_row().
  std::pair<ProcId, Cost> min_est(const TaskGraph& g, const Schedule& s,
                                  TaskId t, std::span<Cost> est,
                                  std::span<Cost> row) const;

  /// The link-reserving twin of inputs_ready(): each input's route to p is
  /// committed, in predecessor order. Never earlier than inputs_ready()
  /// probed just before, and equal to it unless two input routes share a
  /// link: a probe prices every input against the same link state, but the
  /// commits reserve one after another, so inputs that share a link
  /// serialize on it. In clique and routed modes it is inputs_ready().
  Cost commit_inputs(const TaskGraph& g, const Schedule& s, TaskId t,
                     ProcId p, Cost floor);

  /// Drop all link reservations and the occupancy log (re-pricing runs).
  void reset_links();

  /// The commit log: one entry per reserved hop, in commit order. Its size
  /// is the number of hops reserved; a link's busy time is the sum of its
  /// entries' end - begin.
  [[nodiscard]] const std::vector<LinkOccupancy>& occupancies() const {
    return occupancies_;
  }

 private:
  CostModel(CommMode mode, ProcId procs, const Topology* topo);

  [[nodiscard]] Cost routed_hops(ProcId src, ProcId dst) const {
    return static_cast<Cost>(hops_[std::size_t{src} * procs_ + dst]);
  }

  [[nodiscard]] Cost probe_route(ProcId src, ProcId dst, Cost bytes,
                                 Cost depart) const;

  CommMode mode_;
  ProcId procs_;
  const Topology* topo_;              // null in clique mode
  std::span<const std::size_t> hops_;  // topo_->hop_table(), borrowed

  Availability avail_;

  std::vector<double> speeds_;        // empty = unit speeds
  double mean_inverse_speed_ = 1.0;
  std::vector<Cost> work_;   // empty = graph costs
  std::vector<Cost> extra_;  // empty = none

  std::vector<Cost> link_free_;  // link-busy: per-link next free instant
  std::vector<LinkOccupancy> occupancies_;
};

}  // namespace flb::platform
