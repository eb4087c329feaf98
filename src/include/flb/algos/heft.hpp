#pragma once

#include <vector>

#include "flb/platform/cost_model.hpp"
#include "flb/sched/schedule.hpp"

/// \file heft.hpp
/// HEFT and CPOP (Topcuoglu, Hariri & Wu, IEEE TPDS 2002) on the related-
/// machines extension of the paper's model — the best-known successors of
/// the list-scheduling line the paper belongs to, included as the
/// "where this research went next" extension. The machine is a
/// platform::CostModel: per-processor speed factors (set_speeds; task t
/// takes work(t) / speed(p) on p) over the model's network, which is the
/// paper's contention-free clique for CostModel::clique.
///
/// * **HEFT** (Heterogeneous Earliest Finish Time): tasks in descending
///   *upward rank* — mean execution time plus the heaviest
///   (comm + rank) path to an exit — each placed on the processor that
///   finishes it earliest, idle gaps included. O(V log V + (E+V)P + V·k)
///   with k the average tasks per processor (insertion search).
/// * **CPOP** (Critical Path On a Processor): priorities are upward +
///   downward rank; every task on the (rank-defined) critical path is
///   pinned to the single processor executing the whole path fastest;
///   the rest go to their earliest-finish processor.
///
/// Both run one list loop priced entirely through the model: availability
/// windows and dead processors restrict placement, communication follows
/// the model's mode (clique / routed hops / link-busy, committing the
/// reservations of every placement to the model), and execution uses its
/// speeds and work overrides. With unit speeds on a clique both reduce to
/// communication-aware homogeneous list schedulers (HEFT ~ a bottom-level-
/// priority MCP-I), which the tests exploit for cross-checking.

namespace flb {

/// HEFT's upward ranks: rank_u(t) = w(t) + max over succ (comm + rank_u),
/// with w(t) the mean execution time of t's (possibly overridden) work over
/// all processors and comm the edge's cost, as the paper prices a message.
/// Throws flb::Error unless the model fits g (CostModel::validate).
std::vector<Cost> upward_ranks(const TaskGraph& g,
                               const platform::CostModel& model);

/// CPOP's downward ranks: rank_d(t) = max over preds (rank_d + w + comm).
/// Throws as upward_ranks() does.
std::vector<Cost> downward_ranks(const TaskGraph& g,
                                 const platform::CostModel& model);

/// Schedule g with HEFT on the machine `model` describes. Throws
/// flb::Error unless the model fits g (CostModel::validate). The model is
/// mutated (link reservations) under link-busy pricing.
Schedule heft(const TaskGraph& g, platform::CostModel& model);

/// Schedule g with CPOP on the machine `model` describes; the critical
/// path goes to the alive processor that executes it fastest. Throws and
/// mutates the model as heft() does.
Schedule cpop(const TaskGraph& g, platform::CostModel& model);

}  // namespace flb
