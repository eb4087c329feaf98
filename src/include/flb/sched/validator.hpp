#pragma once

#include <string>
#include <vector>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"

namespace flb {
class Topology;  // sim/topology.hpp
namespace platform {
struct LinkOccupancy;  // platform/cost_model.hpp
}  // namespace platform
}  // namespace flb

/// \file validator.hpp
/// Independent feasibility checking of schedules. Every scheduler in this
/// library is tested against this validator; it recomputes all constraints
/// from scratch and shares no code with any scheduler.

namespace flb {

/// One detected constraint violation.
struct Violation {
  enum class Kind {
    kUnscheduledTask,    ///< a task was never assigned
    kNonFiniteTime,      ///< ST(t) or FT(t) is NaN or infinite
    kWrongDuration,      ///< FT(t) != ST(t) + comp(t)
    kNegativeStart,      ///< ST(t) < 0
    kProcessorOverlap,   ///< two tasks overlap on one processor
    kPrecedence,         ///< t starts before a predecessor's data arrives
    kLinkBusyViolation,  ///< two transfers occupy one link at once
  };
  Kind kind;
  TaskId task;         ///< offending task (the later one for overlaps)
  std::string detail;  ///< human-readable description
};

/// Check `s` against `g`. Returns all violations found (empty == feasible).
/// Constraints (paper Section 2):
///  * every task is scheduled exactly once with finite ST and FT and
///    FT = ST + comp;
///  * tasks on one processor do not overlap in time;
///  * a task starts no earlier than FT(pred) for same-processor
///    predecessors and FT(pred) + comm for remote ones.
/// Comparisons allow kTimeTolerance (util/types.hpp) of slack to absorb
/// floating-point accumulation. Throws flb::Error when `s` is sized for a
/// different number of tasks than `g` has.
std::vector<Violation> validate_schedule(const TaskGraph& g,
                                         const Schedule& s);

/// As above, but with an explicit expected duration per task instead of the
/// homogeneous FT = ST + comp rule. Used for continuation schedules built
/// after a degraded-mode episode, where a task's wall time may legitimately
/// differ from comp(t): slowdown-stretched executions, checkpoint-resumed
/// remainders, checkpoint-write pauses, perturbed runtimes. An entry of
/// kUndefinedTime skips the duration check for that task; every other
/// constraint (exclusivity, precedence, finiteness) is enforced unchanged.
/// `durations` must have one entry per task.
std::vector<Violation> validate_schedule(const TaskGraph& g,
                                         const Schedule& s,
                                         const std::vector<Cost>& durations);

/// True iff validate_schedule finds no violations.
bool is_valid_schedule(const TaskGraph& g, const Schedule& s);

/// True iff the durations-aware validate_schedule reports nothing.
bool is_valid_schedule(const TaskGraph& g, const Schedule& s,
                       const std::vector<Cost>& durations);

/// Audit a link-busy commit log (platform::CostModel::occupancies — what a
/// resume, HEFT/CPOP or ETF/DLS run_on on a link-busy model committed — or
/// RepairResult::link_occupancies)
/// against the store-and-forward exclusivity rule: a link carries at most
/// one transfer at any instant. Reports one kLinkBusyViolation per pair of
/// occupancies sharing positive measure on a link, plus findings for
/// occupancies naming a link the topology does not have, with non-finite
/// endpoints, beginning before 0, or ending before they begin. Link
/// findings carry Violation::task == kInvalidTask. Comparisons allow
/// kTimeTolerance, as above. Independent of every producer: it re-sorts
/// and sweeps the raw intervals.
std::vector<Violation> validate_link_occupancies(
    const Topology& topology,
    const std::vector<platform::LinkOccupancy>& occupancies);

/// Render one violation for diagnostics.
std::string to_string(const Violation& v);

}  // namespace flb
