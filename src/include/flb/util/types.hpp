#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

/// \file types.hpp
/// Fundamental identifier and cost types shared by every flb subsystem.

namespace flb {

/// Dense identifier of a task (a node of the task graph).
using TaskId = std::uint32_t;

/// Dense identifier of a processor in the machine model.
using ProcId = std::uint32_t;

/// Computation / communication cost and absolute time. Costs in the paper's
/// model are arbitrary non-negative reals; schedule times are derived sums.
using Cost = double;

/// Sentinel for "no task" (e.g. an unscheduled slot or absent predecessor).
inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

/// Sentinel for "no processor" (e.g. the enabling processor of an entry task).
inline constexpr ProcId kInvalidProc = std::numeric_limits<ProcId>::max();

/// Sentinel time used for "not yet computed / undefined" schedule fields.
inline constexpr Cost kUndefinedTime = -1.0;

/// Positive infinity, used as the identity for min-reductions over times.
inline constexpr Cost kInfiniteTime = std::numeric_limits<Cost>::infinity();

/// Absolute slack of every checker's time comparisons (the validators, the
/// schedule analysis, the linter and the runtime auditor): it absorbs the
/// round-off of summed costs, and nothing else.
inline constexpr Cost kTimeTolerance = 1e-9;

}  // namespace flb
