#pragma once

#include <iosfwd>
#include <string>

#include "flb/graph/task_graph.hpp"

/// \file serialize.hpp
/// Plain-text serialization of task graphs so that generated workloads can
/// be saved, diffed and re-loaded (e.g. to pin a specific random instance in
/// a regression test or exchange graphs with other tools).
///
/// Format (line-oriented, '#' comments allowed):
///
///     flb-taskgraph 1
///     name <optional name up to end of line>
///     tasks <V>
///     edges <E>
///     t <id> <comp>          (V lines, ids 0..V-1 in order)
///     e <from> <to> <comm>   (E lines)

namespace flb {

/// Write g in the text format above.
void write_text(std::ostream& os, const TaskGraph& g);

/// Parse a graph from the text format. Throws flb::Error on malformed
/// input (bad magic, counts not matching, invalid ids, cycles...).
TaskGraph read_text(std::istream& is);

/// Convenience: serialize to a string.
std::string to_text(const TaskGraph& g);

/// Convenience: parse from a string.
TaskGraph from_text(const std::string& text);

/// Read the next line that is neither blank nor a comment (first non-blank
/// character '#') into `line`; false at end of input. Every line-oriented
/// text reader of the library reads through it: the format above, STG
/// (graph/stg.hpp), schedule text (sched/export.hpp) and fault plans
/// (sim/faults.hpp).
bool next_line(std::istream& is, std::string& line);

}  // namespace flb
