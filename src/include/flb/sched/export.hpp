#pragma once

#include <iosfwd>
#include <string>

#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"

/// \file export.hpp
/// Machine-readable schedule exporters:
///
///  * plain text — the round-trippable `flb-schedule 1` format, for export
///    and round trips only (schedules are identified by schedule_digest in
///    sched/schedule.hpp, which hashes placement bits, not this text);
///  * JSON — a compact self-describing document (graph name, processor
///    count, makespan, one record per task) for downstream tooling;
///  * Chrome trace-event format — load the file in chrome://tracing or
///    https://ui.perfetto.dev to inspect a schedule as a real timeline,
///    one track per processor.

namespace flb {

/// Write the schedule as a single JSON object:
/// {"graph": ..., "procs": P, "makespan": M,
///  "tasks": [{"id":0,"proc":1,"start":...,"finish":...,"comp":...}, ...]}
void write_schedule_json(std::ostream& os, const TaskGraph& g,
                         const Schedule& s);

/// Write the schedule in Chrome trace-event JSON (array form). Durations
/// are emitted in microseconds with one time unit = 1 us; processors map
/// to thread ids within a single process.
void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s);

/// Convenience string forms.
std::string to_schedule_json(const TaskGraph& g, const Schedule& s);
std::string to_chrome_trace(const TaskGraph& g, const Schedule& s);

/// Plain-text schedule serialization, round-trippable (companion to the
/// graph format in graph/serialize.hpp):
///
///     flb-schedule 1
///     procs <P>
///     tasks <V>
///     a <task> <proc> <start> <finish>     (one line per assignment)
///
/// '#' comment lines allowed. Used by the flb_verify tool to validate
/// schedules produced by external programs. Ids print in decimal and times
/// as %.17g (std::to_chars, general format, precision 17): enough digits to
/// round-trip every double, and the same bytes an ostream writes at
/// precision(17). The caller's stream formatting state is left unchanged.
void write_schedule_text(std::ostream& os, const Schedule& s);

/// Parse the text format. Enforces Schedule's structural invariants
/// (ids in range, no double assignment, per-processor non-overlap); use
/// validate_schedule afterwards for precedence feasibility against a graph.
Schedule read_schedule_text(std::istream& is);

/// Convenience string forms.
std::string to_schedule_text(const Schedule& s);
Schedule schedule_from_text(const std::string& text);

}  // namespace flb
