#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "flb/core/flb.hpp"
#include "flb/graph/task_graph.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/util/types.hpp"

/// \file serve.hpp
/// Scheduling as a service: run FLB over many independent task graphs on a
/// fixed-size worker pool.
///
/// The serving regime (Tchiboukdjian–Gast–Trystram's framing: once request
/// volume scales, scheduling *overhead* dominates schedule quality) needs
/// two things from the engine: per-run state that is reused rather than
/// reallocated, and workers that never share it. Both come from the core
/// layer's arena-backed scratch:
///
///  * every worker owns one FlbScheduler (and therefore one core::Scratch
///    and one reusable Schedule buffer) — no sharing, no locks on the
///    scheduling hot path, zero steady-state heap allocation per request;
///  * `ScheduleService` feeds the pool from a bounded FIFO queue whose
///    submit() blocks while the queue is full (backpressure — the producer
///    is throttled to the pool's throughput instead of growing an
///    unbounded backlog), keeps each result in the slot of its dense
///    request id, and accounts per-request latency.
///
/// Determinism note: FLB is deterministic per graph, and requests are
/// independent, so the only ordering freedom in this layer is which worker
/// runs which request — the results themselves cannot differ. Digest
/// equality across thread counts is the cheap end-to-end check of exactly
/// that property.

namespace flb::serve {

/// The library's schedule digest (sched/schedule.hpp), re-exported for
/// callers that name it through the serving layer, such as perfbench.
/// ScheduleResult::digest holds it, so serving-layer digests compare
/// directly against the golden tests' and the recovery runtime's.
using flb::schedule_digest;

/// What the service hands back per request. The Schedule itself is only
/// materialized when asked for (keep_schedules): at serving volume the
/// caller usually wants the digest/makespan/latency triple, and dropping
/// the copy keeps the worker loop allocation-free.
struct ScheduleResult {
  std::uint64_t digest = 0;        ///< schedule_digest of the schedule
  Cost makespan = 0.0;             ///< schedule length
  double latency_ms = 0.0;         ///< submit-to-completion wall time
  double run_ms = 0.0;             ///< scheduling time alone (no queueing)
  std::optional<Schedule> schedule;  ///< set iff keep_schedules
};

/// Aggregate counters of a ScheduleService.
struct ServiceStats {
  std::size_t submitted = 0;           ///< requests accepted by submit()
  std::size_t completed = 0;           ///< requests fully processed
  std::size_t backpressure_waits = 0;  ///< submits that blocked on a full queue
};

/// A long-lived scheduling service: fixed worker pool, bounded request
/// queue with blocking backpressure, per-request latency accounting.
/// Thread-compatible: one producer thread submits, workers consume; the
/// accessors (result/stats) are safe after drain()/close() or for request
/// ids the caller knows are completed.
class ScheduleService {
 public:
  struct Options {
    std::size_t num_threads = 1;     ///< worker pool size (>= 1)
    std::size_t queue_capacity = 64; ///< max queued (unstarted) requests
    FlbOptions flb;                  ///< forwarded to every worker
    bool keep_schedules = false;     ///< retain each Schedule in its result
  };

  explicit ScheduleService(Options opts);
  ~ScheduleService();  ///< close() if still open

  ScheduleService(const ScheduleService&) = delete;
  ScheduleService& operator=(const ScheduleService&) = delete;

  /// Enqueue one request and return its id (dense, starting at 0). Blocks
  /// while the queue is at capacity — backpressure — and counts the wait.
  /// The graph is not owned and must stay alive until the request
  /// completes. Must not be called after close(). Throws flb::Error on
  /// zero processors, before the request is counted or queued.
  std::size_t submit(const TaskGraph& g, ProcId num_procs);

  /// Block until every submitted request has completed.
  void drain();

  /// Drain, stop the workers and join them. Idempotent; submit() is
  /// invalid afterwards.
  void close();

  /// Result of a completed request (valid after drain()/close(), or for a
  /// request id the caller otherwise knows has completed).
  [[nodiscard]] const ScheduleResult& result(std::size_t id) const;

  /// Number of requests submitted so far.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Pending {
    const TaskGraph* graph;
    ProcId num_procs;
    std::size_t id;
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable queue_space_;  ///< signalled when the queue shrinks
  std::condition_variable queue_work_;   ///< signalled when work arrives
  std::condition_variable all_done_;     ///< signalled when completed catches up
  std::deque<Pending> queue_;
  std::deque<ScheduleResult> results_;   ///< deque: stable slots across growth
  ServiceStats stats_;
  bool closing_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace flb::serve
