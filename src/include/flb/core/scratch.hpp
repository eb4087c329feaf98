#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <utility>

#include "flb/util/arena.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/types.hpp"

/// \file scratch.hpp
/// Reusable, arena-backed scratch state for the FLB scheduling engine —
/// the "scheduling as a service" refactor's core layer.
///
/// One FLB run needs O(V + P) working state: the SoA ready-task arrays
/// (tie priority, LMT, EMT on the enabling processor, unscheduled-
/// predecessor counts), five indexed heaps and the per-processor unfiled
/// lists; the bottom levels come precomputed with the graph, and the
/// bottom-level tie-break reads them there. Before this refactor the engine
/// rebuilt all of it with fresh `std::vector`s on every `schedule()` call,
/// so per-run allocation — not the O(log W + log P) step — dominated wall
/// time at serving volume (visible as FLB losing to MCP in
/// bench_complexity_scaling despite the better asymptotics).
///
/// An EP task enabled by processor q starts *unfiled*: it waits on q's
/// intrusive list (head, tail, next links) instead of in the two EP heaps,
/// and q's list minimum by EMT key stands in for it when candidate (a) is
/// chosen. Each time q's ready time moves, the engine flushes the list:
/// members whose LMT fell below it go to the non-EP heap, the rest stay on
/// the list with one more flush counted (one byte per task), and the list
/// minimum is recomputed. A member is filed into the EP heaps only when it
/// survives its kMaxUnfiledFlushes-th flush, so most EP tasks never touch
/// those heaps at all.
///
/// A Scratch owns one monotonic Arena and re-carves every structure out of
/// it in prepare(), called at the top of each run. prepare() reserves the
/// run's whole (V, P) footprint as one block, and blocks are not
/// zero-filled, so a cold engine makes one allocation and faults in only
/// the pages the run writes. The arena is reset — not reallocated —
/// between runs, so any run no larger than the largest one seen performs
/// **zero heap allocations** on the scheduling path (pinned by
/// tests/flb_alloc_test.cpp). A Scratch is single-threaded by
/// design: the concurrent batch driver (flb::serve) gives each worker its
/// own.
///
/// Contents are engine-private: the fields are public so the engine in
/// core/flb.cpp can use them directly, but their values are meaningless
/// outside a run. Treat Scratch as an opaque reusable buffer.

namespace flb::core {

/// Task-list key: (primary time, negated tie priority, task id). Sorted
/// ascending, so smaller time first, then larger tie priority (the paper
/// breaks ties toward the larger bottom level), then smaller id for full
/// determinism.
using TaskKey = std::tuple<Cost, Cost, TaskId>;

/// Processor-list key: (time, processor id).
using ProcKey = std::pair<Cost, ProcId>;

/// Flushes an EP task may survive on its enabling processor's unfiled list
/// before the engine files it into the two EP heaps. A member is visited
/// once per flush and leaves at its kMaxUnfiledFlushes-th visit at the
/// latest, so the flushes of a run visit at most kMaxUnfiledFlushes times
/// as many members as there are EP tasks: O(V) list work, inside the
/// O(V(log W + log P) + E) bound.
///
/// Flushes survived before leaving the list, over 470,441 EP tasks of LU,
/// Laplace, Stencil, FFT, Gauss and Random at V~2000, CCR 0.2, 1, 5 and
/// 10, P 2, 4, 8, 16 and 32, seeds 1 and 7919 (cumulative share):
///
///   survived   0      1      3      7      15     16     20     27
///   share      47.3%  60.4%  72.8%  87.3%  97.8%  98.4%  99.8%  100%
///
/// So 2.2% of those EP tasks are filed, and none on the paper's V~2000 LU,
/// Laplace and Stencil cases at CCR 0.2 and 5, P 8 and 32.
inline constexpr std::uint8_t kMaxUnfiledFlushes = 16;

class Scratch {
 public:
  Scratch() = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  Scratch(Scratch&&) noexcept = default;
  Scratch& operator=(Scratch&&) noexcept = default;

  /// Re-dimension every structure for a (num_tasks, num_procs) run:
  /// rewind the arena, reserve the run's footprint in one block and
  /// re-carve all spans and heap bindings from it. O(V + P);
  /// allocation-free once the arena has grown to cover the largest run
  /// seen. Span contents are undefined until the engine writes them.
  void prepare(TaskId num_tasks, ProcId num_procs);

  [[nodiscard]] TaskId num_tasks() const { return tasks_; }
  [[nodiscard]] ProcId num_procs() const { return procs_; }

  /// The arena every span is carved from (read-only: block count and
  /// footprint).
  [[nodiscard]] const Arena& arena() const { return arena_; }

  // -- SoA ready-task state (parallel arrays indexed by task id) ----------
  std::span<Cost> tie;        ///< tie-break priority (kTaskId, kRandom)
  std::span<Cost> lmt;        ///< last message arrival time
  std::span<Cost> emt_ep;     ///< EMT on the enabling processor
  std::span<std::uint32_t> unscheduled_preds;  ///< pending predecessor count
  std::span<TaskId> unfiled_next;  ///< next member of the same unfiled list
  std::span<std::uint8_t> unfiled_flushes;  ///< flushes survived unfiled

  // -- Unfiled EP lists (parallel arrays indexed by processor id) ---------
  std::span<TaskId> unfiled_head;  ///< first member (kInvalidTask = empty)
  std::span<TaskId> unfiled_tail;  ///< last member, where appends go
  std::span<TaskId> unfiled_min;   ///< member with the least EMT key

  // -- Exact-pricing rows (parallel arrays indexed by processor id) -------
  std::span<Cost> proc_est;      ///< EST of the scanned task on each proc
  std::span<Cost> proc_arrival;  ///< one predecessor's arrival on each proc

  // -- The paper's task and processor lists as indexed d-ary heaps --------
  DaryIndexedHeap<TaskKey> non_ep;          ///< non-EP ready tasks, by LMT
  DaryHeapForest<TaskKey> emt_ep_heap;      ///< per-proc filed EP tasks, by EMT
  DaryHeapForest<TaskKey> lmt_ep_heap;      ///< per-proc filed EP tasks, by LMT
  DaryIndexedHeap<ProcKey> active_procs;    ///< procs with EP tasks, by EST
  DaryIndexedHeap<ProcKey> all_procs;       ///< alive procs, by PRT

 private:
  Arena arena_;
  TaskId tasks_ = 0;
  ProcId procs_ = 0;
};

}  // namespace flb::core
