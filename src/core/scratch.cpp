#include "flb/core/scratch.hpp"

namespace flb::core {

void Scratch::prepare(TaskId num_tasks, ProcId num_procs) {
  arena_.reset();
  tasks_ = num_tasks;
  procs_ = num_procs;

  const std::size_t v = num_tasks;
  const std::size_t p = num_procs;

  // Every span below comes from one block: a cold prepare allocates once.
  arena_.reserve(3 * Arena::footprint<Cost>(v) +
                 Arena::footprint<std::uint32_t>(v) +
                 Arena::footprint<TaskId>(v) +
                 DaryIndexedHeap<TaskKey>::footprint(v) +
                 2 * DaryHeapForest<TaskKey>::footprint(v) +
                 2 * DaryIndexedHeap<ProcKey>::footprint(p) +
                 3 * Arena::footprint<TaskId>(p) +
                 2 * Arena::footprint<Cost>(p) +
                 Arena::footprint<std::uint8_t>(v));

  tie = arena_.alloc<Cost>(v);
  lmt = arena_.alloc<Cost>(v);
  emt_ep = arena_.alloc<Cost>(v);
  unscheduled_preds = arena_.alloc<std::uint32_t>(v);
  unfiled_next = arena_.alloc<TaskId>(v);

  non_ep.bind(arena_, v);
  emt_ep_heap.reset(arena_, v, p);
  lmt_ep_heap.reset(arena_, v, p);
  active_procs.bind(arena_, p);
  all_procs.bind(arena_, p);
  unfiled_head = arena_.alloc<TaskId>(p, kInvalidTask);
  unfiled_tail = arena_.alloc<TaskId>(p, kInvalidTask);
  unfiled_min = arena_.alloc<TaskId>(p, kInvalidTask);
  proc_est = arena_.alloc<Cost>(p);
  proc_arrival = arena_.alloc<Cost>(p);
  unfiled_flushes = arena_.alloc<std::uint8_t>(v);
}

}  // namespace flb::core
