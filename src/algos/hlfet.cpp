#include "flb/algos/hlfet.hpp"

#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/util/error.hpp"

namespace flb {

Schedule HlfetScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, name() + ": at least one processor required");
  const std::vector<Cost> sl = computation_bottom_levels(g);
  // Highest static level first.
  return list_schedule(g, num_procs, insertion_,
                       [&](TaskId t) { return -sl[t]; });
}

}  // namespace flb
