#include "flb/algos/mcp.hpp"

#include <utility>
#include <vector>

#include "flb/graph/properties.hpp"
#include "flb/sched/tentative.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb {

Schedule McpScheduler::run(const TaskGraph& g, ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "MCP: at least one processor required");
  const std::vector<Cost> alap = alap_times(g);
  Rng rng(seed_);
  std::vector<double> tie(g.num_tasks());
  for (double& v : tie) v = rng.next_double();
  // Smallest (ALAP, random tie key) first.
  return list_schedule(g, num_procs, insertion_,
                       [&](TaskId t) { return std::pair(alap[t], tie[t]); });
}

}  // namespace flb
