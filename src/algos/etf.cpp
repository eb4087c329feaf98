#include "flb/algos/etf.hpp"

#include <vector>

#include "exhaustive.hpp"
#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"

namespace flb {

Schedule EtfScheduler::run(const TaskGraph& g, ProcId num_procs) {
  platform::CostModel model = platform::CostModel::clique(num_procs);
  return run_on(g, model);
}

Schedule EtfScheduler::run_on(const TaskGraph& g, platform::CostModel& model) {
  const std::vector<Cost> bl = bottom_levels(g);
  // The least EST over every (ready task, alive processor) pair; ties go
  // to the larger bottom level, then the smaller task id, then (by scan
  // order) the smaller processor id.
  return detail::run_exhaustive(
      g, model, [&](const detail::ReadyRows& ready, const Schedule&) {
        detail::Pick best;
        for (std::size_t i = 0; i < ready.size(); ++i) {
          const TaskId t = ready.task(i);
          for (ProcId p : ready.procs()) {
            const Cost est = ready.est(i, p);
            bool better = est < best.est || best.proc == kInvalidProc;
            if (!better && est == best.est) {
              const TaskId b = ready.task(best.index);
              better = bl[t] > bl[b] || (bl[t] == bl[b] && t < b);
            }
            if (better) best = {i, p, est};
          }
        }
        return best;
      });
}

}  // namespace flb
