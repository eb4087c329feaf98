#include "flb/algos/dls.hpp"

#include <vector>

#include "exhaustive.hpp"
#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"

namespace flb {

Schedule DlsScheduler::run(const TaskGraph& g, ProcId num_procs) {
  platform::CostModel model = platform::CostModel::clique(num_procs);
  return run_on(g, model);
}

Schedule DlsScheduler::run_on(const TaskGraph& g, platform::CostModel& model) {
  const std::vector<Cost> sl = computation_bottom_levels(g);
  // The largest dynamic level SL(t) - EST(t, p) over every (ready task,
  // alive processor) pair; ties go to the smaller task id, then (by scan
  // order) the smaller processor id.
  return detail::run_exhaustive(
      g, model, [&](const detail::ReadyRows& ready, const Schedule&) {
        detail::Pick best;
        Cost best_dl = -kInfiniteTime;
        for (std::size_t i = 0; i < ready.size(); ++i) {
          const TaskId t = ready.task(i);
          for (ProcId p : ready.procs()) {
            const Cost est = ready.est(i, p);
            const Cost dl = sl[t] - est;
            bool better = dl > best_dl || best.proc == kInvalidProc;
            if (!better && dl == best_dl) better = t < ready.task(best.index);
            if (better) {
              best_dl = dl;
              best = {i, p, est};
            }
          }
        }
        return best;
      });
}

}  // namespace flb
