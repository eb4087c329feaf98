// Complexity ablation (paper Section 4.2): empirical cost growth of each
// algorithm as V scales, and as P scales, on the Stencil workload.
//
//   FLB:     O(V (log W + log P) + E)  -> near-linear in V, flat in P
//   FCP:     O(V log P + E)            -> near-linear in V, flat in P
//   MCP:     O(V log V + (E + V) P)    -> linear in P
//   ETF:     O(W (E + V) P)            -> superlinear in V (W grows too),
//                                         linear in P
//   DSC-LLB: O((E + V) log V)          -> independent of P
//
// Reported as time ratios between successive sizes; a ratio near the size
// ratio (2.0) indicates linear scaling. Each sweep also prints FLB's exact
// heap operations per task (FlbStats::heap_ops over V): the per-step work
// behind its O(log W + log P) step, which should stay flat in V and P. The
// timings are informational; a run fails only on an infeasible schedule or
// on a heap count above kMaxHeapOpsPerTask.

#include <map>
#include <string>

#include "bench_common.hpp"
#include "flb/core/flb.hpp"
#include "flb/util/error.hpp"

namespace {

// FLB's heap operations are bounded per task, whatever V and P: a task
// enters and leaves the non-EP heap at most once (2) and both EP heaps at
// most once (4); each step updates the processor heap once and the active
// heap at most once (2), and classifying a task EP updates the active heap
// at most once more (1). The processor heap also takes P pushes at start.
constexpr std::size_t kMaxHeapOpsPerTask = 9;

// FLB's push, pop, erase and update calls per task on Stencil, mean over
// the seeds. Throws when a run exceeds the bound above.
double flb_heap_ops_per_task(std::size_t tasks, flb::ProcId procs,
                             std::size_t repeats) {
  double total = 0.0;
  for (std::size_t seed = 1; seed <= repeats; ++seed) {
    flb::WorkloadParams params;
    params.seed = seed;
    flb::TaskGraph g = flb::make_workload("Stencil", tasks, params);
    flb::FlbStats stats;
    (void)flb::FlbScheduler().run_instrumented(g, procs, nullptr, &stats);
    FLB_REQUIRE(stats.heap_ops <= kMaxHeapOpsPerTask * g.num_tasks() + procs,
                "FLB made " + std::to_string(stats.heap_ops) +
                    " heap operations on " + g.name() + " at P=" +
                    std::to_string(procs) + ", above its per-task bound");
    total += static_cast<double>(stats.heap_ops) /
             static_cast<double>(g.num_tasks());
  }
  return total / static_cast<double>(repeats);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  CliArgs args(argc, argv);
  const std::size_t repeats =
      static_cast<std::size_t>(args.get_int("seeds", 3));
  std::vector<std::int64_t> sizes_default{500, 1000, 2000, 4000, 8000};
  std::vector<std::int64_t> sizes = args.get_int_list("sizes", sizes_default);

  std::cout << "Complexity scaling in V (Stencil, CCR 1.0, P = 8, "
            << repeats << " repeats)\n\n";
  {
    std::vector<std::string> headers{"algorithm"};
    for (std::int64_t v : sizes) headers.push_back("V~" + std::to_string(v));
    headers.emplace_back("last ratio");
    Table table(headers);
    for (const std::string& algo : scheduler_names()) {
      std::vector<std::string> row{algo};
      double prev = 0.0, last_ratio = 0.0;
      for (std::int64_t v : sizes) {
        std::vector<double> times;
        for (std::size_t seed = 1; seed <= repeats; ++seed) {
          WorkloadParams params;
          params.seed = seed;
          TaskGraph g =
              make_workload("Stencil", static_cast<std::size_t>(v), params);
          auto sched = make_scheduler(algo, seed);
          times.push_back(run_once(*sched, g, 8).millis);
        }
        double t = mean(times);
        row.push_back(format_fixed(t, 2));
        if (prev > 0.0) last_ratio = t / prev;
        prev = t;
      }
      row.push_back(format_fixed(last_ratio, 2));
      table.add_row(row);
    }
    std::vector<std::string> ops{"FLB heap ops/task"};
    for (std::int64_t v : sizes)
      ops.push_back(format_fixed(
          flb_heap_ops_per_task(static_cast<std::size_t>(v), 8, repeats), 2));
    ops.emplace_back("-");
    table.add_row(ops);
    table.print(std::cout);
    std::cout << "(ratio ~2.0 = linear in V; ETF exceeds it because the "
                 "graph width W grows with V)\n";
  }

  std::cout << "\nComplexity scaling in P (Stencil, V ~ 2000)\n\n";
  {
    std::vector<ProcId> procs{2, 8, 32, 128};
    std::vector<std::string> headers{"algorithm"};
    for (ProcId p : procs) headers.push_back("P=" + std::to_string(p));
    headers.emplace_back("P=128 / P=2");
    Table table(headers);
    for (const std::string& algo : scheduler_names()) {
      std::vector<std::string> row{algo};
      std::map<ProcId, double> t;
      for (ProcId p : procs) {
        std::vector<double> times;
        for (std::size_t seed = 1; seed <= repeats; ++seed) {
          WorkloadParams params;
          params.seed = seed;
          TaskGraph g = make_workload("Stencil", 2000, params);
          auto sched = make_scheduler(algo, seed);
          times.push_back(run_once(*sched, g, p).millis);
        }
        t[p] = mean(times);
        row.push_back(format_fixed(t[p], 2));
      }
      row.push_back(format_fixed(t[128] / t[2], 2));
      table.add_row(row);
    }
    std::vector<std::string> ops{"FLB heap ops/task"};
    for (ProcId p : procs)
      ops.push_back(format_fixed(flb_heap_ops_per_task(2000, p, repeats), 2));
    ops.emplace_back("-");
    table.add_row(ops);
    table.print(std::cout);
    std::cout << "(FLB/FCP/DSC-LLB should stay near 1.0x; MCP and "
                 "especially ETF grow with P)\n";
  }
  return 0;
}
