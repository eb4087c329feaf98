// Heterogeneity extension bench: HEFT and CPOP (the successors of this
// paper's list-scheduling line) on related machines with increasing speed
// skew, against two references — the fastest processor running everything
// sequentially, and HEFT on an equal-aggregate-speed uniform machine.
// Shows where parallelism stops paying as heterogeneity grows, and how
// HEFT's per-task placement beats CPOP's critical-path pinning on
// irregular graphs.

#include <cmath>

#include "bench_common.hpp"
#include "flb/algos/heft.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = static_cast<ProcId>(args.get_int("at-procs", 8));
  if (!args.has("tasks")) cfg.tasks = 1000;

  // Speed skew: speeds drawn log-uniformly from [1/skew, skew].
  std::vector<double> skews = args.get_double_list("skew", {1.0, 2.0, 4.0, 8.0});

  std::cout << "HEFT / CPOP on related machines, P = " << procs << " (V ~ "
            << cfg.tasks << ", " << cfg.seeds
            << " seeds; makespans normalized by the fastest processor "
               "running everything)\n\n";

  std::vector<std::string> headers{"workload"};
  for (double skew : skews) {
    headers.push_back("HEFT s=" + format_compact(skew));
    headers.push_back("CPOP s=" + format_compact(skew));
  }
  Table table(headers);

  for (const std::string& workload : cfg.workloads) {
    std::vector<std::string> row{workload};
    for (double skew : skews) {
      std::vector<double> heft_norm, cpop_norm;
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = 1.0;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);

        Rng rng(seed * 977);
        std::vector<double> speeds(procs);
        double fastest = 0.0;
        for (double& s : speeds) {
          // log-uniform in [1/skew, skew]
          double u = rng.uniform(-1.0, 1.0);
          s = std::pow(skew, u);
          fastest = std::max(fastest, s);
        }
        platform::CostModel m = platform::CostModel::clique(procs);
        m.set_speeds(speeds);
        Cost solo = g.total_comp() / fastest;  // fastest proc, no comm
        // Feasible on the related machine: each task takes comp / speed.
        auto feasible = [&](const Schedule& s) {
          std::vector<Cost> durations(g.num_tasks());
          for (TaskId t = 0; t < g.num_tasks(); ++t)
            durations[t] = g.comp(t) / speeds[s.proc(t)];
          return is_valid_schedule(g, s, durations);
        };

        Schedule sh = heft(g, m);
        FLB_REQUIRE(feasible(sh), "HEFT infeasible");
        Schedule sc = cpop(g, m);
        FLB_REQUIRE(feasible(sc), "CPOP infeasible");
        heft_norm.push_back(sh.makespan() / solo);
        cpop_norm.push_back(sc.makespan() / solo);
      }
      row.push_back(format_fixed(mean(heft_norm), 3));
      row.push_back(format_fixed(mean(cpop_norm), 3));
    }
    table.add_row(row);
  }
  emit(table, cfg);

  std::cout << "\n(values < 1 mean the heterogeneous schedule beats the "
               "fastest single processor; rising values with skew show "
               "parallelism losing value as one processor dominates)\n";
  return 0;
}
