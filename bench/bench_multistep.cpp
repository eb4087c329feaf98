// Multi-step method ablation (paper Sections 1 and 3.3): both stages of
// the multi-step pipeline varied independently — clustering by DSC
// (O((E+V) log V)) or Sarkar's edge-zeroing (O(E(V+E))), mapping by LLB
// (communication-aware), wrap (round-robin) or work balancing (LPT on
// cluster weights) — against FLB, normalized by MCP. Reproduces the
// context for the paper's claim that DSC-LLB is the strongest multi-step
// combination while one-step FLB still beats it at lower cost.

#include <map>

#include "bench_common.hpp"
#include "flb/algos/llb.hpp"
#include "flb/algos/mapping.hpp"
#include "flb/algos/sarkar.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = static_cast<ProcId>(args.get_int("at-procs", 8));
  // Sarkar's clustering is O(E(V+E)); keep the default instance size
  // moderate so the bench stays interactive.
  if (!args.has("tasks")) cfg.tasks = 500;

  std::cout << "Multi-step methods at P = " << procs << " (V ~ " << cfg.tasks
            << ", " << cfg.seeds
            << " seeds; NSL vs MCP, clustering time in ms)\n\n";

  struct Method {
    const char* label;
    bool sarkar;                        // clustering choice
    Schedule (*map)(const TaskGraph&, const Clustering&, ProcId);
  };
  const Method methods[] = {
      {"DSC+LLB", false, &llb_map},
      {"DSC+wrap", false, &wrap_map},
      {"DSC+work", false, &work_map},
      {"Sarkar+LLB", true, &llb_map},
      {"Sarkar+wrap", true, &wrap_map},
      {"Sarkar+work", true, &work_map},
  };

  std::map<std::string, std::vector<double>> nsl, cluster_ms;
  std::vector<double> flb_nsl;
  for (const std::string& workload : cfg.workloads) {
    for (double ccr : cfg.ccrs) {
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = ccr;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);

        auto mcp = make_scheduler("MCP", seed);
        Cost mcp_len = run_once(*mcp, g, procs).makespan;
        auto flb = make_scheduler("FLB", seed);
        flb_nsl.push_back(run_once(*flb, g, procs).makespan / mcp_len);

        Stopwatch sw_dsc;
        Clustering dsc = dsc_cluster(g);
        double dsc_ms = sw_dsc.millis();
        Stopwatch sw_sarkar;
        Clustering sarkar = sarkar_cluster(g);
        double sarkar_ms = sw_sarkar.millis();

        for (const Method& m : methods) {
          const Clustering& c = m.sarkar ? sarkar : dsc;
          Schedule s = m.map(g, c, procs);
          FLB_REQUIRE(is_valid_schedule(g, s),
                      std::string(m.label) + " infeasible on " + g.name());
          nsl[m.label].push_back(s.makespan() / mcp_len);
          cluster_ms[m.label].push_back(m.sarkar ? sarkar_ms : dsc_ms);
        }
      }
    }
  }

  Table table({"method", "mean NSL", "clustering [ms]"});
  for (const Method& m : methods)
    table.add_row({m.label, format_fixed(mean(nsl[m.label]), 3),
                   format_fixed(mean(cluster_ms[m.label]), 2)});
  table.add_row({"FLB (one-step)", format_fixed(mean(flb_nsl), 3), "-"});
  emit(table, cfg);

  // Deterministic (NSL only): a NO fails the run.
  const bool llb_best = mean(nsl["DSC+LLB"]) <= mean(nsl["DSC+wrap"]) &&
                        mean(nsl["DSC+LLB"]) <= mean(nsl["DSC+work"]);
  std::cout << "\nshape checks:\n  LLB is the best mapping for DSC: "
            << (llb_best ? "yes" : "NO")
            << "\n  Sarkar clustering costs >> DSC: x"
            << format_fixed(mean(cluster_ms["Sarkar+LLB"]) /
                                std::max(0.001, mean(cluster_ms["DSC+LLB"])),
                            0)
            << "\n";
  return llb_best ? 0 : 1;
}
