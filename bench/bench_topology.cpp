// Topology ablation: the paper's clique/contention-free network vs real
// sparse interconnects. FLB's schedules (computed under the clique model)
// are executed on cliques with serializing links, 2-D meshes, rings and
// stars; cells are simulated makespans normalized by the analytic
// contention-free value. Shows how far the model is from routed networks
// and which topology hurts most as CCR grows.

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  Config cfg = parse_config(argc, argv);
  CliArgs args(argc, argv);
  const auto procs = static_cast<ProcId>(args.get_int("at-procs", 16));
  FLB_REQUIRE(procs >= 4, "--at-procs must be at least 4");

  // A near-square mesh with exactly `procs` nodes.
  ProcId rows = static_cast<ProcId>(std::sqrt(static_cast<double>(procs)));
  while (procs % rows != 0) --rows;
  ProcId cols = procs / rows;

  struct Net {
    std::string label;
    Topology topo;
  };
  std::vector<Net> nets;
  nets.push_back({"clique", Topology::clique(procs)});
  nets.push_back({"mesh " + std::to_string(rows) + "x" + std::to_string(cols),
                  Topology::mesh2d(rows, cols)});
  nets.push_back({"ring", Topology::ring(procs)});
  nets.push_back({"star", Topology::star(procs)});

  std::cout << "Topology ablation, FLB schedules at P = " << procs
            << " (V ~ " << cfg.tasks << ", " << cfg.seeds
            << " seeds; simulated makespan / analytic contention-free)\n";

  for (double ccr : cfg.ccrs) {
    std::cout << "\nCCR = " << ccr << "\n";
    std::vector<std::string> headers{"workload"};
    for (const Net& nt : nets) headers.push_back(nt.label);
    headers.emplace_back("max-link busy (ring)");
    Table table(headers);

    for (const std::string& workload : cfg.workloads) {
      std::map<std::string, std::vector<double>> cells;
      std::vector<double> ring_busy;
      for (std::size_t seed = 1; seed <= cfg.seeds; ++seed) {
        WorkloadParams params;
        params.ccr = ccr;
        params.seed = seed;
        TaskGraph g = make_workload(workload, cfg.tasks, params);
        auto flb = make_scheduler("FLB", seed);
        Schedule s = flb->run(g, procs);
        Cost analytic = s.makespan();
        for (const Net& nt : nets) {
          const SimResult r = simulate(g, s, {.topology = &nt.topo});
          cells[nt.label].push_back(r.makespan / analytic);
          if (nt.label == "ring") {
            // A link's busy time sums its reserved hops.
            std::vector<Cost> busy(nt.topo.num_links(), 0.0);
            for (const platform::LinkOccupancy& o : r.link_occupancies)
              busy[o.link] += o.end - o.begin;
            ring_busy.push_back(*std::max_element(busy.begin(), busy.end()) /
                                r.makespan);
          }
        }
      }
      std::vector<std::string> row{workload};
      for (const Net& nt : nets)
        row.push_back(format_fixed(mean(cells[nt.label]), 2));
      row.push_back(format_fixed(mean(ring_busy) * 100.0, 0) + "%");
      table.add_row(row);
    }
    emit(table, cfg);
  }

  std::cout << "\n(clique = per-pair dedicated links, still >= 1.0 because "
               "repeated same-pair messages serialize; the star's hub and "
               "the ring's few links are the choke points)\n";
  return 0;
}
