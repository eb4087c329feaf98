// flb_sched — command-line scheduler front end, the library's "driver"
// example. Reads a task graph (generated workload, flb text file, or an
// STG benchmark file), schedules it with one or all algorithms, and
// reports schedule quality, optionally cross-checked on the discrete-event
// machine simulator under different contention models.
//
// Usage examples:
//   flb_sched --workload LU --tasks 2000 --procs 8
//   flb_sched --input graph.flb --algo FLB --procs 4 --gantt
//   flb_sched --input bench.stg --format stg --ccr 1.0 --algo all
//   flb_sched --workload Stencil --algo FLB --sim single-port
//   flb_sched --workload FFT --algo FLB --dot out.dot

#include <fstream>
#include <iostream>

#include "flb/graph/dot.hpp"
#include "flb/graph/properties.hpp"
#include "flb/graph/serialize.hpp"
#include "flb/graph/stg.hpp"
#include "flb/sched/export.hpp"
#include "flb/sched/gantt.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/schedule_analysis.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/util/table.hpp"
#include "flb/workloads/workloads.hpp"

namespace {

using namespace flb;

TaskGraph load_graph(const CliArgs& args) {
  WorkloadParams params;
  params.ccr = args.get_double("ccr", 1.0);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  if (args.has("input")) {
    std::string path = args.get("input", "");
    std::ifstream in(path);
    FLB_REQUIRE(in.good(), "cannot open input file '" + path + "'");
    std::string format = args.get("format", "");
    if (format.empty()) {
      // Infer from extension.
      format = path.size() > 4 && path.substr(path.size() - 4) == ".stg"
                   ? "stg"
                   : "flb";
    }
    if (format == "stg") return read_stg(in, params);
    FLB_REQUIRE(format == "flb", "unknown --format '" + format + "'");
    return read_text(in);
  }

  std::string workload = args.get("workload", "LU");
  auto tasks = static_cast<std::size_t>(args.get_int("tasks", 2000));
  return make_workload(workload, tasks, params);
}

SimNetwork parse_network(const std::string& name) {
  if (name == "free") return SimNetwork::kContentionFree;
  if (name == "single-port") return SimNetwork::kSinglePortSend;
  FLB_REQUIRE(name == "single-port-recv",
              "unknown --sim model '" + name +
                  "' (free | single-port | single-port-recv)");
  return SimNetwork::kSinglePortSendRecv;
}

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout
        << "flb_sched: schedule a task graph on P processors\n\n"
           "graph source:   --workload LU|Laplace|Stencil|FFT|Gauss|Random\n"
           "                --tasks N  --ccr X  --seed S\n"
           "            or  --input FILE [--format flb|stg]\n"
           "scheduling:     --algo NAME|all (default all)  --procs P\n"
           "output:         --gantt  --listing  --dot FILE  --save FILE\n"
           "                --json FILE  --trace FILE (chrome://tracing)\n"
           "                --sched-out FILE (text, for flb_verify)\n"
           "diagnostics:    --analyze (bindings, chain, utilization)\n"
           "simulation:     --sim free|single-port|single-port-recv\n";
    return 0;
  }

  TaskGraph g = load_graph(args);
  const auto procs = static_cast<ProcId>(args.get_int("procs", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::cout << "graph: " << g.name() << "  V=" << g.num_tasks()
            << " E=" << g.num_edges() << " CCR=" << format_fixed(g.ccr(), 2)
            << "  CP=" << format_fixed(critical_path(g), 1)
            << "  P=" << procs << "\n\n";

  if (args.has("save")) {
    std::ofstream out(args.get("save", ""));
    FLB_REQUIRE(out.good(), "cannot open --save file");
    write_text(out, g);
    std::cout << "graph written to " << args.get("save", "") << "\n";
  }

  std::vector<std::string> algos;
  std::string algo = args.get("algo", "all");
  if (algo == "all") {
    algos = extended_scheduler_names();
  } else {
    algos.push_back(algo);
  }

  Table table({"algorithm", "makespan", "speedup", "efficiency",
               "imbalance", "time [ms]", "feasible"});
  for (const std::string& name : algos) {
    auto sched = make_scheduler(name, seed);
    Stopwatch sw;
    Schedule s = sched->run(g, procs);
    double ms = sw.millis();
    table.add_row({name, format_fixed(s.makespan(), 2),
                   format_fixed(speedup(g, s), 2),
                   format_fixed(efficiency(g, s), 3),
                   format_fixed(load_imbalance(g, s), 3),
                   format_fixed(ms, 2),
                   is_valid_schedule(g, s) ? "yes" : "NO"});

    bool last = name == algos.back();
    if (last && args.has("gantt")) {
      std::cout << "Gantt (" << name << "):\n";
      write_gantt(std::cout, g, s, 90);
      std::cout << "\n";
    }
    if (last && args.has("listing")) write_schedule_listing(std::cout, s);
    if (last && args.has("dot")) {
      std::ofstream out(args.get("dot", ""));
      FLB_REQUIRE(out.good(), "cannot open --dot file");
      write_dot(out, g, s);
      std::cout << "annotated DOT written to " << args.get("dot", "")
                << "\n\n";
    }
    if (last && args.has("json")) {
      std::ofstream out(args.get("json", ""));
      FLB_REQUIRE(out.good(), "cannot open --json file");
      write_schedule_json(out, g, s);
      std::cout << "schedule JSON written to " << args.get("json", "")
                << "\n";
    }
    if (last && args.has("sched-out")) {
      std::ofstream out(args.get("sched-out", ""));
      FLB_REQUIRE(out.good(), "cannot open --sched-out file");
      write_schedule_text(out, s);
      std::cout << "schedule text written to " << args.get("sched-out", "")
                << " (check with flb_verify)\n";
    }
    if (last && args.has("trace")) {
      std::ofstream out(args.get("trace", ""));
      FLB_REQUIRE(out.good(), "cannot open --trace file");
      write_chrome_trace(out, g, s);
      std::cout << "chrome://tracing timeline written to "
                << args.get("trace", "") << "\n";
    }
    if (last && args.has("analyze")) {
      UtilizationReport rep = analyze_utilization(g, s);
      std::cout << name << " diagnostics:\n";
      std::cout << "  mean utilization: "
                << format_fixed(rep.mean_utilization * 100.0, 1) << "%\n";
      std::cout << "  binding mix: processor "
                << format_fixed(rep.processor_bound * 100.0, 1)
                << "%, local-data "
                << format_fixed(rep.local_data_bound * 100.0, 1)
                << "%, remote-data "
                << format_fixed(rep.remote_data_bound * 100.0, 1)
                << "%, slack " << format_fixed(rep.slack_bound * 100.0, 1)
                << "%\n";
      auto chain = critical_chain(g, s);
      std::cout << "  makespan chain (" << chain.size() << " tasks):";
      std::size_t shown = 0;
      for (TaskId t : chain) {
        if (shown++ == 12) {
          std::cout << " ...";
          break;
        }
        std::cout << " t" << t;
      }
      std::cout << "\n\n";
    }
    if (args.has("sim")) {
      SimOptions options;
      options.network = parse_network(args.get("sim", "free"));
      SimResult r = simulate(g, s, options);
      std::cout << name << " simulated on '" << args.get("sim", "free")
                << "' network: makespan " << format_fixed(r.makespan, 2)
                << " (analytic " << format_fixed(s.makespan(), 2) << ", x"
                << format_fixed(r.makespan / s.makespan(), 3) << "), "
                << r.messages << " messages\n";
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const flb::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
