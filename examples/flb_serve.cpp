// flb_serve: scheduling as a service — stream a mixed workload-generator
// request mix through the worker pool of flb::serve::ScheduleService and
// report throughput, per-request latency and the determinism check.
//
// Requests arrive one at a time against a bounded queue; submit() blocks
// when the queue is full (backpressure), and each request's latency
// includes its queueing delay. Every digest is checked against a
// sequential FlbScheduler::run_into of the same request.
//
// Usage: flb_serve [--dags N] [--tasks V] [--procs P] [--threads T]
//                  [--queue Q]

#include <algorithm>
#include <iostream>
#include <vector>

#include "flb/serve/serve.hpp"
#include "flb/util/cli.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace flb;
  CliArgs args(argc, argv);
  const std::size_t dags =
      static_cast<std::size_t>(args.get_int("dags", 24));
  const std::size_t tasks =
      static_cast<std::size_t>(args.get_int("tasks", 150));
  const ProcId procs = static_cast<ProcId>(args.get_int("procs", 8));
  const std::size_t threads =
      static_cast<std::size_t>(args.get_int("threads", 4));
  const std::size_t queue =
      static_cast<std::size_t>(args.get_int("queue", 8));

  // The request mix: every workload family, alternating the paper's two
  // CCR regimes, a fresh seed per request.
  const std::vector<std::string> families = workload_names();
  std::vector<TaskGraph> graphs;
  graphs.reserve(dags);
  for (std::size_t i = 0; i < dags; ++i) {
    WorkloadParams params;
    params.seed = i + 1;
    params.ccr = (i % 2 == 0) ? 0.2 : 5.0;
    graphs.push_back(
        make_workload(families[i % families.size()], tasks, params));
  }

  std::cout << "Serving " << dags << " mixed DAGs (V~" << tasks << ", P="
            << procs << ") on " << threads << " workers\n\n";

  serve::ScheduleService::Options sopts;
  sopts.num_threads = threads;
  sopts.queue_capacity = queue;
  serve::ScheduleService service(sopts);
  Stopwatch sw;
  for (const TaskGraph& g : graphs) (void)service.submit(g, procs);
  service.drain();
  const double stream_ms = sw.millis();
  serve::ServiceStats st = service.stats();

  std::vector<double> latency;
  latency.reserve(dags);
  bool identical = true;
  FlbScheduler sequential;
  Schedule buffer(1, 0);
  for (std::size_t id = 0; id < dags; ++id) {
    const serve::ScheduleResult& r = service.result(id);
    latency.push_back(r.latency_ms);
    sequential.run_into(graphs[id], procs, buffer);
    if (r.digest != schedule_digest(buffer)) identical = false;
  }
  std::sort(latency.begin(), latency.end());
  const double p50 = latency[latency.size() / 2];
  const double p99 =
      latency[std::min(latency.size() - 1, (latency.size() * 99) / 100)];

  std::cout << "stream:  " << stream_ms << " ms total, "
            << static_cast<double>(dags) * 1000.0 / stream_ms
            << " DAGs/s, p50 " << p50 << " ms, p99 " << p99 << " ms, "
            << st.backpressure_waits << " backpressure waits\n";
  std::cout << "digests: "
            << (identical ? "stream == sequential (deterministic)"
                          : "MISMATCH — nondeterminism detected!")
            << "\n";
  service.close();
  FLB_REQUIRE(identical,
              "flb_serve: stream and sequential digests must be identical");
  return 0;
}
