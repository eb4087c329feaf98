// Serving throughput of the arena-backed FLB engine (flb::serve): DAGs/sec
// and per-request scheduling-time percentiles vs worker-thread count on a
// mixed workload-generator stream. Each row runs a ScheduleService whose
// queue holds the whole stream: one warm-up pass, then one timed pass of
// submit-all plus drain(). The digest column chains every schedule's
// FNV-1a digest in request-id order — it must be identical on every row,
// which is the end-to-end check that the worker pool is byte-identical to
// a sequential run.
//
//   --dags N       requests in the stream (default 64; --smoke: 12)
//   --tasks V      target tasks per DAG (default 300; --smoke: 60)
//   --threads a,b  worker counts to sweep (default 1,2,4,8)
//   --procs P      processors per request (first entry; default 8)
//   --smoke        tiny sizes + an assertion sweep — the TSan CI entry
//   --csv          CSV output

#include <algorithm>
#include <cstdint>

#include "bench_common.hpp"
#include "flb/serve/serve.hpp"
#include "flb/util/fnv1a.hpp"

namespace {

// Chain the digests of requests first .. first + count - 1 in id order into
// one stream fingerprint.
std::uint64_t chain_digests(const flb::serve::ScheduleService& service,
                            std::size_t first, std::size_t count) {
  flb::Fnv1a h;
  for (std::size_t id = first; id < first + count; ++id)
    h.add_u64(service.result(id).digest);
  return h.value();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flb;
  using namespace flb::bench;
  CliArgs args(argc, argv);
  const bool smoke = args.has("smoke");
  const bool csv = args.has("csv");
  const std::size_t dags = static_cast<std::size_t>(
      args.get_int("dags", smoke ? 12 : 64));
  const std::size_t tasks = static_cast<std::size_t>(
      args.get_int("tasks", smoke ? 60 : 300));
  std::vector<std::int64_t> threads_default{1, 2, 4, 8};
  std::vector<std::int64_t> threads =
      args.get_int_list("threads", threads_default);
  std::vector<std::int64_t> procs_default{8};
  const ProcId procs = static_cast<ProcId>(
      args.get_int_list("procs", procs_default).front());

  // The mixed request stream: cycle through the workload families with a
  // fresh seed per request, so no two requests are the same graph.
  const std::vector<std::string> families = workload_names();
  std::vector<TaskGraph> graphs;
  graphs.reserve(dags);
  for (std::size_t i = 0; i < dags; ++i) {
    WorkloadParams params;
    params.seed = i + 1;
    params.ccr = (i % 2 == 0) ? 0.2 : 5.0;  // the paper's two CCR regimes
    graphs.push_back(
        make_workload(families[i % families.size()], tasks, params));
  }

  std::cout << "Serving throughput: " << dags << " mixed DAGs (V~" << tasks
            << ", P=" << procs << ") vs worker threads\n\n";

  Table table({"threads", "wall ms", "DAGs/s", "speedup", "p50 ms", "p99 ms",
               "stream digest"});
  double base_wall = 0.0;
  std::uint64_t base_digest = 0;
  bool first = true;
  for (std::int64_t tc : threads) {
    FLB_REQUIRE(tc >= 1, "--threads entries must be positive");
    serve::ScheduleService::Options opts;
    opts.num_threads = static_cast<std::size_t>(tc);
    opts.queue_capacity = dags;  // the whole stream: submit never blocks
    serve::ScheduleService service(opts);
    // One warm-up pass so steady-state scratch reuse (not first-touch
    // arena growth) is what gets measured.
    for (const TaskGraph& g : graphs) (void)service.submit(g, procs);
    service.drain();
    Stopwatch sw;
    for (const TaskGraph& g : graphs) (void)service.submit(g, procs);
    service.drain();
    const double wall = sw.millis();

    // The timed pass holds request ids dags .. 2 * dags - 1.
    std::vector<double> lat;
    lat.reserve(dags);
    for (std::size_t id = dags; id < 2 * dags; ++id)
      lat.push_back(service.result(id).run_ms);
    const std::uint64_t digest = chain_digests(service, dags, dags);
    if (first) {
      base_wall = wall;
      base_digest = digest;
      first = false;
    }
    FLB_REQUIRE(digest == base_digest,
                "bench_throughput: stream digest diverged across thread "
                "counts — the worker pool is not deterministic");
    table.add_row({std::to_string(tc), format_fixed(wall, 1),
                   format_fixed(static_cast<double>(dags) * 1000.0 / wall, 1),
                   format_fixed(base_wall / wall, 2),
                   format_fixed(percentile(lat, 0.5), 3),
                   format_fixed(percentile(lat, 0.99), 3),
                   std::to_string(digest)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "(identical stream digests across rows = the worker pool "
               "is byte-identical to sequential FLB)\n";

  if (smoke) {
    // Exercise the service under TSan with a queue shorter than the
    // stream: blocking backpressure, drain, per-request latency accounting.
    serve::ScheduleService::Options sopts;
    sopts.num_threads = 4;
    sopts.queue_capacity = 4;  // small on purpose: force backpressure
    serve::ScheduleService service(sopts);
    for (const TaskGraph& g : graphs) (void)service.submit(g, procs);
    service.drain();
    serve::ServiceStats st = service.stats();
    FLB_REQUIRE(st.completed == dags,
                "bench_throughput: service lost requests");
    FLB_REQUIRE(chain_digests(service, 0, dags) == base_digest,
                "bench_throughput: smoke digests diverged from the sweep");
    service.close();
    std::cout << "smoke: service ok (" << st.completed << " completed, "
              << st.backpressure_waits << " backpressure waits)\n";
  }
  return 0;
}
