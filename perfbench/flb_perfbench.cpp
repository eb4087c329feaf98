// flb_perfbench — the repository benchmark.
//
// Four workloads drive the library through its public API only; the
// benchmark generates every input from --seed and hands the library the
// generated graphs, schedules and fault plans. An untraced run measures the
// end-to-end metrics; a traced run (--trace 1) wraps every public call the
// benchmark makes in a span, counts heap allocations per call, and derives
// the per-layer metrics. See perfbench/NOTES.md for why each workload and
// metric exists.
//
//   flb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE]
//   flb_perfbench --measure-capacity --seed N --seconds S
//
// --trace 0 runs the named workload for S seconds. --trace 1 runs all four
// workloads for S/4 seconds each, whatever NAME is, because the per-layer
// metrics cover every layer; --spans writes the recorded spans as Chrome
// trace-event JSON. --measure-capacity floods serve-open's service to
// measure the two-worker capacity its offered rate is set from.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any other line is commentary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flb/algos/fcp.hpp"
#include "flb/analysis/audit.hpp"
#include "flb/analysis/lint.hpp"
#include "flb/core/flb.hpp"
#include "flb/graph/properties.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/metrics.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/validator.hpp"
#include "flb/serve/serve.hpp"
#include "flb/sim/faults.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/workloads.hpp"

// --- allocation counting (traced run only) ---------------------------------
//
// A counting global operator new, the same shim flb_alloc_test uses from
// inside. Counting is per thread, so a span counts only the allocations its
// own call made. It is switched on once, before any thread starts, and only
// for the traced run; the untraced run pays one relaxed load per allocation.

namespace {

std::atomic<bool> g_count_allocs{false};
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace flb;
using Clock = std::chrono::steady_clock;

// --- small helpers ----------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear interpolation between order statistics (NaN when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// splitmix64 over (seed, salt): independent per-input seeds from --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + salt * 0xd1b54a32d192ed03ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Chained FNV-1a over a list of digests, in order.
std::uint64_t chain_digest(const std::vector<std::uint64_t>& digests) {
  std::string text;
  for (std::uint64_t d : digests) text += hex64(d) + "\n";
  return runtime::fnv1a_digest(text);
}

TaskGraph generate(const std::string& family, std::size_t tasks, double ccr,
                   std::uint64_t seed) {
  WorkloadParams params;
  params.ccr = ccr;
  params.seed = seed;
  return make_workload(family, tasks, params);
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  double begin_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint64_t allocs = 0;  // heap allocations made inside the span
  int tid = 0;               // 0 = benchmark thread, 1 = serve workers
};

// Spans live in memory and are written out once, at exit. Only the
// benchmark's own thread opens spans (as a stack); spans of work done on
// other threads are added afterwards from the timestamps the library
// reports. Recording is switched per operation, so a traced run can
// interleave traced and untraced operations and measure its own overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) {
      spans_.reserve(kCapacity);
      stack_.reserve(64);
    }
  }

  void set_active(bool on) { active_ = enabled_ && on; }

  std::int64_t begin(const char* name, std::uint64_t request) {
    if (!active_) return -1;
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return -1;
    }
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, 0.0, 0.0, parent, request, t_allocs, 0});
    stack_.push_back(id);
    spans_.back().begin_us = us(Clock::now());
    return id;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = us(Clock::now());
    s.allocs = t_allocs - s.allocs;
    stack_.pop_back();
  }

  std::int64_t add(const char* name, Clock::time_point begin,
                   Clock::time_point end, std::int64_t parent,
                   std::uint64_t request, int tid) {
    if (!enabled_ || spans_.size() >= kCapacity) return -1;
    spans_.push_back({name, us(begin), us(end), parent, request, 0, tid});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void reparent(std::int64_t id, std::int64_t parent) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].parent = parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

 private:
  static constexpr std::size_t kCapacity = 1u << 19;
  bool enabled_;
  bool active_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
  std::size_t dropped_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// Per-name aggregate of recorded spans.
struct LayerSummary {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t allocs = 0;
  std::vector<double> durations_ms;
};

std::map<std::string, LayerSummary> summarize(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.begin_us;
  std::map<std::string, LayerSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerSummary& l = out[s.name];
    const double dur_ms = (s.end_us - s.begin_us) / 1000.0;
    ++l.count;
    l.total_ms += dur_ms;
    l.self_ms += dur_ms - child_us[i] / 1000.0;
    l.allocs += s.allocs;
    l.durations_ms.push_back(dur_ms);
  }
  return out;
}

// Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"request\":%llu,\"allocs\":%llu}}\n",
                  i ? "," : "", s.name, s.tid, s.begin_us,
                  s.end_us - s.begin_us, i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.allocs));
    out << buf;
  }
  out << "]}\n";
}

// --- host speed probe ---------------------------------------------------------

// Longest path over a fixed random DAG in CSR form (16384 nodes, 8 forward
// edges each, about 1.2 MiB): the access pattern of the library's graph
// passes, in the benchmark's own code so that no library change moves it.
class HostProbe {
 public:
  HostProbe() : succ_(std::size_t{kNodes} * kOut), weight_(succ_.size()),
                dist_(kNodes) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t v = 0; v < kNodes; ++v)
      for (std::uint32_t k = 0; k < kOut; ++k) {
        x = mix(x, v);
        const std::uint32_t span = kNodes - v;
        succ_[std::size_t{v} * kOut + k] =
            span > 1 ? v + 1 + static_cast<std::uint32_t>(x % (span - 1)) : v;
        weight_[std::size_t{v} * kOut + k] = static_cast<double>(x >> 40);
      }
  }

  // Time of one warm pass, in ms: a first, untimed pass loads the DAG into
  // the cache, so what the workload left there does not matter.
  double pass_ms() {
    pass();
    const Clock::time_point t0 = Clock::now();
    pass();
    return ms_between(t0, Clock::now());
  }

 private:
  void pass() {
    std::fill(dist_.begin(), dist_.end(), 0.0);
    for (std::uint32_t v = 0; v + 1 < kNodes; ++v)
      for (std::uint32_t k = 0; k < kOut; ++k) {
        const std::size_t e = std::size_t{v} * kOut + k;
        dist_[succ_[e]] = std::max(dist_[succ_[e]], dist_[v] + weight_[e]);
      }
    sink_ = dist_[kNodes - 1];  // keeps the pass from being optimised out
  }

  static constexpr std::uint32_t kNodes = 16384;
  static constexpr std::uint32_t kOut = 8;
  std::vector<std::uint32_t> succ_;
  std::vector<double> weight_;
  std::vector<double> dist_;
  volatile double sink_ = 0.0;
};

HostProbe& host_probe() {
  static HostProbe probe;
  return probe;
}

// The untraced closed loops run one probe pass every kProbeEveryMs. A pass
// takes kProbeRefMs at the reference host speed the closed loops report
// in: about the 4-vCPU Xeon KVM guest of NOTES.md in a quiet period.
constexpr double kProbeEveryMs = 20.0;
constexpr double kProbeRefMs = 0.1;

// --- outcome of one workload run ---------------------------------------------

// One itemised correctness check: how often it ran and how often it failed.
struct Check {
  std::string name;
  std::size_t ran = 0;
  std::size_t bad = 0;
};

// One untraced operation: its latency and whether its output was correct.
struct Sample {
  double ms;
  bool ok;
};

struct Outcome {
  std::vector<Sample> samples;            // untraced operations
  std::vector<double> traced_latency_ms;  // traced operations (--trace 1)
  std::vector<double> probe_ms;           // host probe passes (untraced)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double window_s = 0.0;
  double makespan_vs_lb = 0.0;
  std::uint64_t digest = 0;
  std::vector<Check> checks;
  std::vector<std::string> notes;  // extra commentary lines
  std::string first_error;

  Check& check(const std::string& name) {
    for (Check& c : checks)
      if (c.name == name) return c;
    checks.push_back({name, 0, 0});
    return checks.back();
  }
  void tally(const std::string& name, bool ok) {
    Check& c = check(name);
    ++c.ran;
    if (!ok) ++c.bad;
  }
  [[nodiscard]] std::size_t check_failures() const {
    std::size_t n = 0;
    for (const Check& c : checks) n += c.bad;
    return n;
  }
  [[nodiscard]] std::size_t checks_ran() const {
    std::size_t n = 0;
    for (const Check& c : checks) n += c.ran;
    return n;
  }
};

// Named metric with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- workloads ----------------------------------------------------------------

constexpr std::size_t kMinOps = 100;  // >= 10 samples beyond p90
// setup_s is the median of kSetupsBefore set-ups before the timed loop and
// kSetupsAfter after it, so its set-ups span the run as the latencies do.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 5;

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Everything before the first timed operation: inputs, nominal
  // schedules, fault plans, reference outputs and warm-up.
  virtual void setup(std::uint64_t seed, Tracer& tr) = 0;
  // The timed loop. With `alternate`, every other round is traced.
  virtual void run(double seconds, Tracer& tr, bool alternate,
                   Outcome& out) = 0;
  // Untimed correctness checks on the reference outputs.
  virtual void check(Outcome& out) = 0;
  // Exact per-layer counters (traced run only).
  virtual void layers(std::vector<Metric>& m) { (void)m; }
  // Latency limit behind goodput_per_s, fixed per workload.
  [[nodiscard]] virtual double limit_ms() const = 0;
};

// Closed loop: one client, round-robin over the cases, next operation only
// after the previous one returns. Runs whole rounds until `seconds` have
// passed and at least kMinOps operations ran, so every case weighs the same.
// `op(c, i)` is timed; `digest(c)` is compared with `reference[c]` outside
// the timed call; `probe(c, i)` runs after a traced operation, untimed.
template <class Op, class Digest, class Probe>
void closed_loop(std::size_t cases, double seconds, bool alternate,
                 Tracer& tr, const std::vector<std::uint64_t>& reference,
                 Outcome& out, Op&& op, Digest&& digest, Probe&& probe) {
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<double>> per_case(cases);
  Clock::time_point last_probe = start;
  for (std::size_t i = 0;; ++i) {
    const std::size_t c = i % cases;
    if (c == 0 && i >= kMinOps && Clock::now() >= deadline) break;
    const bool traced = alternate && (i / cases) % 2 == 1;
    tr.set_active(traced);
    ++out.attempted;
    bool ok = true;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan root(tr, "bench.op", i);
      op(c, i);
    } catch (const std::exception& e) {
      ok = false;
      if (out.first_error.empty()) out.first_error = e.what();
    }
    const double ms = ms_between(t0, Clock::now());
    if (ok) ok = digest(c) == reference[c];
    if (ok && traced) ok = probe(c, i);
    if (traced) {
      out.traced_latency_ms.push_back(ms);
    } else {
      out.samples.push_back({ms, ok});
      per_case[c].push_back(ms);
    }
    if (!ok) ++out.failed;
    if (!alternate && ms_between(last_probe, Clock::now()) >= kProbeEveryMs) {
      out.probe_ms.push_back(host_probe().pass_ms());
      last_probe = Clock::now();
    }
  }
  tr.set_active(false);
  out.window_s = ms_between(start, Clock::now()) / 1000.0;
  std::string note = "per-case p50 ms:";
  char buf[32];
  for (const std::vector<double>& v : per_case) {
    std::snprintf(buf, sizeof buf, " %.4f", quantile(v, 0.5));
    note += buf;
  }
  out.notes.push_back(note);
}

// paper-2k: the paper's own experiment. FlbScheduler::run_into with warm
// scratch and a reused Schedule per case, LU/Laplace/Stencil at V~2000,
// CCR 0.2 and 5.0, P = 8 and 32 — 12 cases.
class PaperWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tr) override {
    const char* families[] = {"LU", "Laplace", "Stencil"};
    const double ccrs[] = {0.2, 5.0};
    graphs_.reserve(6);
    for (std::uint64_t f = 0; f < 3; ++f)
      for (std::uint64_t k = 0; k < 2; ++k) {
        ScopedSpan span(tr, "workloads.make_workload", 0);
        graphs_.push_back(
            generate(families[f], 2000, ccrs[k], mix(seed, 10 * f + k)));
      }
    for (const TaskGraph& g : graphs_)
      for (ProcId p : {ProcId{8}, ProcId{32}}) cases_.push_back({&g, p});
    out_.assign(cases_.size(), Schedule(1, 0));
    std::size_t max_v = 0;
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      flb_.run_into(*cases_[c].g, cases_[c].procs, out_[c]);
      ref_.push_back(serve::schedule_digest(out_[c]));
      max_v = std::max<std::size_t>(max_v, cases_[c].g->num_tasks());
    }
    bl_.resize(max_v);
    order_.resize(max_v);
    indeg_.resize(max_v);
  }

  void run(double seconds, Tracer& tr, bool alternate, Outcome& out) override {
    closed_loop(
        cases_.size(), seconds, alternate, tr, ref_, out,
        [&](std::size_t c, std::size_t i) {
          ScopedSpan span(tr, "core.run_into", i);
          flb_.run_into(*cases_[c].g, cases_[c].procs, out_[c]);
        },
        [&](std::size_t c) { return serve::schedule_digest(out_[c]); },
        [&](std::size_t c, std::size_t i) { return probe(tr, c, i); });
  }

  void check(Outcome& out) override {
    double ratio = 0.0;
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      const TaskGraph& g = *cases_[c].g;
      out.tally("validate_schedule", validate_schedule(g, out_[c]).empty());
      ratio += out_[c].makespan() / makespan_lower_bound(g, cases_[c].procs);
    }
    out.makespan_vs_lb = ratio / static_cast<double>(cases_.size());
    out.digest = chain_digest(ref_);
  }

  void layers(std::vector<Metric>& m) override {
    double iterations = 0, ep = 0, demotions = 0, max_ready = 0;
    for (const Case& c : cases_) {
      FlbStats st;
      (void)flb_.run_instrumented(*c.g, c.procs, nullptr, &st);
      iterations += static_cast<double>(st.iterations);
      ep += static_cast<double>(st.ep_selections);
      demotions += static_cast<double>(st.ep_demotions);
      max_ready += static_cast<double>(st.max_ready);
    }
    const auto n = static_cast<double>(cases_.size());
    m.push_back({"core.iterations", iterations / n, "count"});
    m.push_back({"core.ep_selections", ep / n, "count"});
    m.push_back({"core.ep_demotions", demotions / n, "count"});
    m.push_back({"core.max_ready", max_ready / n, "count"});
    m.push_back({"core.tasks_per_traced_run",
                 traced_runs_ ? static_cast<double>(traced_tasks_) /
                                    static_cast<double>(traced_runs_)
                              : 0.0,
                 "count"});
  }

  [[nodiscard]] double limit_ms() const override { return kLimitMs; }
  [[nodiscard]] std::size_t traced_tasks() const { return traced_tasks_; }

 private:
  // Goodput limit: about 4x the scaled p90 (0.62 ms) measured on a 4-vCPU
  // Xeon KVM guest at the seed commit.
  static constexpr double kLimitMs = 2.5;

  // Untimed layer calls on the same case, after a traced operation:
  // bottom levels, FCP on the same graph (interleaved with FLB, for
  // core.cost_vs_fcp) and the validator.
  bool probe(Tracer& tr, std::size_t c, std::size_t i) {
    const TaskGraph& g = *cases_[c].g;
    const std::size_t v = g.num_tasks();
    traced_tasks_ += v;
    ++traced_runs_;
    {
      ScopedSpan span(tr, "graph.bottom_levels_into", i);
      bottom_levels_into(g, std::span<Cost>(bl_.data(), v),
                         std::span<TaskId>(order_.data(), v),
                         std::span<std::uint32_t>(indeg_.data(), v));
    }
    Cost fcp_makespan = 0.0;
    {
      ScopedSpan span(tr, "algos.fcp", i);
      fcp_makespan = fcp_.run(g, cases_[c].procs).makespan();
    }
    bool valid = false;
    {
      ScopedSpan span(tr, "sched.validate_schedule", i);
      valid = validate_schedule(g, out_[c]).empty();
    }
    return valid && fcp_makespan > 0.0;
  }

  struct Case {
    const TaskGraph* g;
    ProcId procs;
  };
  std::vector<TaskGraph> graphs_;
  std::vector<Case> cases_;
  FlbScheduler flb_;
  FcpScheduler fcp_;
  std::vector<Schedule> out_;
  std::vector<std::uint64_t> ref_;
  std::vector<Cost> bl_;
  std::vector<TaskId> order_;
  std::vector<std::uint32_t> indeg_;
  std::size_t traced_tasks_ = 0;
  std::size_t traced_runs_ = 0;
};

// A seeded kill -> rejoin plan on a non-controller processor. The kill lands
// at `at` (a fraction of the nominal makespan) plus a seeded jitter of at
// most 0.04; the rejoin follows 0.15 to 0.25 of the makespan later. Callers
// spread `at` over fixed strata, so every seed repairs comparable amounts
// of remaining work and the per-operation cost does not hinge on one draw.
FaultPlan kill_rejoin_plan(Rng& rng, Cost span, ProcId procs, double at) {
  FaultPlan plan;
  plan.seed = 1 + rng.next_below(1000000);
  const auto victim = static_cast<ProcId>(1 + rng.next_below(procs - 1));
  const Cost kill = span * (at + rng.uniform(0.0, 0.04));
  plan.failures.push_back({victim, kill});
  plan.rejoins.push_back({victim, kill + span * rng.uniform(0.15, 0.25)});
  return plan;
}

// recovery-online: runtime::run_online_recovery episodes on LU and Laplace
// (V~2000, P=8, CCR 0.2 and 5.0), each with two seeded kill -> rejoin plans
// (an early and a late kill) in all three liveness modes — perfect events, a
// detector with speculation, and a gossip quorum with a partial partition —
// 24 cases. Heartbeats are lossless: random losses would make the number of
// false alarms, and with it the number of repairs per episode, a matter of
// the seed. The gossip mode's partition blip is the one deliberate false
// suspicion.
class RecoveryWorkload final : public Workload {
 public:
  static constexpr ProcId kProcs = 8;

  void setup(std::uint64_t seed, Tracer& tr) override {
    const char* families[] = {"LU", "Laplace"};
    const double ccrs[] = {0.2, 5.0};
    graphs_.reserve(4);
    nominals_.reserve(4);
    for (std::uint64_t f = 0; f < 2; ++f)
      for (std::uint64_t k = 0; k < 2; ++k) {
        {
          ScopedSpan span(tr, "workloads.make_workload", 0);
          graphs_.push_back(
              generate(families[f], 2000, ccrs[k], mix(seed, 100 + 10 * f + k)));
        }
        const TaskGraph& g = graphs_.back();
        nominals_.push_back(FlbScheduler().run(g, kProcs));
        const Cost span = nominals_.back().makespan();
        Rng rng(mix(seed, 200 + 10 * f + k));
        for (int mode = 0; mode < 3; ++mode)
          for (double at : {0.12, 0.32}) {
            Case c{&g, &nominals_.back(),
                   kill_rejoin_plan(rng, span, kProcs, at), {}, kModes[mode]};
            if (mode >= 1) {
              c.plan.heartbeat.period = 0.02 * span;
              c.opts.use_detector = true;
              c.opts.speculate = true;
            }
            if (mode == 2) {
              // A blip on the controller's link to a healthy processor: the
              // single observer would suspect it, the quorum must not.
              ProcId other = c.plan.failures.front().proc % (kProcs - 1) + 1;
              const Cost period = c.plan.heartbeat.period;
              c.plan.partitions.push_back(
                  {0, other, "", "", 10.25 * period, 12.25 * period});
              c.opts.use_gossip = true;
              c.opts.quorum = 2;
            }
            cases_.push_back(std::move(c));
          }
      }
    refs_.reserve(cases_.size());
    for (const Case& c : cases_) {
      refs_.push_back(
          runtime::run_online_recovery(*c.g, *c.nominal, c.plan, c.opts));
      ref_.push_back(episode_digest(refs_.back()));
    }
  }

  void run(double seconds, Tracer& tr, bool alternate, Outcome& out) override {
    closed_loop(
        cases_.size(), seconds, alternate, tr, ref_, out,
        [&](std::size_t c, std::size_t i) {
          const Case& k = cases_[c];
          ScopedSpan span(tr, "runtime.run_online_recovery", i);
          current_.emplace(
              runtime::run_online_recovery(*k.g, *k.nominal, k.plan, k.opts));
        },
        [&](std::size_t) { return episode_digest(*current_); },
        [&](std::size_t c, std::size_t i) { return probe(tr, c, i); });
    current_.reset();
  }

  void check(Outcome& out) override {
    double ratio = 0.0;
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      const Case& k = cases_[c];
      const runtime::RuntimeResult& r = refs_[c];
      out.tally("episode_complete", r.complete);
      out.tally("audit_runtime",
                analysis::audit_runtime(*k.g, k.plan, r, audit_options(k))
                    .clean());
      out.tally("validate_schedule_durations", continuation_valid(k, r));
      ratio += r.makespan / makespan_lower_bound(*k.g, kProcs);
    }
    out.makespan_vs_lb = ratio / static_cast<double>(cases_.size());
    out.digest = chain_digest(ref_);
  }

  void layers(std::vector<Metric>& m) override {
    double repairs = 0, events = 0, alarms = 0;
    for (const runtime::RuntimeResult& r : refs_) {
      repairs += static_cast<double>(r.repairs.size());
      events += static_cast<double>(r.events_observed);
      alarms += static_cast<double>(r.false_alarms);
    }
    const auto n = static_cast<double>(refs_.size());
    m.push_back({"runtime.repairs_per_episode", repairs / n, "count"});
    m.push_back({"runtime.events_observed", events / n, "count"});
    m.push_back({"runtime.false_alarms", alarms / n, "count"});
  }

  [[nodiscard]] double limit_ms() const override { return kLimitMs; }

 private:
  // Goodput limit: about 2.4x the scaled p90 (21 ms) measured on a 4-vCPU
  // Xeon KVM guest at the seed commit.
  static constexpr double kLimitMs = 50.0;
  static constexpr const char* kModes[] = {"perfect", "detector", "gossip"};

  struct Case {
    const TaskGraph* g;
    const Schedule* nominal;
    FaultPlan plan;
    runtime::RuntimeOptions opts;
    const char* mode;
  };

  static std::uint64_t episode_digest(const runtime::RuntimeResult& r) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %s %s %a %d",
                  hex64(r.event_digest).c_str(),
                  hex64(r.schedule_digest).c_str(),
                  hex64(r.belief_digest).c_str(), r.makespan,
                  r.complete ? 1 : 0);
    return runtime::fnv1a_digest(buf);
  }

  static analysis::AuditOptions audit_options(const Case& k) {
    analysis::AuditOptions a;
    a.debounce = k.opts.debounce;
    a.use_detector = k.opts.use_detector;
    a.use_gossip = k.opts.use_gossip;
    a.quorum = k.opts.quorum;
    return a;
  }

  static bool continuation_valid(const Case& k,
                                 const runtime::RuntimeResult& r) {
    return r.durations.empty()
               ? validate_schedule(*k.g, r.schedule).empty()
               : validate_schedule(*k.g, r.schedule, r.durations).empty();
  }

  // Untimed layer calls on the same episode inputs, after a traced
  // operation: the simulator on the world plan, the oracle repair of that
  // partial run, the lint feasibility tier on both continuations, and the
  // runtime audit of the episode just run.
  bool probe(Tracer& tr, std::size_t c, std::size_t i) {
    const Case& k = cases_[c];
    SimOptions sim_opts;
    sim_opts.faults = &k.plan;
    std::optional<SimResult> partial;
    {
      ScopedSpan span(tr, "sim.simulate", i);
      partial.emplace(simulate(*k.g, *k.nominal, sim_opts));
    }
    std::optional<RepairResult> oracle;
    {
      ScopedSpan span(tr, "sched.repair_schedule", i);
      oracle.emplace(repair_schedule(*k.g, *k.nominal, *partial, k.plan));
    }
    analysis::LintOptions lint;
    lint.theorems = false;
    lint.quality = false;
    const platform::CostModel clique = platform::CostModel::clique(kProcs);
    bool clean = true;
    {
      ScopedSpan span(tr, "analysis.lint_schedule", i);
      clean = analysis::lint_schedule(*k.g, oracle->schedule,
                                      oracle->durations, clique, lint)
                  .clean();
    }
    if (!current_->durations.empty()) {
      ScopedSpan span(tr, "analysis.lint_schedule", i);
      clean = clean && analysis::lint_schedule(*k.g, current_->schedule,
                                               current_->durations, clique,
                                               lint)
                           .clean();
    }
    bool audited = false;
    {
      ScopedSpan span(tr, "analysis.audit_runtime", i);
      audited =
          analysis::audit_runtime(*k.g, k.plan, *current_, audit_options(k))
              .clean();
    }
    return clean && audited;
  }

  std::vector<TaskGraph> graphs_;
  std::vector<Schedule> nominals_;
  std::vector<Case> cases_;
  std::vector<runtime::RuntimeResult> refs_;
  std::vector<std::uint64_t> ref_;
  std::optional<runtime::RuntimeResult> current_;
};

// repair-mesh: repair_schedule with link_busy on a 4x4 mesh, from kill ->
// rejoin partial runs of communication-heavy Laplace (CCR 5.0, V~2000,
// P=16): 3 graphs x 4 plans (kills spread over 0.1 to 0.4 of the nominal
// makespan) = 12 cases.
class MeshWorkload final : public Workload {
 public:
  static constexpr ProcId kProcs = 16;

  MeshWorkload() : mesh_(Topology::mesh2d(4, 4)) {}

  void setup(std::uint64_t seed, Tracer& tr) override {
    graphs_.reserve(3);
    nominals_.reserve(3);
    for (std::uint64_t k = 0; k < 3; ++k) {
      {
        ScopedSpan span(tr, "workloads.make_workload", 0);
        graphs_.push_back(generate("Laplace", 2000, 5.0, mix(seed, 300 + k)));
      }
      const TaskGraph& g = graphs_.back();
      nominals_.push_back(FlbScheduler().run(g, kProcs));
      const Cost span = nominals_.back().makespan();
      Rng rng(mix(seed, 400 + k));
      for (double at : {0.1, 0.2, 0.3, 0.4}) {
        Case c{&g, &nominals_.back(), kill_rejoin_plan(rng, span, kProcs, at),
               SimResult{}, {}, {}, {}};
        SimOptions sim_opts;
        sim_opts.faults = &c.plan;
        c.partial = simulate(g, nominals_.back(), sim_opts);
        // Repair at the failure instant: everything not yet started is
        // re-planned, so every case migrates work over the mesh.
        c.clique.horizon = c.plan.failures.front().time;
        c.routed = c.clique;
        c.routed.topology = &mesh_;
        c.link_busy = c.routed;
        c.link_busy.link_busy = true;
        cases_.push_back(std::move(c));
      }
    }
    refs_.reserve(cases_.size());
    for (const Case& c : cases_) {
      refs_.push_back(
          repair_schedule(*c.g, *c.nominal, c.partial, c.plan, c.link_busy));
      ref_.push_back(repair_digest(refs_.back()));
    }
  }

  void run(double seconds, Tracer& tr, bool alternate, Outcome& out) override {
    closed_loop(
        cases_.size(), seconds, alternate, tr, ref_, out,
        [&](std::size_t c, std::size_t i) {
          const Case& k = cases_[c];
          ScopedSpan span(tr, "platform.repair_schedule.link_busy", i);
          current_.emplace(repair_schedule(*k.g, *k.nominal, k.partial,
                                           k.plan, k.link_busy));
        },
        [&](std::size_t) { return repair_digest(*current_); },
        [&](std::size_t c, std::size_t i) { return probe(tr, c, i); });
    current_.reset();
  }

  void check(Outcome& out) override {
    double ratio = 0.0;
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      const TaskGraph& g = *cases_[c].g;
      const RepairResult& r = refs_[c];
      out.tally("validate_schedule_durations",
                validate_schedule(g, r.schedule, r.durations).empty());
      out.tally("validate_link_occupancies",
                !r.link_occupancies.empty() &&
                    validate_link_occupancies(mesh_, r.link_occupancies)
                        .empty());
      ratio += r.schedule.makespan() / makespan_lower_bound(g, kProcs);
    }
    out.makespan_vs_lb = ratio / static_cast<double>(cases_.size());
    out.digest = chain_digest(ref_);
  }

  void layers(std::vector<Metric>& m) override {
    double reservations = 0;
    for (const RepairResult& r : refs_)
      reservations += static_cast<double>(r.link_occupancies.size());
    m.push_back({"platform.reservations",
                 reservations / static_cast<double>(refs_.size()), "count"});
  }

  [[nodiscard]] double limit_ms() const override { return kLimitMs; }

 private:
  // Goodput limit: about 3x the wall-clock p90 (6.4-7.1 ms) measured on a
  // 4-vCPU Xeon KVM guest at the seed commit; the scaled p90 is lower.
  static constexpr double kLimitMs = 20.0;

  struct Case {
    const TaskGraph* g;
    const Schedule* nominal;
    FaultPlan plan;
    SimResult partial;
    RepairOptions clique;  // the same repair under each pricing mode
    RepairOptions routed;
    RepairOptions link_busy;
  };

  static std::uint64_t repair_digest(const RepairResult& r) {
    return mix(serve::schedule_digest(r.schedule), r.link_occupancies.size());
  }

  // Untimed layer calls after a traced operation: the same partial run
  // repaired under clique and routed pricing (link_busy minus routed is the
  // reservation cost), and both validators on the continuation just made.
  bool probe(Tracer& tr, std::size_t c, std::size_t i) {
    const Case& k = cases_[c];
    Cost clique_span = 0.0;
    Cost routed_span = 0.0;
    {
      ScopedSpan span(tr, "platform.repair_schedule.clique", i);
      clique_span =
          repair_schedule(*k.g, *k.nominal, k.partial, k.plan, k.clique)
              .schedule.makespan();
    }
    {
      ScopedSpan span(tr, "platform.repair_schedule.routed", i);
      routed_span =
          repair_schedule(*k.g, *k.nominal, k.partial, k.plan, k.routed)
              .schedule.makespan();
    }
    bool valid = false;
    {
      ScopedSpan span(tr, "sched.validate_schedule", i);
      valid = validate_schedule(*k.g, current_->schedule, current_->durations)
                  .empty();
    }
    bool links = false;
    {
      ScopedSpan span(tr, "sched.validate_link_occupancies", i);
      links =
          validate_link_occupancies(mesh_, current_->link_occupancies).empty();
    }
    return valid && links && clique_span > 0.0 && routed_span > 0.0;
  }

  Topology mesh_;
  std::vector<TaskGraph> graphs_;
  std::vector<Schedule> nominals_;
  std::vector<Case> cases_;
  std::vector<RepairResult> refs_;
  std::vector<std::uint64_t> ref_;
  std::optional<RepairResult> current_;
};

// serve-open: an open loop. One producer (this thread) submits to a
// serve::ScheduleService (2 workers, bounded queue) at evenly spaced due
// times, at a constant rate; latency runs from each request's due time.
// Requests mix every workload family at V from 300 to 2000, CCR 0.2 or 5.0,
// P=8.
class ServeWorkload final : public Workload {
 public:
  // Offered rate: about 0.2 of the two-worker capacity, which
  // --measure-capacity put at 5155 and 5418 req/s (seeds 1 and 2) on a
  // 4-vCPU Xeon KVM guest at the seed commit. At half the capacity
  // (2600 req/s) a few seconds of host slowness built a backlog the
  // service never worked off within the run: 2 runs in 6 ended with a p90
  // of 32-43 ms instead of about 1 ms. At 0.3 (1600 req/s) a noisy hour
  // still queued: p90 read 3.2-3.4 ms in 2 runs of 4 and 1.0-1.4 ms in
  // the others.
  static constexpr double kRate = 1000.0;
  static constexpr ProcId kProcs = 8;
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kQueue = 64;

  void setup(std::uint64_t seed, Tracer& tr) override {
    seed_ = seed;
    const std::size_t sizes[] = {300, 800, 1400, 2000};
    const double ccrs[] = {0.2, 5.0};
    const std::vector<std::string> families = workload_names();
    pool_.reserve(families.size() * 8);
    for (std::size_t f = 0; f < families.size(); ++f)
      for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t k = 0; k < 2; ++k) {
          ScopedSpan span(tr, "workloads.make_workload", 0);
          pool_.push_back(generate(families[f], sizes[s], ccrs[k],
                                   mix(seed, 500 + 100 * f + 10 * s + k)));
        }
    FlbScheduler flb;
    Schedule buf(1, 0);
    for (const TaskGraph& g : pool_) {
      flb.run_into(g, kProcs, buf);
      ref_.push_back(serve::schedule_digest(buf));
    }
    service_ = std::make_unique<serve::ScheduleService>(
        serve::ScheduleService::Options{kWorkers, kQueue, {}, false});
    // Warm every worker's scratch on the pool before timing.
    for (int round = 0; round < 2; ++round)
      for (const TaskGraph& g : pool_) service_->submit(g, kProcs);
    service_->drain();
  }

  void run(double seconds, Tracer& tr, bool alternate, Outcome& out) override {
    const auto n = static_cast<std::size_t>(
        std::max<double>(static_cast<double>(kMinOps),
                         std::ceil(kRate * seconds)));
    Rng rng(mix(seed_, 600));
    std::vector<std::size_t> pick(n);
    for (std::size_t& p : pick) p = rng.next_below(pool_.size());
    std::vector<Clock::time_point> due(n), called(n);
    std::vector<std::size_t> ids(n);
    std::vector<std::int64_t> submit_span(n, -1);
    std::vector<double> late_ms(n);
    const serve::ServiceStats before = service_->stats();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kRate));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + period * static_cast<Clock::rep>(i);
      std::this_thread::sleep_until(due[i]);
      const bool traced = alternate && (i / 64) % 2 == 1;
      tr.set_active(traced);
      called[i] = Clock::now();
      {
        ScopedSpan span(tr, "serve.submit", i);
        submit_span[i] = span.id();
        ids[i] = service_->submit(pool_[pick[i]], kProcs);
      }
      late_ms[i] = ms_between(due[i], called[i]);
    }
    tr.set_active(false);
    service_->drain();
    const serve::ServiceStats after = service_->stats();

    Clock::time_point last = t0;
    std::vector<double> wait_ms, run_ms;
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const serve::ScheduleResult& r = service_->result(ids[i]);
      // The service stamps a request inside submit(), after any backpressure
      // wait, and measures latency_ms from that stamp. The completion is
      // rebuilt from the instant submit() was called, so it lies between
      // call + latency_ms and return + latency_ms: it may read early by at
      // most the submit() call (serve.submit_us in the traced run).
      const auto done =
          called[i] + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              r.latency_ms));
      last = std::max(last, done);
      const double latency = ms_between(due[i], done);
      const bool traced = submit_span[i] >= 0;
      ++out.attempted;
      const bool ok = r.digest == ref_[pick[i]];
      if (traced)
        out.traced_latency_ms.push_back(latency);
      else
        out.samples.push_back({latency, ok});
      if (!ok) ++out.failed;
      wait_ms.push_back(r.latency_ms - r.run_ms);
      run_ms.push_back(r.run_ms);
      busy_ms += r.run_ms;
      if (traced) {
        // Worker-side intervals, rebuilt from the service's own stamps.
        const auto run_start =
            done - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(r.run_ms));
        const std::int64_t root =
            tr.add("serve.request", due[i], done, -1, i, 0);
        // The submit() call is the producer's share of the wait to run.
        const std::int64_t wait =
            tr.add("serve.queue_wait", called[i], run_start, root, i, 1);
        tr.reparent(submit_span[i], wait);
        tr.add("serve.run", run_start, done, root, i, 1);
      }
    }
    out.window_s = ms_between(t0, last) / 1000.0;
    layers_.clear();
    layers_.push_back({"serve.run_ms", quantile(run_ms, 0.5), "ms"});
    layers_.push_back(
        {"serve.queue_wait_ms_p50", quantile(wait_ms, 0.5), "ms"});
    layers_.push_back(
        {"serve.queue_wait_ms_p90", quantile(wait_ms, 0.9), "ms"});
    layers_.push_back(
        {"serve.worker_busy_frac",
         busy_ms / (static_cast<double>(kWorkers) * out.window_s * 1000.0),
         "frac"});
    layers_.push_back(
        {"serve.backpressure_waits",
         static_cast<double>(after.backpressure_waits -
                             before.backpressure_waits),
         "count"});
    layers_.push_back(
        {"bench.generator_late_ms_p90", quantile(late_ms, 0.9), "ms"});
    char note[200];
    std::snprintf(note, sizeof note,
                  "offered rate %.0f req/s, %zu requests; generator late "
                  "p50 %.4f ms p90 %.4f ms; backpressure waits %zu",
                  kRate, n, quantile(late_ms, 0.5), quantile(late_ms, 0.9),
                  after.backpressure_waits - before.backpressure_waits);
    out.notes.push_back(note);
  }

  void check(Outcome& out) override {
    FlbScheduler flb;
    Schedule buf(1, 0);
    double ratio = 0.0;
    for (std::size_t k = 0; k < pool_.size(); ++k) {
      flb.run_into(pool_[k], kProcs, buf);
      out.tally("validate_schedule", validate_schedule(pool_[k], buf).empty());
      out.tally("reference_digest", serve::schedule_digest(buf) == ref_[k]);
      ratio += buf.makespan() / makespan_lower_bound(pool_[k], kProcs);
    }
    out.makespan_vs_lb = ratio / static_cast<double>(pool_.size());
    out.digest = chain_digest(ref_);
  }

  void layers(std::vector<Metric>& m) override {
    m.insert(m.end(), layers_.begin(), layers_.end());
  }

  [[nodiscard]] double limit_ms() const override { return kLimitMs; }

  // Two-worker capacity: flood the service (backpressure throttles the
  // producer) with the request mix and count completions per second.
  double measure_capacity(double seconds) {
    Rng rng(mix(seed_, 600));
    const Clock::time_point start = Clock::now();
    std::size_t n = 0;
    while (ms_between(start, Clock::now()) < seconds * 1000.0) {
      for (int b = 0; b < 256; ++b, ++n)
        service_->submit(pool_[rng.next_below(pool_.size())], kProcs);
    }
    service_->drain();
    return static_cast<double>(n) / (ms_between(start, Clock::now()) / 1000.0);
  }

 private:
  // Goodput limit: about 2x the p90 (0.95-1.0 ms) measured on a 4-vCPU
  // Xeon KVM guest at the offered rate at the seed commit.
  static constexpr double kLimitMs = 2.0;

  std::uint64_t seed_ = 0;
  std::vector<TaskGraph> pool_;
  std::vector<std::uint64_t> ref_;
  std::unique_ptr<serve::ScheduleService> service_;
  std::vector<Metric> layers_;
};

const std::vector<std::string>& workload_list() {
  static const std::vector<std::string> names = {
      "paper-2k", "recovery-online", "repair-mesh", "serve-open"};
  return names;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "paper-2k") return std::make_unique<PaperWorkload>();
  if (name == "recovery-online") return std::make_unique<RecoveryWorkload>();
  if (name == "repair-mesh") return std::make_unique<MeshWorkload>();
  if (name == "serve-open") return std::make_unique<ServeWorkload>();
  throw std::runtime_error("unknown workload '" + name + "'");
}

// Peak resident memory of this process image: VmHWM, which (unlike
// getrusage's ru_maxrss) does not carry over the high-water mark of the
// process that exec'd this one. NaN when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return std::nan("");
}

// --- reporting ----------------------------------------------------------------

// Latency and rates of the untraced operations over the timed window, with
// every time (latencies and the window) multiplied by `scale`.
struct SampleStats {
  double p50 = 0.0;
  double p90 = 0.0;
  double throughput = 0.0;  // correct operations per second
  double goodput = 0.0;     // ... that also met the latency limit
};

SampleStats sample_stats(const Outcome& out, double limit_ms,
                         double scale) {
  std::vector<double> ms;
  std::size_t ok = 0;
  std::size_t good = 0;
  for (const Sample& s : out.samples) {
    ms.push_back(s.ms * scale);
    if (s.ok) ++ok;
    if (s.ok && s.ms * scale <= limit_ms) ++good;
  }
  SampleStats st;
  st.p50 = quantile(ms, 0.5);
  st.p90 = quantile(ms, 0.9);
  st.throughput = static_cast<double>(ok) / (out.window_s * scale);
  st.goodput = static_cast<double>(good) / (out.window_s * scale);
  return st;
}

void print_checks(const std::string& workload, const Outcome& out) {
  std::printf("checks %s:", workload.c_str());
  for (const Check& c : out.checks)
    std::printf(" %s %zu/%zu", c.name.c_str(), c.ran - c.bad, c.ran);
  std::printf(" digest_vs_reference %zu/%zu\n", out.attempted - out.failed,
              out.attempted);
  std::printf("error_rate %s: %zu/%zu = %.6f\n", workload.c_str(),
              out.failed + out.check_failures(),
              out.attempted + out.checks_ran(),
              static_cast<double>(out.failed + out.check_failures()) /
                  static_cast<double>(out.attempted + out.checks_ran()));
  std::printf("digest %s: %s (chained FNV-1a over the reference outputs)\n",
              workload.c_str(), hex64(out.digest).c_str());
  for (const std::string& note : out.notes)
    std::printf("note %s: %s\n", workload.c_str(), note.c_str());
  if (!out.first_error.empty())
    std::printf("first error %s: %s\n", workload.c_str(),
                out.first_error.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

bool all_finite(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      return false;
    }
  return true;
}

// Untraced run: set up kSetupsBefore times, one timed loop, the correctness
// checks, then kSetupsAfter more set-ups (setup_s is the median of all).
int run_untraced(const std::string& name, std::uint64_t seed, double seconds) {
  Tracer off(false);
  std::vector<double> setups;
  auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> fresh = make(name);
    fresh->setup(seed, off);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return fresh;
  };
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    w.reset();
    w = timed_setup();
  }
  Outcome out;
  w->run(seconds, off, false, out);
  w->check(out);
  const double peak_mb = peak_rss_mb();
  const double limit_ms = w->limit_ms();
  // Freed first, so every set-up starts from the same heap and threads.
  w.reset();
  for (int rep = 0; rep < kSetupsAfter; ++rep) timed_setup();

  const std::size_t n = out.samples.size();
  // The closed loops probe the host; their times, set-up included, are
  // scaled by the probe's median over the run. The open loop is wall-clock.
  const bool scaled = !out.probe_ms.empty();
  const double probe_ms = quantile(out.probe_ms, 0.5);
  const double scale = scaled ? kProbeRefMs / probe_ms : 1.0;
  const SampleStats all = sample_stats(out, limit_ms, scale);
  const SampleStats raw = sample_stats(out, limit_ms, 1.0);
  const double setup_wall_s = quantile(setups, 0.5);
  std::vector<Metric> metrics = {
      {"latency_ms_p50", all.p50, "ms"},
      {"latency_ms_p90", all.p90, "ms"},
      {"throughput_per_s", all.throughput, "1/s"},
      {"goodput_per_s", all.goodput, "1/s"},
      {"makespan_vs_lb", out.makespan_vs_lb, "ratio"},
      {"setup_s", setup_wall_s * scale, "s"},
      {"peak_rss_mb", peak_mb, "MB"},
  };
  std::printf("workload %s seed %llu seconds %g\n", name.c_str(),
              static_cast<unsigned long long>(seed), seconds);
  std::printf("samples %zu (%zu beyond p90) over %.3f s; goodput limit "
              "%.3f ms; setup runs (s):",
              n, n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n))),
              out.window_s, limit_ms);
  for (double t : setups) std::printf(" %.4f", t);
  std::printf("\n");
  if (!out.probe_ms.empty())
    std::printf("host probe: %zu passes, median %.6f ms\n",
                out.probe_ms.size(), probe_ms);
  std::printf("times below are %s\n",
              scaled
                  ? "scaled to the reference host speed, not measured "
                    "latencies (wall-clock figures on the next line)"
                  : "wall-clock");
  std::printf("wall-clock: p50 %.6f ms, p90 %.6f ms, throughput %.4f/s, "
              "goodput %.4f/s, setup %.6f s\n",
              raw.p50, raw.p90, raw.throughput, raw.goodput, setup_wall_s);
  for (const Metric& m : metrics)
    std::printf("  %-18s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  print_checks(name, out);
  const std::size_t failed = out.failed + out.check_failures();
  const bool correct =
      failed == 0 && n >= kMinOps && all_finite(metrics);
  print_result(correct, out.attempted + out.checks_ran(), failed, metrics);
  return 0;
}

// Traced run: every workload in turn, a quarter of --seconds each, with
// traced and untraced rounds interleaved. Per-layer metrics come from the
// spans; the traced/untraced p50 ratio is the tracing overhead.
int run_traced(std::uint64_t seed, double seconds,
               const std::string& spans_path) {
  g_count_allocs.store(true, std::memory_order_relaxed);
  Tracer tr(true);
  std::vector<Metric> exact;
  std::vector<Metric> overhead;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t paper_tasks = 0;
  bool enough = true;
  for (const std::string& name : workload_list()) {
    std::unique_ptr<Workload> w = make(name);
    tr.set_active(true);
    w->setup(seed, tr);
    tr.set_active(false);
    Outcome out;
    w->run(seconds / 4.0, tr, true, out);
    w->check(out);
    w->layers(exact);
    if (name == "paper-2k")
      paper_tasks = dynamic_cast<PaperWorkload&>(*w).traced_tasks();
    const double wall_p50 = sample_stats(out, w->limit_ms(), 1.0).p50;
    overhead.push_back({"bench.trace_overhead." + name,
                        quantile(out.traced_latency_ms, 0.5) / wall_p50 - 1.0,
                        "frac"});
    // Unscaled, so a change that moves the host probe's relation to a
    // workload shows beside the scaled end-to-end figures.
    overhead.push_back({"bench.wall_latency_ms_p50." + name, wall_p50, "ms"});
    print_checks(name, out);
    attempted += out.attempted + out.checks_ran();
    failed += out.failed + out.check_failures();
    enough = enough && out.traced_latency_ms.size() >= 10;
  }

  const std::map<std::string, LayerSummary> layers = summarize(tr.spans());
  auto find = [&](const char* name) -> const LayerSummary& {
    static const LayerSummary empty;
    auto it = layers.find(name);
    return it == layers.end() ? empty : it->second;
  };
  auto median_ms = [&](const char* name) {
    return quantile(find(name).durations_ms, 0.5);
  };
  auto allocs = [&](const char* name) {
    const LayerSummary& l = find(name);
    return l.count ? static_cast<double>(l.allocs) /
                         static_cast<double>(l.count)
                   : std::nan("");
  };

  std::printf("layer summary (traced run, seed %llu):\n",
              static_cast<unsigned long long>(seed));
  std::printf("  %-36s %8s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms", "allocs/call");
  for (const auto& [name, l] : layers)
    std::printf("  %-36s %8zu %12.3f %12.3f %12.2f\n", name.c_str(), l.count,
                l.total_ms, l.self_ms,
                static_cast<double>(l.allocs) / static_cast<double>(l.count));
  if (tr.dropped()) std::printf("spans dropped: %zu\n", tr.dropped());

  const LayerSummary& run = find("core.run_into");
  std::vector<Metric> metrics = {
      {"workloads.generate_ms", find("workloads.make_workload").total_ms,
       "ms"},
      {"graph.bottom_levels_us", 1000.0 * median_ms("graph.bottom_levels_into"),
       "us"},
      {"core.run_ms", median_ms("core.run_into"), "ms"},
      {"core.us_per_task",
       paper_tasks ? 1000.0 * run.total_ms / static_cast<double>(paper_tasks)
                   : std::nan(""),
       "us"},
      {"core.allocs_per_run", allocs("core.run_into"), "count"},
      {"algos.fcp_ms", median_ms("algos.fcp"), "ms"},
      {"core.cost_vs_fcp", run.total_ms / find("algos.fcp").total_ms, "ratio"},
      {"runtime.episode_ms", median_ms("runtime.run_online_recovery"), "ms"},
      {"sim.simulate_ms", median_ms("sim.simulate"), "ms"},
      {"sched.repair_ms", median_ms("sched.repair_schedule"), "ms"},
      {"analysis.lint_feasibility_ms", median_ms("analysis.lint_schedule"),
       "ms"},
      {"platform.repair_ms.clique",
       median_ms("platform.repair_schedule.clique"), "ms"},
      {"platform.repair_ms.routed",
       median_ms("platform.repair_schedule.routed"), "ms"},
      {"platform.repair_ms.link_busy",
       median_ms("platform.repair_schedule.link_busy"), "ms"},
      {"sched.validate_ms", median_ms("sched.validate_schedule"), "ms"},
      {"sched.validate_links_ms",
       median_ms("sched.validate_link_occupancies"), "ms"},
      {"analysis.audit_ms", median_ms("analysis.audit_runtime"), "ms"},
      {"serve.submit_us", 1000.0 * median_ms("serve.submit"), "us"},
  };
  metrics.insert(metrics.end(), exact.begin(), exact.end());
  for (const char* span :
       {"graph.bottom_levels_into", "algos.fcp", "sched.validate_schedule",
        "sim.simulate", "sched.repair_schedule", "analysis.lint_schedule",
        "analysis.audit_runtime", "runtime.run_online_recovery",
        "platform.repair_schedule.link_busy", "serve.submit"})
    metrics.push_back(
        {std::string(span) + ".allocs_per_call", allocs(span), "count"});
  metrics.insert(metrics.end(), overhead.begin(), overhead.end());

  if (!spans_path.empty()) write_spans(spans_path, tr.spans());
  const bool correct = failed == 0 && enough && all_finite(metrics);
  print_result(correct, attempted, failed, metrics);
  return 0;
}

int measure_capacity(std::uint64_t seed, double seconds) {
  Tracer off(false);
  ServeWorkload w;
  w.setup(seed, off);
  const double capacity = w.measure_capacity(seconds);
  std::printf("two-worker capacity: %.1f req/s (offered rate %.0f = %.2f of "
              "it)\n",
              capacity, ServeWorkload::kRate, ServeWorkload::kRate / capacity);
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flb_perfbench: %s\nusage: flb_perfbench --workload "
               "{paper-2k|recovery-online|repair-mesh|serve-open} --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n"
               "       flb_perfbench --measure-capacity --seed N --seconds S\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool capacity = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") seed = std::stoull(value());
      else if (arg == "--seconds") seconds = std::stod(value());
      else if (arg == "--trace") trace = std::stoi(value());
      else if (arg == "--spans") spans_path = value();
      else if (arg == "--measure-capacity") capacity = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(seconds > 0.0 && seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  try {
    if (capacity) return measure_capacity(seed, seconds);
    const auto& names = workload_list();
    if (std::find(names.begin(), names.end(), workload) == names.end())
      usage("unknown workload '" + workload + "'");
    return trace ? run_traced(seed, seconds, spans_path)
                 : run_untraced(workload, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flb_perfbench: %s\n", e.what());
    return 1;
  }
}
