#!/usr/bin/env bash
# Regenerate every paper figure/table and every ablation with the paper's
# default configuration (V ~ 2000, 5 seeds, CCR {0.2, 5}, P {2..32}),
# saving outputs under results/. Usage:
#
#   scripts/reproduce_all.sh [build-dir] [results-dir]
#
# Takes a few minutes on a laptop; pass --seeds/--tasks overrides to the
# individual binaries for quicker spot checks.

set -euo pipefail

build="${1:-build}"
out="${2:-results}"
mkdir -p "$out"

if [[ ! -d "$build/bench" ]]; then
  echo "build directory '$build' not found — run:" >&2
  echo "  cmake -B $build -G Ninja && cmake --build $build" >&2
  exit 1
fi

benches=(
  bench_fig2_cost
  bench_fig3_speedup
  bench_fig4_nsl
  bench_complexity_scaling
  bench_ablation_tiebreak
  bench_ablation_ccr
  bench_width
  bench_ablation_duplication
  bench_sim_contention
  bench_extended_compare
  bench_multistep
  bench_hetero
  bench_improvement
  bench_topology
  bench_robustness
  bench_ablation_lookahead
)

for b in "${benches[@]}"; do
  echo "== $b"
  "$build/bench/$b" | tee "$out/$b.txt"
  echo
done

# The fault-tolerance sweep gets its own invocation: --online appends the
# oracle-vs-online recovery comparison (the event-driven controller of
# flb::runtime re-repairing per observation), whose per-episode digests
# make the saved output diffable against a re-run.
echo "== bench_fault_tolerance"
"$build/bench/bench_fault_tolerance" --online --detector \
  | tee "$out/bench_fault_tolerance.txt"
echo

echo "== table 1 trace"
"$build/examples/trace_paper_example" | tee "$out/table1_trace.txt"

# Semantic lint gate: the schedules behind the tables above must satisfy
# the paper's selection invariants, not just feasibility. FLB runs the
# full theorem tier (ETF conformance, EP classification, PRT monotone,
# trace/schedule consistency); the baselines run the feasibility tier.
# Any error-severity diagnostic aborts the reproduction (exit 2).
echo "== semantic lint (flb_lint)"
{
  "$build/examples/flb_lint" --paper-example --procs 2
  for algo in FLB ETF MCP FCP DSC-LLB; do
    for procs in 2 8 32; do
      echo "-- $algo on LU V~2000 P=$procs"
      "$build/examples/flb_lint" --workload LU --tasks 2000 \
        --procs "$procs" --algo "$algo"
    done
  done
} | tee "$out/lint_report.txt"

# Scheduling-as-a-service throughput: DAGs/sec and scheduling-time
# percentiles of the arena-backed ScheduleService vs worker threads, with
# the chained digest column asserting (in-process) that every worker count
# is byte-identical to sequential FLB. Speedup depends on available cores
# — see docs/serving.md for the caveat.
echo "== bench_throughput (scheduling-as-a-service worker pool)"
"$build/bench/bench_throughput" | tee "$out/bench_throughput.txt"
echo

# bench_micro is a google-benchmark binary, not a table printer; the
# persisted slice is the platform cost-model pricing hot path (ns/query of
# clique vs routed vs link-busy), which guards the constant in front of
# FLB's complexity bound.
echo "== bench_micro (platform pricing hot path)"
{
  echo "Platform cost-model pricing hot path (bench_micro --benchmark_filter=BM_Comm)"
  echo "P = 32; routed/link-busy over a 4x8 mesh; 4096 pre-generated remote queries per iteration."
  echo "Per-query cost = Time / 4096 (items_per_second counts individual queries)."
  echo "BM_CommLinkBusyArrivals: one query = one arrivals() row pricing all 32 destinations."
  echo
  "$build/bench/bench_micro" --benchmark_filter='BM_Comm' \
    --benchmark_min_time=0.5 2>/dev/null | sed -n '/^---/,$p'
} | tee "$out/bench_micro_platform.txt"

echo
echo "All outputs saved under $out/. Compare against EXPERIMENTS.md."
