#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of one build agree.

    python3 perfbench/steadiness.py [--seeds 10]

Run from the root of a checkout. Each of the two sets runs `perfbench/run.py`
untraced on every workload of BENCHMARK.json for BENCHMARK.json's
run_seconds: once per seed (set 1 uses seeds 1..N, set 2 seeds N+1..2N, so no
two sets share a seed) and REPEATS more times on the default seed of
perfbench/seeds.json. For every end-to-end metric and workload it prints
each set's median and quartiles over its N seeds (Python's
`statistics.quantiles(values, n=4)`) and the spread, the distance between the
quartiles as a share of the median. It flags:

  SPREAD  a spread wider than the metric's bound;
  THIRD   a spread wider than a third of the bound (a warning: the benchmark
          should sit well inside its bounds, not on them);
  DRIFT   set 2's median differs from set 1's by more than the bound, in
          either direction;
  REPEAT  the default seed's makespan_vs_lb or chained output digest differs
          between its runs (they must repeat exactly);
  FAILED  a run that exited non-zero, reported correct=false or failed > 0.

Exits 1 if anything but THIRD was flagged. Progress goes to standard error;
the report goes to standard output.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
REPEATS = 2  # extra runs of the default seed per set and workload


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    """Returns (result, chained digest) or None when the run failed."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not result["correct"] or result["failed"] != 0:
        return None
    digest = re.search(r"^digest %s: (\S+)" % re.escape(workload),
                       done.stdout, re.M)
    return result, digest.group(1) if digest else None


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per set (default 10)")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("need --seeds >= 2")

    spec = load_json(ROOT, "BENCHMARK.json")
    default_seed = int(load_json(HERE, "seeds.json")["default"])
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[workload][set][metric] -> values over the set's seeds
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)]
              for w in workloads}
    # repeats[workload] -> (makespan_vs_lb, digest) of every default-seed run
    repeats = {w: [] for w in workloads}
    failures = []
    started = time.time()
    for s in range(SETS):
        for w in workloads:
            seeds = [1 + s * args.seeds + j for j in range(args.seeds)]
            for j, seed in enumerate(seeds + [default_seed] * REPEATS):
                got = run_once(spec, w, seed)
                print("set %d %-16s seed %4d %s (%.0f s elapsed)" % (
                    s + 1, w, seed, "ok" if got else "FAILED",
                    time.time() - started), file=sys.stderr, flush=True)
                if not got:
                    failures.append("%s seed %d" % (w, seed))
                    continue
                result, digest = got
                if seed == default_seed:
                    repeats[w].append(
                        (result["metrics"]["makespan_vs_lb"]["value"], digest))
                if j < len(seeds):
                    for m in metrics:
                        values[w][s][m["name"]].append(
                            result["metrics"][m["name"]]["value"])

    flags = []
    print("steadiness: %d sets x %d seeds x %s s per run, seeds 1..%d; "
          "default seed %d run %d times per workload" % (
              SETS, args.seeds, spec["run_seconds"], SETS * args.seeds,
              default_seed, len(repeats[workloads[0]])))
    for w in workloads:
        print("\n%s" % w)
        print("  %-18s %-5s %14s %14s %14s %8s %7s  %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "flags"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s in range(SETS):
                vals = values[w][s][name]
                if len(vals) < 2:
                    print("  %-18s %-5d too few runs" % (name, s + 1))
                    continue
                q1, med, q3, spread = quartiles(vals)
                marks = []
                if spread > bound:
                    marks.append("SPREAD")
                elif spread > bound / 3:
                    marks.append("THIRD")
                if first_median is None:
                    first_median = med
                elif abs(med - first_median) > bound * abs(first_median):
                    marks.append("DRIFT %+.1f%%" % (
                        100 * (med - first_median) / first_median))
                flags += ["%s/%s set %d %s" % (w, name, s + 1, k)
                          for k in marks]
                print("  %-18s %-5d %14.6g %14.6g %14.6g %7.2f%% %6.0f%%  %s"
                      % (name, s + 1, q1, med, q3, 100 * spread, 100 * bound,
                         " ".join(marks)))
        distinct = sorted(set(repeats[w]), key=str)
        print("  default seed %d: %d runs, makespan_vs_lb and digest %s" % (
            default_seed, len(repeats[w]),
            "identical: %.17g %s" % distinct[0] if len(distinct) == 1
            else "DIFFER: %s" % distinct))
        if len(distinct) != 1:
            flags.append("%s default seed REPEAT" % w)
    print()
    for f in failures:
        print("FAILED run: " + f)
    hard = [f for f in flags if not f.endswith("THIRD")]
    print("flags: %s" % (", ".join(flags) if flags else "none"))
    print("verdict: %s" % ("NOT STEADY" if hard or failures else "steady"))
    sys.exit(1 if hard or failures else 0)


if __name__ == "__main__":
    main()
