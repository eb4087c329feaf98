#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
`flb_perfbench` (the library plus one binary, Release flags) under
`$CARGO_TARGET_DIR/perfbench`, or `.bench_build/perfbench` when that is
unset; later runs only re-check the build. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero without a result when the checkout cannot be built or the
run fails its own checks of the output format. Without --seed the default
seed of perfbench/seeds.json is used; its held-out seed is for confirming a
claimed gain on inputs no tuning has seen.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-2k", "recovery-online", "repair-mesh", "serve-open"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; returns the binary path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s next to perfbench/: not a checkout of the repository"
                 % needed)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "flb_perfbench",
                  "-j", "3"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "flb_perfbench")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if set(result) != RESULT_KEYS:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            fail("metric %s lacks value/unit" % name)
    expected = set(metric_names(trace))
    if expected and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(expected - set(result["metrics"])),
            sorted(set(result["metrics"]) - expected)))


def metric_names(trace):
    """Metric names BENCHMARK.json promises for this mode (empty if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def default_seed():
    with open(os.path.join(HERE, "seeds.json")) as f:
        return int(json.load(f)["default"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=default_seed())
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    timeout = min(175.0, 60.0 + 3.0 * args.seconds)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %.0f s" % timeout)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail("flb_perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed nothing")
    check_result(lines[-1], args.trace)


if __name__ == "__main__":
    main()
