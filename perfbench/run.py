#!/usr/bin/env python3
"""The repository benchmark: build the simulator in Release and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Workloads, metrics and their meaning are listed in BENCHMARK.json and
perfbench/metrics.json. The first run in a checkout configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench (about 30 s on 4 cores);
later runs only check that the build is up to date.

--trace 0 runs one-pass driver processes back to back until their passes
have taken --seconds, and reports each end-to-end metric as the median over
those processes: a process's speed on a shared host varies more between
processes than between passes within one. Every process must reproduce the
first one's results digest. --trace 1 runs one traced driver process and
reports the per-layer metrics (its spans go to
.bench_build/perfbench/spans-*.jsonl).

The drivers' output lines are passed through; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Any failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("paper_grid", "reality_churn", "mobility_50k")
RUN_DEADLINE_S = 170  # for all driver processes of one run, after the build


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="shrunken workloads for the benchmark's own tests")
    p.add_argument("--corrupt-row", type=int, default=-1,
                   help="damage this result row of every pass (tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cpu_count():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build (a no-op when up to date). Logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "experiment.hpp")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, cpu_count()))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """sha256 over the simulator sources (a checkout need not be a git repo)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The last driver line must be the result object with every metric."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("failed must be a whole number in [0, attempted]")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: got %s, want %s" % (got, want))
    return result


def run_driver(cmd, trace, deadline):
    """One driver process: its other output lines, its report and its result."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver did not finish within the run's %d s" % RUN_DEADLINE_S)
    if r.returncode != 0:
        fail("driver exited with code %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = check_result(lines[-1], trace)
        report = next(json.loads(l)["report"] for l in lines if l.startswith('{"report"'))
    except (ValueError, KeyError, TypeError, StopIteration) as e:
        fail("bad driver output: %r" % e)
    return lines[:-1], report, result


def combine(runs):
    """Median of each metric over the processes; a process whose results
    digest differs from the first one's counts every experiment as failed."""
    digest = runs[0][1]["results_digest"]
    attempted = sum(result["attempted"] for _, _, result in runs)
    failed = sum(result["attempted"] if report["results_digest"] != digest else result["failed"]
                 for _, report, result in runs)
    metrics = {}
    for name, m in runs[0][2]["metrics"].items():
        values = [result["metrics"][name]["value"] for _, _, result in runs]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {"correct": failed == 0 and all(result["correct"] for _, _, result in runs),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv):
    args = parse_args(argv)
    overrides = sorted(k for k in os.environ if k.startswith("DTNCACHE_"))
    if overrides:
        fail("refusing to run with DTNCACHE_* overrides set: " + " ".join(overrides))
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at " + ROOT)
    build()

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_row >= 0:
        cmd += ["--corrupt-row", str(args.corrupt_row)]
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs = [run_driver(cmd, args.trace, deadline)]
    def pass_time(report):
        return sum(report["pass_wall_s"]) + sum(report["traced_pass_wall_s"])

    measured = pass_time(runs[0][1])
    while not args.trace and measured < args.seconds:
        runs.append(run_driver(cmd, args.trace, deadline))
        measured += pass_time(runs[-1][1])
    for lines, _, _ in runs:
        for line in lines:
            print(line)
    print("processes %d, measured pass time %.3f s" % (len(runs), measured))
    print(json.dumps(combine(runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
