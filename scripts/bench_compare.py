#!/usr/bin/env python3
"""Compare two bench_kernel JSON snapshots and flag regressions.

Usage:
    scripts/bench_compare.py BASE[:LABEL] CAND[:LABEL] [--threshold PCT] [--force]
    scripts/bench_compare.py --before BASE[:LABEL] --after CAND[:LABEL] [--force]

Each argument is a JSON file written by `bench_kernel --json=...` (a single
snapshot) or a committed BENCH_kernel.json (a `snapshots` list — append
`:LABEL` to pick one; defaults to the last snapshot in the file).

For every metric present in both snapshots the tool prints base, candidate,
and the percentage delta, oriented so positive is always an improvement
(throughput metrics up, latency/footprint metrics down). Exits 1 if any
throughput metric regressed by more than --threshold percent (default 10),
which makes it usable as a CI gate; footprint metrics are informational.

Snapshots are compared only when they come from the same host: the same
usable core count and CPU model in their `host` record (bench_kernel
writes it; snapshots from before it did have none and count as an unknown
host). Otherwise the tool exits 2 and says why, unless --force is given, in
which case it prints the mismatch and compares anyway. CI passes --force:
its gates compare a shared runner against a snapshot committed from a
different machine, with thresholds wide enough for that.

With --gate REGEX, only metrics whose full `bench.metric` name matches the
regex participate in the exit code; everything else is printed for context
but cannot fail the run. CI uses this to hard-gate the end-to-end
experiment throughput (`--gate 'sim_experiment_.*\\.events_per_sec'`) while
leaving the noisier micro-metrics informational on shared runners.

With --before/--after the tool instead prints a report-only per-bench
speedup table (one row per benchmark, ratio of its primary throughput
metric) and exits 0 unless the hosts differ — the format used to document
an optimization with a before/after pair of snapshots from one host:

    scripts/bench_compare.py --before BENCH_kernel.json:BEFORE_LABEL \\
                             --after BENCH_kernel.json:AFTER_LABEL

With --shards SNAP, the tool prints a report-only shard-scaling table from a
single snapshot: every benchmark with `_shardsN` variants gets one row per
shard count (1 = the plain-kernel base run) showing wall time, event
throughput, speedup over shards=1, and the fraction of contacts that ran on
worker threads (the Amdahl bound on further scaling). Always exits 0:

    scripts/bench_compare.py --shards BENCH_kernel.json:pr8-shard-after
"""

import argparse
import json
import re
import sys

# metric-name suffix -> direction. "up" means bigger is better.
DIRECTIONS = {
    "per_sec": "up",
    "ns_per_event": "down",
    "ns_per_op": "down",
    "us_per_plan": "down",
    "us_per_tick": "down",
    "us_per_snapshot": "down",
    "wall_ms": "down",
    "peak_pending": "down",
    # Fraction of contacts the sharded kernel ran off the coordinator — a
    # deterministic classification ratio (no runner noise), so CI gates it
    # with a tight threshold on the _shardsN presets (docs/scaling.md).
    "boring_fraction": "up",
}

# Metrics that gate the exit code (throughput + latency, plus the
# deterministic boring_fraction classification ratio). Footprint and
# run-shape counters (contacts, assignments, events_processed) only inform.
GATING_SUFFIXES = ("per_sec", "ns_per_event", "ns_per_op", "us_per_plan",
                   "boring_fraction")


def direction_of(metric: str):
    for suffix, d in DIRECTIONS.items():
        if metric.endswith(suffix):
            return d
    return None


def load_snapshot(spec: str):
    """`file.json` or `file.json:label` -> (label, results dict, host).

    Every malformation exits with a one-line diagnosis instead of a
    traceback: missing file, invalid JSON, no snapshots, unknown label, or a
    snapshot without a results table.
    """
    path, _, label = spec.partition(":")
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON ({e})")
    if not isinstance(doc, dict):
        sys.exit(f"error: {path} is not a bench snapshot file (expected a JSON object)")
    snapshots = doc.get("snapshots", [doc] if "results" in doc else [])
    if not isinstance(snapshots, list) or not snapshots:
        sys.exit(f"error: {path} contains no bench snapshots")
    if label:
        matches = [s for s in snapshots if isinstance(s, dict) and s.get("label") == label]
        if not matches:
            known = ", ".join(s.get("label", "?") for s in snapshots
                              if isinstance(s, dict)) or "none"
            sys.exit(f"error: no snapshot labelled {label!r} in {path} (have: {known})")
        snap = matches[-1]
    else:
        snap = snapshots[-1]
    if not isinstance(snap, dict) or not isinstance(snap.get("results"), dict):
        sys.exit(f"error: snapshot {spec!r} has no results table (malformed "
                 "snapshot — regenerate with scripts/bench_baseline.sh)")
    host = snap.get("host") if isinstance(snap.get("host"), dict) else None
    return snap.get("label", path), snap["results"], host


def host_name(host):
    if host is None:
        return "unknown host"
    return f"{host.get('nproc', '?')} x {host.get('cpu', '?')}"


def check_same_host(base_label, base_host, cand_label, cand_host, force):
    """Exit 2 unless both snapshots name the same cores and CPU (or --force)."""
    key = lambda h: None if h is None else (h.get("nproc"), h.get("cpu"))
    if key(base_host) is not None and key(base_host) == key(cand_host):
        return
    message = (f"{base_label} ({host_name(base_host)}) and {cand_label} "
               f"({host_name(cand_host)}) do not come from the same host")
    if not force:
        print(f"error: {message}; pass --force to compare them anyway",
              file=sys.stderr)
        sys.exit(2)
    print(f"warning: {message}; comparing anyway (--force)")


def metric_tables(results: dict, bench: str):
    """results[bench] as a metric dict, or None when malformed."""
    table = results.get(bench)
    return table if isinstance(table, dict) else None


def speedup_table(before_spec: str, after_spec: str, force: bool):
    """Report-only per-bench speedup table: ratio of each benchmark's
    primary throughput metric (first `*_per_sec` in name order)."""
    before_label, before, before_host = load_snapshot(before_spec)
    after_label, after, after_host = load_snapshot(after_spec)
    check_same_host(before_label, before_host, after_label, after_host, force)
    print(f"before: {before_label}")
    print(f"after:  {after_label}")
    print(f"{'bench':<28} {'metric':>18} {'before':>14} {'after':>14} {'speedup':>9}")
    for bench in sorted(set(before) & set(after)):
        b_table, a_table = metric_tables(before, bench), metric_tables(after, bench)
        if b_table is None or a_table is None:
            continue
        throughputs = sorted(
            m for m in set(b_table) & set(a_table)
            if m.endswith("per_sec")
            and isinstance(b_table[m], (int, float))
            and isinstance(a_table[m], (int, float)))
        if not throughputs:
            continue
        metric = throughputs[0]
        b, a = b_table[metric], a_table[metric]
        ratio = f"x{a / b:.2f}" if b > 0 else "n/a"
        print(f"{bench:<28} {metric:>18} {b:>14.6g} {a:>14.6g} {ratio:>9}")


def shard_table(spec: str):
    """Report-only shard-scaling table: for each bench with `_shardsN`
    variants, one row per shard count with speedup over the shards=1 base."""
    label, results, _ = load_snapshot(spec)
    print(f"snapshot: {label}")
    groups = {}
    for bench in results:
        if metric_tables(results, bench) is None:
            continue
        m = re.fullmatch(r"(.*)_shards(\d+)", bench)
        if m and metric_tables(results, m.group(1)) is not None:
            groups.setdefault(m.group(1), {})[int(m.group(2))] = bench
    if not groups:
        print("no *_shardsN benchmarks in this snapshot")
        return
    print(f"{'bench':<32} {'shards':>6} {'wall_ms':>10} {'events/s':>12} "
          f"{'speedup':>8} {'boring':>7}")
    for base in sorted(groups):
        variants = {1: base, **groups[base]}
        base_eps = results[base].get("events_per_sec")
        for k in sorted(variants):
            r = results[variants[k]]
            eps = r.get("events_per_sec")
            wall = r.get("wall_ms")
            speed = f"x{eps / base_eps:.2f}" if base_eps and eps else "n/a"
            boring = r.get("boring_fraction")
            boring_s = f"{boring:.2f}" if isinstance(boring, (int, float)) else "-"
            wall_s = f"{wall:.4g}" if isinstance(wall, (int, float)) else "-"
            eps_s = f"{eps:.6g}" if isinstance(eps, (int, float)) else "-"
            print(f"{base:<32} {k:>6} {wall_s:>10} {eps_s:>12} {speed:>8} {boring_s:>7}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="baseline snapshot: FILE[:LABEL]")
    ap.add_argument("candidate", nargs="?", help="candidate snapshot: FILE[:LABEL]")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="max tolerated regression on gating metrics, in percent")
    ap.add_argument("--gate", metavar="REGEX", default=None,
                    help="restrict the exit-code gate to bench.metric names "
                         "matching this regex (default: gate every "
                         "throughput/latency metric)")
    ap.add_argument("--before", metavar="FILE[:LABEL]", default=None,
                    help="report-only mode: print a per-bench speedup table "
                         "from this snapshot to --after (exit 0 unless "
                         "the hosts differ)")
    ap.add_argument("--after", metavar="FILE[:LABEL]", default=None,
                    help="the 'after' snapshot for --before")
    ap.add_argument("--force", action="store_true",
                    help="compare snapshots even when they come from "
                         "different (or unrecorded) hosts")
    ap.add_argument("--shards", metavar="FILE[:LABEL]", default=None,
                    help="report-only mode: print a shard-scaling table from "
                         "one snapshot's *_shardsN benchmarks (exit 0 always)")
    args = ap.parse_args()

    if args.shards is not None:
        if args.base or args.candidate or args.before or args.after:
            ap.error("--shards replaces the other snapshot arguments")
        shard_table(args.shards)
        return
    if (args.before is None) != (args.after is None):
        ap.error("--before and --after must be used together")
    if args.before is not None:
        if args.base or args.candidate:
            ap.error("--before/--after replaces the positional snapshots")
        speedup_table(args.before, args.after, args.force)
        return
    if args.base is None or args.candidate is None:
        ap.error("need BASE and CANDIDATE snapshots (or --before/--after)")

    base_label, base, base_host = load_snapshot(args.base)
    cand_label, cand, cand_host = load_snapshot(args.candidate)
    check_same_host(base_label, base_host, cand_label, cand_host, args.force)

    print(f"base:      {base_label}")
    print(f"candidate: {cand_label}")
    print(f"{'metric':<44} {'base':>14} {'cand':>14} {'delta':>9}")

    regressions = []
    for bench in sorted(set(base) & set(cand)):
        b_table, c_table = metric_tables(base, bench), metric_tables(cand, bench)
        if b_table is None or c_table is None:
            continue
        for metric in sorted(set(b_table) & set(c_table)):
            b, c = b_table[metric], c_table[metric]
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            d = direction_of(metric)
            name = f"{bench}.{metric}"
            if d is None or b == 0:
                print(f"{name:<44} {b:>14.6g} {c:>14.6g} {'':>9}")
                continue
            # Positive delta = improvement, regardless of direction.
            delta = (c - b) / b * 100.0 if d == "up" else (b - c) / b * 100.0
            flag = ""
            gated = metric.endswith(GATING_SUFFIXES) and (
                args.gate is None or re.search(args.gate, name))
            if gated and delta < -args.threshold:
                regressions.append((name, delta))
                flag = "  << REGRESSION"
            print(f"{name:<44} {b:>14.6g} {c:>14.6g} {delta:>+8.1f}%{flag}")

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond {args.threshold}%:",
              file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        sys.exit(1)
    print("\nno gating regressions")


if __name__ == "__main__":
    main()
