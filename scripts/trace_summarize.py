#!/usr/bin/env python3
"""Summarize a dtncache structured event trace (JSONL).

Reads the output of `dtncache --trace-out=...` or `dtncache_sweep
--trace-out=...` (see docs/observability.md for the schema) and prints,
per run fingerprint:

  - an event-kind histogram;
  - a one-line health verdict: `protocol inert` when the run made no
    `push`, `all plans unmet` when every `plan` event has no helper and
    unmet nodes, `unknown` when the run's trace_filter record shows that
    the filter dropped a kind the verdict needs, else `ok`;
  - pair-sparsity stats over contact events: distinct node pairs observed
    vs the n*(n-1)/2 possible, and the degree distribution — the numbers
    that decide whether the sparse pair-state backend pays off (see
    docs/scaling.md);
  - a per-item freshness timeline: for every version_bump, how the new
    version propagated through the caching set (pushes over time, time to
    first/median/last delivery before the next bump);
  - query outcome summary (local hits, delivered replies, fresh replies);
  - with --sweep-store DIR (no trace file needed), a spool-sweep progress
    readout from the fragment store: jobs completed (fragments on disk) out
    of the total that --spool-init wrote to status.jsonl, bytes on disk,
    throughput in jobs/s from fragment mtimes, and an ETA for the jobs
    still outstanding (see docs/sweep.md);
  - with --shard-map FILE, a shard-plan audit: per-shard node and contact
    load balance plus the cross-shard contact ratio, for sizing the sharded
    kernel (sim.shards, see docs/scaling.md). FILE holds one shard id per
    node in node-id order (whitespace/newline separated; a JSON array also
    works).

Stdlib only; works on partial traces (kinds filtered out are skipped).

Usage:
  python3 scripts/trace_summarize.py trace.jsonl
  python3 scripts/trace_summarize.py --item 0 --per-version trace.jsonl
  python3 scripts/trace_summarize.py --shard-map plan.txt trace.jsonl
  dtncache --trace=infocom --trace-out=- --csv | python3 scripts/trace_summarize.py -
"""

import argparse
import collections
import glob
import json
import os
import sys
import time


def hours(seconds):
    return seconds / 3600.0


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def load_events(stream):
    """Parse JSONL events grouped by run label, preserving order."""
    runs = collections.defaultdict(list)
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            raise SystemExit(f"line {lineno}: not JSON: {err}")
        runs[event.get("run", "?")].append(event)
    return runs


# Kinds the health verdict reads: pushes (inert or not) and plans (all
# unmet or not).
VERDICT_KINDS = ("push", "plan")


def health_verdict(histogram, events, kept):
    """One-line verdict on whether the refresh protocol did anything.

    `kept` is the set of kinds named by the run's trace_filter record, or
    None for an unfiltered run (a filtered tracer always writes one).
    """
    if kept is not None:
        dropped = [k for k in VERDICT_KINDS if k not in kept]
        if dropped:
            return f"unknown (trace filter dropped {', '.join(dropped)})"
    problems = []
    if "push" not in histogram:
        over = ("" if kept is not None and "contact" not in kept
                else f" over {histogram['contact']} contact(s)")
        problems.append(f"protocol inert (0 push events{over})")
    plans = [e for e in events if e["kind"] == "plan"]
    if plans and all(e.get("helpers") == 0 and e.get("unmet", 0) > 0 for e in plans):
        problems.append(f"all plans unmet ({len(plans)} plan event(s), "
                        f"0 helpers)")
    return "; ".join(problems) if problems else "ok"


def pair_sparsity(events):
    """Distinct contact pairs, node footprint, and degree spread.

    Counts every event kind that names a node pair (`a`, `b`): delivered,
    suppressed, and lost contacts all witness that the pair can meet, which
    is what sizes the sparse backend's state (docs/scaling.md).
    """
    pairs = set()
    contacts = 0
    degree = collections.Counter()
    max_node = -1
    for event in events:
        a, b = event.get("a"), event.get("b")
        if a is None or b is None:
            continue
        contacts += 1
        max_node = max(max_node, a, b)
        pair = (a, b) if a < b else (b, a)
        if pair not in pairs:
            pairs.add(pair)
            degree[a] += 1
            degree[b] += 1
    return contacts, pairs, degree, max_node + 1


def load_shard_map(path):
    """Node->shard map: whitespace-separated ints in node-id order.

    Tolerates a JSON array dump (`[0, 0, 1, ...]`) by stripping brackets and
    commas, so both hand-written plans and serialized ones work.
    """
    with open(path) as f:
        text = f.read()
    tokens = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
    shard_map = [int(t) for t in tokens]
    if not shard_map:
        raise SystemExit(f"{path}: empty shard map")
    return shard_map


def shard_summary(events, shard_map):
    """Per-shard load and the cross-shard contact ratio under a given plan.

    Cross-shard contacts are the plan's coordination cost (their pair state
    lands on a hashed shard, and their endpoints' shards both observe the
    meeting); same-shard contacts stay entirely local. A cross ratio near
    zero with balanced per-shard load is what makes a plan worth using.
    """
    shards = max(shard_map) + 1
    same = cross = unmapped = 0
    # Same-shard contacts count fully toward their shard; cross-shard
    # contacts split evenly between the two endpoint shards, approximating
    # where the estimator/observability work lands.
    load = [0.0] * shards
    for event in events:
        a, b = event.get("a"), event.get("b")
        if a is None or b is None:
            continue
        if a >= len(shard_map) or b >= len(shard_map):
            unmapped += 1
            continue
        sa, sb = shard_map[a], shard_map[b]
        if sa == sb:
            same += 1
            load[sa] += 1.0
        else:
            cross += 1
            load[sa] += 0.5
            load[sb] += 0.5
    nodes_per_shard = collections.Counter(shard_map)
    print(f"\n  shard plan: {shards} shard(s) over {len(shard_map)} mapped node(s)")
    counts = [nodes_per_shard.get(s, 0) for s in range(shards)]
    print(f"    nodes/shard: min {min(counts)}, max {max(counts)}, "
          f"mean {len(shard_map) / shards:.1f}")
    total = same + cross
    if total:
        print(f"    contacts: {same} same-shard, {cross} cross-shard "
              f"(cross ratio {cross / total:.3f})")
        mean_load = total / shards
        imbalance = max(load) / mean_load if mean_load else 0.0
        print(f"    contact load/shard (cross split evenly): "
              f"min {min(load):.0f}, max {max(load):.0f}, "
              f"imbalance x{imbalance:.2f}")
    if unmapped:
        print(f"    WARNING: {unmapped} contact(s) touch nodes beyond the map")


def sweep_store_summary(store_dir):
    """Progress/throughput readout for a spool-sweep fragment store.

    The job total comes from the counters line --spool-init writes to
    status.jsonl; completion comes from the frags/ directory. Throughput
    comes from fragment mtimes, so it reflects this run's pace even after a
    restart: fragments from earlier runs keep their old mtimes and fall out
    of the recent window.
    """
    if not os.path.isdir(store_dir):
        raise SystemExit(f"error: sweep store {store_dir!r} is not a directory")
    total = 0
    status_path = os.path.join(store_dir, "status.jsonl")
    try:
        with open(status_path) as f:
            for line in f:
                event = json.loads(line)
                if event.get("kind") == "counters":
                    total = event.get("ctr.sweep.jobs_total", 0)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read {status_path} ({e}); "
                         "is this a --spool-init store?")

    frags = glob.glob(os.path.join(store_dir, "frags", "*.frag"))
    frag_bytes = 0
    mtimes = []
    for path in frags:
        try:
            st = os.stat(path)
        except OSError:
            continue  # raced a rename/cleanup
        frag_bytes += st.st_size
        mtimes.append(st.st_mtime)

    done = len(frags)
    pct = 100.0 * done / total if total else 100.0
    print(f"sweep store {store_dir}:")
    print(f"  jobs: {done}/{total} complete ({pct:.1f}%)")
    print(f"  fragments: {done} file(s), {frag_bytes / 1024.0:.1f} KiB")

    # Rate over the most recent write window: fragments older than 10x the
    # median inter-arrival gap (or a restarted store's pre-crash work) would
    # drag the estimate; a simple span over the newest half avoids that.
    if len(mtimes) >= 2:
        recent = sorted(mtimes)[len(mtimes) // 2:]
        span = recent[-1] - recent[0]
        if len(recent) >= 2 and span > 0:
            rate = (len(recent) - 1) / span
            print(f"  throughput: {rate:.2f} jobs/s "
                  f"(over the newest {len(recent)} fragments)")
            remaining = total - done
            if remaining > 0:
                print(f"  ETA: {remaining / rate:.0f}s for "
                      f"{remaining} remaining job(s)")
            idle = time.time() - max(mtimes)
            if idle > 60 and 0 < done < total:
                print(f"  WARNING: newest fragment is {idle:.0f}s old — "
                      "workers may be stalled or dead (check lease-* files)")


def freshness_timelines(events, only_item=None):
    """Per item: version bumps in order, and each version's arrival delays."""
    # Count each copy's arrival once: prefer `install` events (one per copy
    # entering a store) when the trace carries them, else fall back to
    # `push` (they pair up 1:1 on successful transfers).
    arrival_kind = ("install" if any(e["kind"] == "install" for e in events)
                    else "push")
    bumps = {}  # item -> (version, bump time)
    delays = collections.defaultdict(list)  # (item, version) -> arrival delays
    order = []  # (item, version, bump time) in bump order
    for event in events:
        kind = event["kind"]
        if kind == "version_bump":
            item = event["item"]
            if only_item is not None and item != only_item:
                continue
            bumps[item] = (event["version"], event["t"])
            order.append((item, event["version"], event["t"]))
        elif kind == arrival_kind:
            item = event.get("item")
            if item not in bumps:
                continue
            version, bumped_at = bumps[item]
            if event.get("version") != version:
                continue
            delays[(item, version)].append(event["t"] - bumped_at)
    return order, delays


def summarize(run, events, args):
    # Live peer-daemon traces end with `"kind": "counters"` snapshot lines
    # carrying the registry's ctr.* values; split them out of the event
    # stream (they have no timestamp) and report them separately.
    # A filtered run opens with one `"kind": "trace_filter"` record naming
    # the kinds it kept; it is not an event either.
    counters = collections.Counter()
    kept = None
    for event in events:
        if event["kind"] == "counters":
            for key, value in event.items():
                if key.startswith("ctr."):
                    counters[key] += value
        elif event["kind"] == "trace_filter":
            kept = set(filter(None, event.get("kept", "").split(",")))
    events = [e for e in events if e["kind"] not in ("counters", "trace_filter")]
    print(f"run {run}: {len(events)} event(s)")
    if kept is not None:
        print(f"  trace filter: kept {', '.join(sorted(kept)) or 'nothing'}")

    histogram = collections.Counter(e["kind"] for e in events)
    for kind, count in histogram.most_common():
        print(f"  {kind:<22} {count}")
    print(f"  health: {health_verdict(histogram, events, kept)}")

    contacts, pairs, degree, nodes = pair_sparsity(events)
    if pairs:
        possible = nodes * (nodes - 1) // 2
        degrees = sorted(degree.values())
        print(f"\n  pair sparsity: {len(pairs)} distinct pair(s) over "
              f"{contacts} contact(s), >= {nodes} node(s)")
        if possible:
            print(f"    observed/possible: {len(pairs)}/{possible} "
                  f"({len(pairs) / possible:.3g})")
        print(f"    degree (nodes with contacts): median {median(degrees):.0f}, "
              f"max {degrees[-1]}, mean {2 * len(pairs) / len(degrees):.1f}")

    if args.shard_map_data is not None:
        shard_summary(events, args.shard_map_data)

    order, delays = freshness_timelines(events, args.item)
    if order:
        print("\n  freshness timelines (per version bump; delays in hours):")
        per_item = collections.defaultdict(list)
        for item, version, bumped_at in order:
            per_item[item].append((version, bumped_at))
        for item in sorted(per_item):
            spreads = []
            for version, bumped_at in per_item[item]:
                arrivals = delays.get((item, version), [])
                if not arrivals:
                    continue
                spreads.append(
                    (version, bumped_at, len(arrivals), min(arrivals),
                     median(arrivals), max(arrivals)))
            if args.per_version:
                print(f"    item {item}:")
                for version, bumped_at, n, lo, mid, hi in spreads:
                    print(f"      v{version} @ {hours(bumped_at):8.1f}h: "
                          f"{n} deliveries, first {hours(lo):6.2f}h, "
                          f"median {hours(mid):6.2f}h, last {hours(hi):6.2f}h")
            elif spreads:
                firsts = [s[3] for s in spreads]
                medians = [s[4] for s in spreads]
                lasts = [s[5] for s in spreads]
                copies = sum(s[2] for s in spreads)
                print(f"    item {item}: {len(spreads)} traced version(s), "
                      f"{copies} deliveries; per-version delay "
                      f"first {hours(median(firsts)):.2f}h / "
                      f"median {hours(median(medians)):.2f}h / "
                      f"last {hours(median(lasts)):.2f}h")

    queries = histogram.get("query", 0)
    if queries:
        replies = [e for e in events if e["kind"] == "reply_delivered"]
        fresh = sum(1 for e in replies if e.get("fresh"))
        local = histogram.get("query_local_hit", 0)
        print(f"\n  queries: {queries} issued, {local} local hits, "
              f"{len(replies)} replies delivered ({fresh} fresh)")
        if replies:
            reply_delays = [e["delay"] for e in replies if "delay" in e]
            if reply_delays:
                print(f"  reply delay: median {hours(median(reply_delays)):.2f}h, "
                      f"max {hours(max(reply_delays)):.2f}h")

    if counters:
        print("\n  counters:")
        for key in sorted(counters):
            print(f"    {key:<32} {counters[key]}")
        # Fence-density readout (docs/scaling.md): what fraction of contacts
        # the activity fence classifies as boring (parallelizable), and how
        # many of the remainder are fenced purely by expired content — the
        # population the expiry watermarks reclaim.
        fence = counters.get("ctr.shard.fence_contacts", 0)
        boring = counters.get("ctr.shard.boring_contacts", 0)
        if fence + boring:
            expired_only = counters.get("ctr.shard.fence_from_expired_only", 0)
            print(f"\n  fence density: {fence} fence / {boring} boring "
                  f"(boring fraction {boring / (fence + boring):.3f}); "
                  f"{expired_only} boring contact(s) had an endpoint holding "
                  f"only expired content")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", nargs="?", default=None,
                        help="JSONL trace file, or '-' for stdin")
    parser.add_argument("--item", type=int, default=None,
                        help="restrict freshness timelines to one item id")
    parser.add_argument("--per-version", action="store_true",
                        help="print one timeline row per version bump")
    parser.add_argument("--shard-map", metavar="FILE", default=None,
                        help="node->shard map (one shard id per node, "
                             "node-id order): print per-shard balance and "
                             "the cross-shard contact ratio")
    parser.add_argument("--sweep-store", metavar="DIR", default=None,
                        help="spool-sweep fragment store: print job "
                             "progress, fragment footprint, jobs/s, and ETA")
    args = parser.parse_args()
    args.shard_map_data = (load_shard_map(args.shard_map)
                           if args.shard_map else None)

    if args.sweep_store is not None:
        sweep_store_summary(args.sweep_store)
        if args.trace is None:
            return
        print()
    elif args.trace is None:
        parser.error("need a trace file (or --sweep-store DIR)")

    stream = sys.stdin if args.trace == "-" else open(args.trace)
    with stream:
        runs = load_events(stream)
    if not runs:
        raise SystemExit("no events found")
    for index, (run, events) in enumerate(runs.items()):
        if index:
            print()
        summarize(run, events, args)


if __name__ == "__main__":
    main()
