#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on shrunken workloads (--smoke).

Run from the root of a checkout:  python3 perfbench/test_smoke.py

Checks, for every workload: each metric BENCHMARK.json names is printed with
its unit (untraced and traced), results_digest repeats across invocations
and between the traced and untraced runs, and a corrupted result row is
counted as failed. Also checks that every metric is documented in
metrics.json, and that the benchmark refuses DTNCACHE_* overrides and a
directory without the simulator sources. Takes under a minute on 4 cores
once built (the first run builds).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "reality_churn", "mobility_50k")


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def parse(proc):
    """The first driver process's report, the number of processes, the result."""
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().split("\n")
    reports = [json.loads(l)["report"] for l in lines if l.startswith('{"report"')]
    return reports[0], len(reports), json.loads(lines[-1])


def spec_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, section):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, spec_units(section))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, _, r1 = parse(bench(w, 0))
                second, _, r2 = parse(bench(w, 0))
                traced, _, rt = parse(bench(w, 1))
                for result in (r1, r2, rt):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(r1, "end_to_end")
                self.check_metrics(rt, "per_layer")
                self.assertEqual(first["results_digest"], second["results_digest"])
                self.assertEqual(first["results_digest"], traced["results_digest"])
                self.assertEqual(first["fail_fraction"], {"value": 0, "unit": "ratio"})
                self.assertEqual(first["host"]["build_type"], "Release")

    def test_corrupted_row_is_counted(self):
        # Row 0 is a Hierarchical row, so the damage fails no other row of its cell.
        report, processes, result = parse(bench("paper_grid", 0, "--corrupt-row", "0"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], processes)
        self.assertGreater(report["fail_fraction"]["value"], 0)

    def test_every_metric_is_documented(self):
        with open(os.path.join(HERE, "metrics.json")) as f:
            docs = json.load(f)
        for section in ("end_to_end", "per_layer"):
            self.assertLessEqual(set(spec_units(section)), set(docs[section]), section)
        for layer in docs["per_layer"].values():
            self.assertLessEqual(set(layer["moves"]), set(spec_units("end_to_end")))

    def test_refuses_dtncache_overrides(self):
        env = dict(os.environ, DTNCACHE_SHARDS="2")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               "mobility_50k", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("DTNCACHE_SHARDS", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("paper_grid", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
