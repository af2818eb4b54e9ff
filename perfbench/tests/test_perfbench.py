#!/usr/bin/env python3
"""Tests of the benchmark itself: metric names, the results file, and that a
deliberately broken output check fails the run.

    python3 perfbench/tests/test_perfbench.py

Each test builds the benchmark if needed (via run.py) and runs short
workloads, so the whole file takes about a minute.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload, seed, trace, *extra, seconds=1):
    """Run one workload; returns (exit code, parsed last line, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    return proc.returncode, json.loads(last), proc.stdout


def results_path(workload, seed, trace):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench", "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))


class MetricNames(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_runs_emit_exactly_the_declared_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run("model_sweep", 5, trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(emitted, declared)
            for name in emitted:
                self.assertRegex(name, NAME)


class ResultsFile(unittest.TestCase):
    def test_round_trips_and_matches_the_result_line(self):
        code, result, _ = run("screening", 3, 0)
        self.assertEqual(code, 0)
        with open(results_path("screening", 3, 0)) as f:
            text = f.read()
        record = json.loads(text)
        self.assertEqual(json.loads(json.dumps(record)), record)
        for key in ("correct", "attempted", "failed", "metrics"):
            self.assertEqual(record[key], result[key])
        for key in ("cpu_model", "nproc", "sha_tier", "scheduler",
                    "loadavg_start", "loadavg_end"):
            self.assertIn(key, record["host"])
        self.assertGreater(record["counters"]["trials"], 0)


class BrokenChecksFail(unittest.TestCase):
    def assert_fails(self, workload, what, trace=0):
        code, result, out = run(workload, 2, trace, "--break-check", what)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("check: FAIL", out)

    def test_corrupted_fingerprint(self):
        self.assert_fails("screening", "fingerprint")

    def test_wrong_analytic_value_lifetime(self):
        self.assert_fails("lifetime", "analytic")

    def test_wrong_analytic_value_model_sweep(self):
        self.assert_fails("model_sweep", "analytic")

    def test_traced_runs_check_their_outputs_too(self):
        self.assert_fails("lifetime", "analytic", trace=1)
        self.assert_fails("screening", "fingerprint", trace=1)
        self.assert_fails("model_sweep", "analytic", trace=1)


if __name__ == "__main__":
    unittest.main()
