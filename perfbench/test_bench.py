#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_bench.py

Runs every workload in --smoke mode (tiny sizes, well under a second of
measurement) through perfbench/run.py, untraced and traced, and checks:

  - the result line names exactly the metrics BENCHMARK.json declares,
    each with its declared unit, and the table above it prints each
    end-to-end metric with that unit;
  - every self-check passed (correct, failed == 0, exit code 0);
  - the traced run wrote a Chrome trace;
  - the same seed reproduces macro_replay's depth counts exactly, and a
    different seed changes them.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("macro_replay", "zipf_convoy", "sessions_open", "txn_validated")


def run_bench(workload, seed=3, trace=0, seconds=0.3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


def depth_counts(lines):
    for line in lines:
        if line.startswith("digest macro_replay.depth_counts"):
            return [int(x) for x in line.split()[2:]]
    raise AssertionError("no depth-count digest printed")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, proc, result, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_metrics_and_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, lines, result = run_bench(workload)
                self.check_result(proc, result, self.spec["end_to_end"])
                for metric in self.spec["end_to_end"]:
                    row = [l.split() for l in lines if l.startswith(metric["name"] + " ")]
                    self.assertTrue(row, metric["name"])
                    self.assertEqual(row[0][2], metric["unit"], metric["name"])
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_traced_metrics_and_trace_file(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                trace = os.path.join(ROOT, ".bench_build", "traces", workload + ".json")
                if os.path.exists(trace):
                    os.remove(trace)
                proc, lines, result = run_bench(workload, trace=1, seconds=0.6)
                self.check_result(proc, result, self.spec["per_layer"])
                self.assertIn("trace.overhead_frac", result["metrics"])
                self.assertTrue(os.path.getsize(trace) > 0)

    def test_seed_determines_macro_inputs(self):
        first = depth_counts(run_bench("macro_replay", seed=11)[1])
        again = depth_counts(run_bench("macro_replay", seed=11)[1])
        other = depth_counts(run_bench("macro_replay", seed=12)[1])
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
