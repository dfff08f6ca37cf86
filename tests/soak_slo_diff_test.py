#!/usr/bin/env python3
"""tools/soak_slo_diff.py's verdicts on canned soak documents, through its
command line.

Runs no soak: each case writes a baseline and a candidate built from one
document shaped like BENCH_soak.json.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIFF = os.path.join(ROOT, "tools", "soak_slo_diff.py")


def quantiles(p50, p99, p999):
    return {"count": 3000, "p50_ns": p50, "p99_ns": p99, "p999_ns": p999,
            "max_ns": p999, "mean_ns": p50}


SOAK = {"schema": "thinlocks-bench-soak-v1", "build_type": "release",
        "config": {"protocol": "ThinLock", "rate_per_s": 300.0,
                   "workers": 3, "chaos": False, "adaptive": True},
        "slo": {"protocol": "ThinLock",
                "acquire": quantiles(111, 2303, 9000),
                "session": quantiles(150000, 9960000, 12000000),
                "dispatch": quantiles(60000, 240000, 2000000),
                "wake": quantiles(17000, 220000, 1900000),
                "requests_per_s": 5000.0, "sessions_per_s": 300.0,
                "shed_rate": 0.0, "monitor_exhaustion_events": 0,
                "registry_exhaustion_events": 0, "emergency_inflations": 0},
        "policy": {"ticks": 1000, "speculative_deflations": 0}}


def doctored(edit):
    copy = json.loads(json.dumps(SOAK))
    edit(copy)
    return copy


class SoakSloDiff(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def diff(self, candidate):
        paths = []
        for name, doc in (("base.json", SOAK), ("cand.json", candidate)):
            paths.append(os.path.join(self.dir.name, name))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        return subprocess.run([sys.executable, DIFF, *paths],
                              capture_output=True, text=True)

    def test_identical_documents_pass(self):
        result = self.diff(SOAK)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("no SLO regressions", result.stdout)
        self.assertIn("dispatch.p50_ns", result.stdout)

    def test_doubled_session_p50_fails(self):
        result = self.diff(doctored(
            lambda d: d["slo"]["session"].update(p50_ns=300000)))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("session.p50_ns: 150000 -> 300000", result.stderr)

    def test_adaptive_mismatch_fails(self):
        result = self.diff(doctored(
            lambda d: d["config"].update(adaptive=False)))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("config mismatch on 'adaptive'", result.stderr)

    def test_missing_dispatch_fails_with_a_message(self):
        result = self.diff(doctored(lambda d: d["slo"].pop("dispatch")))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("histogram 'dispatch' missing from candidate",
                      result.stderr)
        self.assertNotIn("Traceback", result.stderr)


if __name__ == "__main__":
    unittest.main()
