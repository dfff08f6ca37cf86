#!/usr/bin/env python3
"""tools/bench_gate.py accepts one valid and refuses one broken document of
each kind, through its command line.

The broken matrix and txn documents are the off-schema grids that the
run_benches fail-fast scenarios G and H2 publish from stub drivers.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "tools", "bench_gate.py")


def gbench(build_type="release"):
    return {"context": {"thinlocks_build_type": build_type},
            "benchmarks": [{"name": "FastPath_X", "real_time": 1.0,
                            "suite": "bench_fastpath"}]}


def grid(schema, axis, key, values, extra):
    protocols = ["ThinLock", "JDK111", "IBM112", "EagerMonitor", "Fissile"]
    return {"schema": schema, "build_type": "release",
            "protocols": protocols, axis: values,
            "rows": [dict({"protocol": p, "protocol_impl": p, key: v}, **extra)
                     for p in protocols for v in values]}


MATRIX = grid("thinlocks-bench-matrix-v1", "workloads", "workload",
              ["uncontended_pair", "multisync_64", "zipf_convoy"],
              {"ops": 10, "elapsed_ns": 20, "ns_per_op": 2.0})
TXN = grid("thinlocks-bench-txn-v1", "policies", "policy",
           ["NoWait", "WaitDie", "Validated"],
           {"started": 10, "committed": 9, "aborted": 1,
            "commits_per_sec": 5.0, "abort_p99_ns": 1, "commit_p99_ns": 2,
            "consistency_violations": 0, "attach_failures": 0})
QUANTILES = {"p50_ns": 1, "p99_ns": 2, "p999_ns": 3, "max_ns": 4}
SOAK = {"schema": "thinlocks-bench-soak-v1", "build_type": "release",
        "config": {"protocol": "ThinLock", "chaos": False, "adaptive": True},
        "slo": {"protocol": "ThinLock", "acquire": QUANTILES,
                "session": QUANTILES, "dispatch": QUANTILES,
                "wake": QUANTILES,
                "sessions_offered": 5, "sessions_completed": 4,
                "sessions_shed": 1, "final_level": 0},
        "policy": {"ticks": 3}}
TRACE = {"displayTimeUnit": "ms", "traceEvents": [
    {"name": "ContendedAcquire", "cat": "lock", "ph": "X", "ts": 0.5,
     "dur": 1.25, "pid": 1, "tid": 2},
    {"name": "Inflate", "cat": "lock", "ph": "i", "ts": 2, "s": "t",
     "pid": 1, "tid": 2}]}

# Failfast scenario G: three protocols, one row.
MATRIX_G = {"schema": "thinlocks-bench-matrix-v1", "build_type": "release",
            "protocols": ["A", "B", "C"], "workloads": ["w1", "w2", "w3"],
            "rows": [{"protocol": "A", "protocol_impl": "A", "workload": "w1",
                      "ops": 1, "elapsed_ns": 1, "ns_per_op": 1.0}]}
# Failfast scenario H2: an incomplete grid whose one cell loses a txn.
TXN_H2 = {"schema": "thinlocks-bench-txn-v1", "build_type": "release",
          "protocols": ["A", "B", "C", "D", "E"],
          "policies": ["NoWait", "WaitDie", "Validated"],
          "rows": [{"protocol": "A", "protocol_impl": "A", "policy": "NoWait",
                    "started": 10, "committed": 4, "aborted": 5,
                    "commits_per_sec": 1.0, "consistency_violations": 0,
                    "abort_p99_ns": 1, "commit_p99_ns": 1}]}


def doctored(doc, edit):
    copy = json.loads(json.dumps(doc))
    edit(copy)
    return copy


VALID = {"gbench": gbench(), "matrix": MATRIX, "txn": TXN, "soak": SOAK,
         "trace": TRACE}
BROKEN = {
    "gbench": gbench("debug"),
    "matrix": MATRIX_G,
    "txn": TXN_H2,
    "soak": doctored(SOAK, lambda d: d["slo"].update(sessions_shed=0)),
    "trace": doctored(TRACE, lambda d: d["traceEvents"][0].pop("dur")),
}


class BenchGate(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def gate(self, *args):
        return subprocess.run([sys.executable, GATE, *args],
                              capture_output=True, text=True)

    def test_each_kind_valid_passes_and_broken_is_refused(self):
        for kind in VALID:
            with self.subTest(kind=kind):
                ok = self.gate("check", self.write("ok.json", VALID[kind]))
                self.assertEqual(ok.returncode, 0, ok.stderr)
                bad = self.gate("check", self.write("bad.json", BROKEN[kind]))
                self.assertEqual(bad.returncode, 1, bad.stderr)
                self.assertIn("refused", bad.stderr)

    def test_debug_driver_artifacts_are_refused(self):
        for kind in ("matrix", "txn", "soak"):
            with self.subTest(kind=kind):
                doc = doctored(VALID[kind],
                               lambda d: d.update(build_type="debug"))
                result = self.gate("check", self.write("debug.json", doc))
                self.assertEqual(result.returncode, 1)
                self.assertIn("not 'release'", result.stderr)

    def test_soak_dispatch_above_session_or_missing_is_refused(self):
        late = {"p50_ns": 3, "p99_ns": 3, "p999_ns": 3, "max_ns": 4}
        for name, edit, why in (
                ("late.json", lambda d: d["slo"].update(dispatch=late),
                 "dispatch p50 is above session p50"),
                ("bare.json", lambda d: d["slo"].pop("dispatch"),
                 "KeyError('dispatch')")):
            with self.subTest(name=name):
                doc = doctored(SOAK, edit)
                result = self.gate("check", self.write(name, doc))
                self.assertEqual(result.returncode, 1, result.stderr)
                self.assertIn(why, result.stderr)

    def test_unknown_and_malformed_documents_are_refused(self):
        for name, doc in (("unknown.json", {"schema": "other"}),
                          ("list.json", [1]), ("torn.json", '{"a": ')):
            with self.subTest(name=name):
                result = self.gate("check", self.write(name, doc))
                self.assertEqual(result.returncode, 1, result.stderr)

    def test_one_refusal_fails_the_whole_call(self):
        result = self.gate("check", self.write("a.json", MATRIX),
                           self.write("b.json", BROKEN["soak"]),
                           self.write("c.json", TRACE))
        self.assertEqual(result.returncode, 1)
        self.assertEqual(result.stderr.count("ok: "), 2, result.stderr)

    def test_merge_tags_suites_and_marks_mixed_build_types(self):
        fast = self.write("bench_fastpath.json", gbench())
        wake = self.write("bench_wakeup.json", gbench("debug"))
        out = os.path.join(self.dir.name, "merged.json")
        self.assertEqual(self.gate("merge", out, fast).returncode, 0)
        with open(out) as f:
            merged = json.load(f)
        self.assertEqual(merged["benchmarks"][0]["suite"], "bench_fastpath")
        self.assertEqual(self.gate("check", out).returncode, 0)
        self.assertEqual(self.gate("merge", out, fast, wake).returncode, 0)
        with open(out) as f:
            merged = json.load(f)
        self.assertEqual(merged["context"]["thinlocks_build_type"], "mixed")
        self.assertEqual(len(merged["benchmarks"]), 2)
        self.assertEqual(self.gate("check", out).returncode, 1)


if __name__ == "__main__":
    unittest.main()
