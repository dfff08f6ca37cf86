#!/usr/bin/env python3
"""The paper's shapes, asserted on the committed BENCH artifacts.

  - BENCH_fastpath.json: the §3.3 cost ordering of the median CPU times,
    nested < first-lock < CAS-unlock < hot < fat < cache.
  - BENCH_matrix.json: ThinLock has the lowest ns_per_op on
    uncontended_pair, multisync_64 and multisync_512, and JDK111 costs at
    least 3x ThinLock on uncontended_pair (the paper's Sync: 3.7x).

Each check also runs on a doctored copy of its file, where it must fail.
These are claims about full-size runs, not gate rules: at --smoke scale
the first cell runs cold and the margins do not hold.
"""

import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Cheapest first.
FASTPATH_ORDER = [
    ("nested", "FastPath_ThinNestedPair"),
    ("first-lock", "FastPath_ThinLockPair"),
    ("CAS-unlock", "FastPath_ThinLockPairCasUnlock"),
    ("hot", "FastPath_HotLockPair"),
    ("fat", "FastPath_InflatedPair"),
    ("cache", "FastPath_MonitorCachePair"),
]
THINLOCK_LEADS_ON = ("uncontended_pair", "multisync_64", "multisync_512")
JDK111_MIN_RATIO = 3.0


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def medians(doc):
    return {b["run_name"]: b["cpu_time"] for b in doc["benchmarks"]
            if b.get("aggregate_name") == "median"}


def fastpath_order_errors(doc):
    cost = medians(doc)
    pairs = zip(FASTPATH_ORDER, FASTPATH_ORDER[1:])
    return [f"{a} ({cost[x]:.1f} ns) is not cheaper than {b} "
            f"({cost[y]:.1f} ns)"
            for (a, x), (b, y) in pairs if not cost[x] < cost[y]]


def ns_per_op(doc):
    return {(r["protocol"], r["workload"]): r["ns_per_op"]
            for r in doc["rows"]}


def thinlock_lead_errors(doc):
    cost = ns_per_op(doc)
    errors = []
    for workload in THINLOCK_LEADS_ON:
        best = min(doc["protocols"], key=lambda p: cost[p, workload])
        if best != "ThinLock":
            errors.append(f"{best} beats ThinLock on {workload}")
    return errors


def jdk111_ratio_errors(doc):
    cost = ns_per_op(doc)
    ratio = (cost["JDK111", "uncontended_pair"] /
             cost["ThinLock", "uncontended_pair"])
    if ratio < JDK111_MIN_RATIO:
        return [f"JDK111 costs only {ratio:.2f}x ThinLock on uncontended_pair"]
    return []


def set_median(doc, run_name, cpu_time):
    for b in doc["benchmarks"]:
        if b["run_name"] == run_name and b.get("aggregate_name") == "median":
            b["cpu_time"] = cpu_time


def set_cost(doc, protocol, workload, value):
    for r in doc["rows"]:
        if (r["protocol"], r["workload"]) == (protocol, workload):
            r["ns_per_op"] = value


class PaperShapes(unittest.TestCase):
    def test_fastpath_cost_ordering_holds(self):
        self.assertEqual(fastpath_order_errors(load("BENCH_fastpath.json")),
                         [])

    def test_fastpath_ordering_check_catches_a_swap(self):
        doc = load("BENCH_fastpath.json")
        fat = medians(doc)["FastPath_InflatedPair"]
        set_median(doc, "FastPath_HotLockPair", fat + 1)
        self.assertEqual(len(fastpath_order_errors(doc)), 1)

    def test_thinlock_is_cheapest_on_the_uncontended_workloads(self):
        self.assertEqual(thinlock_lead_errors(load("BENCH_matrix.json")), [])

    def test_thinlock_lead_check_catches_a_cheaper_rival(self):
        doc = load("BENCH_matrix.json")
        thin = ns_per_op(doc)["ThinLock", "multisync_512"]
        set_cost(doc, "IBM112", "multisync_512", thin - 0.5)
        self.assertEqual(thinlock_lead_errors(doc),
                         ["IBM112 beats ThinLock on multisync_512"])

    def test_jdk111_costs_at_least_3x_thinlock(self):
        self.assertEqual(jdk111_ratio_errors(load("BENCH_matrix.json")), [])

    def test_jdk111_ratio_check_catches_a_narrow_lead(self):
        doc = load("BENCH_matrix.json")
        thin = ns_per_op(doc)["ThinLock", "uncontended_pair"]
        set_cost(doc, "JDK111", "uncontended_pair", thin * 2.9)
        self.assertEqual(len(jdk111_ratio_errors(doc)), 1)


if __name__ == "__main__":
    unittest.main()
