#!/usr/bin/env python3
"""tools/perf_ab.py's statistics and verdicts on canned numbers.

Builds and runs nothing: each case feeds paired values straight into the
functions that the tool applies to real runs.
"""

import importlib.util
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # Leave no __pycache__ in tools/.
SPEC = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(ROOT, "tools", "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_ab)


class Statistics(unittest.TestCase):
    def test_median_and_iqr_fraction(self):
        med, iqr = perf_ab.median_iqr([5, 1, 4, 2, 3])
        self.assertEqual(med, 3)
        self.assertAlmostEqual(iqr, (4 - 2) / 3)

    def test_even_count_interpolates(self):
        med, iqr = perf_ab.median_iqr([10, 20, 30, 40])
        self.assertEqual(med, 25)
        self.assertAlmostEqual(iqr, (32.5 - 17.5) / 25)

    def test_one_value_and_zero_median(self):
        self.assertEqual(perf_ab.median_iqr([7]), (7, 0.0))
        self.assertEqual(perf_ab.median_iqr([0, 0, 0]), (0, 0.0))

    def test_ties_count_for_neither_side(self):
        c = perf_ab.compare([1, 1, 2, 5], [1, 2, 1, 5], "higher", 0.25)
        self.assertEqual((c["wins"], c["losses"]), (1, 1))

    def test_direction_decides_who_wins(self):
        base, change = [10, 10, 10], [8, 8, 8]
        self.assertEqual(perf_ab.compare(base, change, "lower", 0.25)["wins"],
                         3)
        self.assertEqual(perf_ab.compare(base, change, "higher", 0.25)["wins"],
                         0)
        self.assertAlmostEqual(
            perf_ab.compare(base, change, "lower", 0.25)["gain"], 0.2)
        self.assertAlmostEqual(
            perf_ab.compare(base, change, "higher", 0.25)["gain"], -0.2)

    def test_zero_base_median_gain(self):
        self.assertEqual(perf_ab.relative_gain(0, 0, "lower"), 0.0)
        self.assertEqual(perf_ab.relative_gain(0, 1, "lower"), float("-inf"))
        self.assertEqual(perf_ab.relative_gain(0, 1, "higher"), float("inf"))


BASE = [3.90, 3.95, 3.98, 4.00, 4.02, 3.97, 3.93, 4.05, 3.99, 3.96]


class Verdicts(unittest.TestCase):
    def verdict(self, base, change, better="higher", bound=0.25):
        return perf_ab.compare(base, change, better, bound)["verdict"]

    def test_better_needs_nine_of_ten_and_more_than_base_iqr(self):
        change = [v * 1.2 for v in BASE]
        self.assertEqual(self.verdict(BASE, change), "better")
        # Nine wins of ten still suffice.
        nine = change[:9] + [BASE[9] * 0.9]
        self.assertEqual(self.verdict(BASE, nine), "better")
        # Eight do not.
        eight = change[:8] + [BASE[8] * 0.9, BASE[9] * 0.9]
        self.assertEqual(self.verdict(BASE, eight), "within")

    def test_better_needs_gain_above_base_iqr(self):
        _, iqr = perf_ab.median_iqr(BASE)
        # Every pair won, but by less than the parent's spread.
        change = [v * (1 + iqr / 2) for v in BASE]
        self.assertEqual(self.verdict(BASE, change), "within")

    def test_better_for_a_lower_is_better_metric(self):
        change = [v * 0.8 for v in BASE]
        self.assertEqual(self.verdict(BASE, change, "lower"), "better")
        self.assertEqual(self.verdict(BASE, change, "higher"), "within")

    def test_unresolved_when_an_iqr_exceeds_the_bound(self):
        wide = [1.0, 5.0, 1.2, 4.8, 1.1, 5.2, 0.9, 4.9, 1.0, 5.1]
        self.assertEqual(self.verdict(wide, [3.0] * 10), "unresolved")
        # The change's own spread counts too, even on a median 40% worse.
        self.assertEqual(self.verdict([3.0] * 10, [v * 0.6 for v in wide]),
                         "unresolved")

    def test_wide_but_separated_runs_are_resolved(self):
        wide = [1.0, 1.5, 1.1, 1.6, 1.2, 1.4, 1.0, 1.6, 1.3, 1.5]
        above = [1.61, 1.75, 1.62, 1.74, 1.66, 1.70, 1.63, 1.72, 1.68, 1.69]
        _, iqr = perf_ab.median_iqr(wide)
        c = perf_ab.compare(wide, above, "higher", 0.25)
        self.assertGreater(iqr, 0.25)
        self.assertLess(c["gain"], iqr)
        # Every change run beats every base run, by less than the base's
        # spread: resolved, but not better.
        self.assertEqual(c["verdict"], "within")
        # Every change run losing to every base run is still unresolved.
        self.assertEqual(self.verdict(above, wide), "unresolved")

    def test_better_is_checked_before_unresolved(self):
        wide = [1.0, 1.6, 1.1, 1.7, 1.0, 1.6, 1.1, 1.7, 1.0, 1.6]
        change = [v * 2 for v in wide]
        self.assertGreater(perf_ab.median_iqr(wide)[1], 0.25)
        self.assertEqual(self.verdict(wide, change), "better")

    def test_worse_beyond_the_bound(self):
        self.assertEqual(self.verdict(BASE, [v * 0.7 for v in BASE]), "worse")
        self.assertEqual(self.verdict(BASE, [v * 1.3 for v in BASE], "lower"),
                         "worse")
        # peak_rss_mb's 5% bound: 6% more memory is worse, 4% is within.
        self.assertEqual(
            self.verdict(BASE, [v * 1.06 for v in BASE], "lower", 0.05),
            "worse")
        self.assertEqual(
            self.verdict(BASE, [v * 1.04 for v in BASE], "lower", 0.05),
            "within")

    def test_within_for_a_small_shift(self):
        self.assertEqual(self.verdict(BASE, [v * 0.95 for v in BASE]),
                         "within")
        self.assertEqual(self.verdict(BASE, list(BASE)), "within")


class Runs(unittest.TestCase):
    def test_run_failed(self):
        self.assertFalse(perf_ab.run_failed({"correct": True, "failed": 0}))
        self.assertTrue(perf_ab.run_failed({"correct": False, "failed": 0}))
        self.assertTrue(perf_ab.run_failed({"correct": True, "failed": 2}))

    def test_parse_result_takes_stamp_and_last_line(self):
        out = ('perfbench: nproc=4 commit=none\nprogress\n'
               '{"correct": true, "attempted": 5, "failed": 0, '
               '"metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"}}}\n')
        stamp, result = perf_ab.parse_result(out)
        self.assertEqual(stamp, "perfbench: nproc=4 commit=none")
        self.assertEqual(result["metrics"]["ops_per_s"]["value"], 2.5)
        self.assertIsNone(perf_ab.parse_result("stamp\nnot json\n")[1])
        self.assertIsNone(perf_ab.parse_result("stamp\n[1, 2]\n")[1])
        self.assertIsNone(perf_ab.parse_result("")[1])

    def test_reads_the_committed_benchmark(self):
        command, seconds, workloads, metrics = perf_ab.load_benchmark(
            os.path.join(ROOT, "BENCHMARK.json"))
        self.assertTrue(command)
        self.assertGreater(seconds, 0)
        self.assertIn("txn_validated", workloads)
        by_name = {name: (better, bound) for name, better, bound in metrics}
        self.assertEqual(by_name["ops_per_s"][0], "higher")
        self.assertEqual(by_name["peak_rss_mb"][0], "lower")
        self.assertTrue(all(bound > 0 for _, bound in by_name.values()))

    def test_report_has_one_row_per_metric(self):
        rows = [("ops_per_s",
                 perf_ab.compare(BASE, [v * 1.2 for v in BASE], "higher",
                                 0.25)),
                ("peak_rss_mb",
                 perf_ab.compare(BASE, list(BASE), "lower", 0.05))]
        text = perf_ab.format_report("txn_validated", list(range(5, 15)),
                                     rows)
        lines = text.splitlines()
        self.assertIn("seeds 5-14", lines[0])
        self.assertEqual(len(lines), 4)
        self.assertTrue(lines[2].startswith("ops_per_s"))
        self.assertTrue(lines[2].endswith("better"))
        self.assertIn("10/10", lines[2])
        self.assertTrue(lines[3].endswith("within"))


if __name__ == "__main__":
    sys.exit(unittest.main())
