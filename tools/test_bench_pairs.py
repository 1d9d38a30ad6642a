#!/usr/bin/env python3
"""Tests for bench_pairs.py's summary: canned run lines in, medians,
quartiles, ratios and win counts out, in each metric's own direction.

  python3 tools/test_bench_pairs.py
"""
import io
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

METRICS = [("ops_per_s", "higher"), ("p50_us", "lower")]

# Four pairs of one workload: the change is faster in pairs 1-3 and slower
# in pair 4; its p50 is lower in pairs 1 and 2 and tied in pair 3.
CANNED = """\
build chatter that is not a run line
run workload=fanin_bulk pair=1 side=base order=1 exit=0 failed=0 ops_per_s=100 p50_us=2.0
run workload=fanin_bulk pair=1 side=change order=2 exit=0 failed=0 ops_per_s=110 p50_us=1.5
run workload=fanin_bulk pair=2 side=change order=1 exit=0 failed=0 ops_per_s=120 p50_us=1.5
run workload=fanin_bulk pair=2 side=base order=2 exit=0 failed=0 ops_per_s=102 p50_us=1.75
run workload=fanin_bulk pair=3 side=base order=1 exit=0 failed=0 ops_per_s=104 p50_us=1.5
run workload=fanin_bulk pair=3 side=change order=2 exit=0 failed=0 ops_per_s=130 p50_us=1.5
run workload=fanin_bulk pair=4 side=change order=1 exit=0 failed=0 ops_per_s=90 p50_us=2.5
run workload=fanin_bulk pair=4 side=base order=2 exit=0 failed=0 ops_per_s=106 p50_us=2.0
run workload=rpc_high pair=1 side=base order=1 exit=0 failed=0 ops_per_s=5
"""


def rows_by_metric(table, workload):
    return {row["metric"]: row for row in table[workload]}


class Summary(unittest.TestCase):
    def setUp(self):
        runs = [r for r in map(bench_pairs.parse_run, io.StringIO(CANNED))
                if r is not None]
        self.assertEqual(len(runs), 9)
        self.table = bench_pairs.summarize(runs, METRICS)

    def test_medians_and_quartiles(self):
        ops = rows_by_metric(self.table, "fanin_bulk")["ops_per_s"]
        # base 100, 102, 104, 106; change 90, 110, 120, 130
        self.assertEqual(ops["base"], (103.0, 101.5, 104.5, 4))
        self.assertEqual(ops["change"], (115.0, 105.0, 122.5, 4))
        self.assertAlmostEqual(ops["ratio"], 115.0 / 103.0)

    def test_wins_follow_the_metric_direction(self):
        rows = rows_by_metric(self.table, "fanin_bulk")
        self.assertEqual((rows["ops_per_s"]["wins"],
                          rows["ops_per_s"]["pairs"]), (3, 4))
        # lower is better; the tie in pair 3 is not a win
        self.assertEqual((rows["p50_us"]["wins"], rows["p50_us"]["pairs"]),
                         (2, 4))

    def test_a_side_without_runs_has_no_stats_and_no_pairs(self):
        ops = rows_by_metric(self.table, "rpc_high")["ops_per_s"]
        self.assertEqual(ops["base"], (5.0, 5.0, 5.0, 1))
        self.assertIsNone(ops["change"])
        self.assertIsNone(ops["ratio"])
        self.assertEqual((ops["wins"], ops["pairs"]), (0, 0))
        # a metric no run reported is left out
        self.assertNotIn("p50_us", rows_by_metric(self.table, "rpc_high"))

    def test_a_printed_run_parses_back(self):
        run = {"workload": "mpmc_pairs", "pair": 3, "side": "change",
               "order": 1, "exit": 0, "failed": 0,
               "metrics": {"ops_per_s": 9.4e6, "p90_us": 13.85}}
        self.assertEqual(bench_pairs.parse_run(bench_pairs.format_run(run)),
                         run)

    def test_malformed_lines_are_refused(self):
        for line in ("run pair=1 side=base ops_per_s=1",
                     "run workload=w pair=1 side=other ops_per_s=1",
                     "run workload=w pair=1 side=base ops_per_s"):
            with self.assertRaises(ValueError, msg=line):
                bench_pairs.parse_run(line)


class Cli(unittest.TestCase):
    """--summarize end to end, against the repository's BENCHMARK.json."""

    def run_tool(self, stdin):
        return subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "bench_pairs.py"),
             "--summarize", "-"], input=stdin, capture_output=True, text=True)

    def test_summarize_prints_every_metric_and_no_verdict(self):
        p = self.run_tool(CANNED)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("summary fanin_bulk", p.stdout)
        self.assertIn("ops_per_s", p.stdout)
        self.assertIn("wins 3/4", p.stdout)
        for word in ("PASS", "FAIL", "regress", "verdict"):
            self.assertNotIn(word, p.stdout)

    def test_input_without_run_lines_is_a_usage_error(self):
        self.assertEqual(self.run_tool("nothing here\n").returncode, 2)


if __name__ == "__main__":
    unittest.main()
