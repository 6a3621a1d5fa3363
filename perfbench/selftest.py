"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload runs at a tiny size with tracing off and on; every metric
that ``BENCHMARK.json`` names must be emitted with its unit.  The output
checkers must accept real CLI output and reject corrupted copies of it.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

import run

run.import_program()

import checks  # noqa: E402  (needs nlsthermo on the path)
from nlsthermo.cli import main  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "grid": {"ns": (3,), "steps": 21},
    "instance-build": {"ns": (4, 128), "cycle": 2},
    "spin1": {"per_decade": 1, "phases": 2, "example_range": (0.5, 400.0),
              "oracle_range": (0.5, 40.0)},
}


def tiny_bench(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "1",
                           "--seconds", "0.01", "--trace", str(trace)])
    with contextlib.redirect_stdout(io.StringIO()):
        return run.bench(args, TINY[workload])


class WorkloadMetrics(unittest.TestCase):
    def assert_metrics(self, result, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_workload_emits_every_metric(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(TINY))
        for workload in TINY:
            with self.subTest(workload=workload):
                self.assert_metrics(tiny_bench(workload, 0), "end_to_end")
                self.assert_metrics(tiny_bench(workload, 1), "per_layer")

    def test_known_failures_are_counted_not_hidden(self):
        # N = 128 generation fails for every seed; beta0 = 400 overflows
        self.assertGreater(tiny_bench("instance-build", 0)["failed"], 0)
        self.assertGreater(tiny_bench("spin1", 0)["failed"], 0)

    def test_counts_do_not_depend_on_seed(self):
        # a run is whole units, and the seed only orders a unit's ops
        for workload in ("instance-build", "spin1"):
            with self.subTest(workload=workload):
                counts = set()
                for seed in ("1", "2", "5"):
                    args = run.parse_args(["--workload", workload, "--seed", seed,
                                           "--seconds", "0.01", "--trace", "0"])
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = run.bench(args, TINY[workload])
                    counts.add((result["attempted"], result["failed"]))
                self.assertEqual(len(counts), 1, counts)

    def test_bare_directory_fails_without_a_result(self):
        bare = run.OUT / f"bare-{os.getpid()}"
        try:
            shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "grid",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.tmp = run.OUT / f"selftest-{os.getpid()}"
        cls.tmp.mkdir()
        source = ["--random", "4", "--seed", "3", "--steps", "11"]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", *source, "--out", str(cls.tmp / "v.json")]) == 0
            assert main(["sweep", *source, "--out", str(cls.tmp / "s.csv")]) == 0
        cls.report = (cls.tmp / "v.json").read_text()
        cls.csv = (cls.tmp / "s.csv").read_text()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def corrupt_report(self, edit):
        report = json.loads(self.report)
        edit(report)
        return json.dumps(report, indent=2) + "\n"

    def test_report_accepted(self):
        self.assertIsNone(checks.check_verify(self.report, 11))

    def test_corrupted_reports_rejected(self):
        def flip_holds(r):
            r["checks"][0]["holds"] = not r["checks"][0]["holds"]

        def fail_overall(r):
            r["overall_pass"] = False

        def shift_slack(r):
            r["checks"][1]["slack"] += 1e-3

        def violated_but_holds(r):
            check = r["checks"][2]
            check["lhs"] = check["rhs"] + 1.0
            check["slack"] = check["rhs"] - check["lhs"]

        for edit in (flip_holds, fail_overall, shift_slack, violated_but_holds):
            with self.subTest(edit=edit.__name__):
                self.assertIsNotNone(checks.check_verify(self.corrupt_report(edit), 11))
        self.assertIsNotNone(checks.check_verify(self.report[:-40], 11))
        self.assertIsNotNone(checks.check_verify(self.report, 12))

    def test_csv_accepted(self):
        self.assertIsNone(checks.check_sweep(self.csv, 11))

    def test_corrupted_csvs_rejected(self):
        lines = self.csv.splitlines()
        beta, beta_dq, beta0_dq, ds = lines[1].split(",")
        dropped = "\n".join(lines[:-1]) + "\n"
        swapped = "\n".join([lines[0], f"{beta},{ds},{beta0_dq},{beta_dq}", *lines[2:]]) + "\n"
        short = "\n".join([lines[0], f"{float(beta):.6e},{beta_dq},{beta0_dq},{ds}",
                           *lines[2:]]) + "\n"
        reordered = "\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n"
        for name, text in (("dropped row", dropped), ("Clausius ordering", swapped),
                           ("6-digit field", short), ("grid order", reordered)):
            with self.subTest(name):
                self.assertIsNotNone(checks.check_sweep(text, 11))


if __name__ == "__main__":
    unittest.main()
