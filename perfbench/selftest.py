#!/usr/bin/env python3
"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py

Runs every workload at the ``--smoke`` size, untraced and traced, and
checks that the result line names every metric of ``BENCHMARK.json`` with
its unit; that the output checker counts a report with one mutated
``min_slack`` as a failed operation; and that the benchmark refuses to run
in a tree that holds only ``BENCHMARK.json`` and the benchmark itself.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int, section: str) -> dict:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        # human-readable lines: workload, name, value, unit, ...
        printed = {tuple(line.split()[1:4:2]) for line in lines[:-2]}
        for name, unit in want.items():
            self.assertTrue(math.isfinite(result["metrics"][name]["value"]), name)
            self.assertIn((name, unit), printed)
        self.assertIn("failed_ops_ratio", proc.stdout)
        return json.loads(lines[-2])

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                info = self.check_run(w["name"], 0, "end_to_end")
                self.assertEqual(info["seed"], 3)
                for key in ("cpu", "nproc", "python", "numpy", "blas", "lapack",
                            "loadavg_start", "loadavg_end"):
                    self.assertIn(key, info["env"])
            with self.subTest(workload=w["name"], trace=1):
                info = self.check_run(w["name"], 1, "per_layer")
                self.assertTrue(info["detail"]["counts_repeat"])


class Checker(unittest.TestCase):
    def test_mutated_min_slack_is_a_failed_operation(self):
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        import checks
        import run
        from meancert import runner
        run.OUT.mkdir(exist_ok=True)
        b = run.Bench(run.workloads(smoke=True)["op-sweep"], seed=5)
        try:
            self.assertIsNotNone(b.sweep())
        finally:
            Path(b.report_path).unlink(missing_ok=True)
        self.assertEqual(b.failed, 0, b.problems)
        report = json.loads(json.dumps(b.reference))
        case = report["cases"][0]
        case["min_slack"] = math.nextafter(case["min_slack"], math.inf)
        b.record(checks.replay_problems(report, runner.replay_trial))
        self.assertEqual(b.failed, 1)
        self.assertIn("replayed min_slack", b.problems[-1])


class BareTree(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "op-sweep", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    unittest.main()
