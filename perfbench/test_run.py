"""Smoke tests of the benchmark itself, on tiny traces.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the binaries on first use (as run.py does) and take a minute or
two after that.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    """Runs run.main in-process on the smoke size; returns the result line."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--smoke"]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def assert_names_and_units(self, result, key):
        named = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, named)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    result = bench(workload["name"], trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.WORKLOADS[workload["name"]].traces)
                    self.assert_names_and_units(result, key)
                    for name in ("setup_s", "wall_s") if trace == 0 else ():
                        self.assertGreater(result["metrics"][name]["value"], 0, name)


def corrupt_ingest_report(wl):
    path = wl.work / "report.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


class CorruptOutputTest(unittest.TestCase):
    """A run whose output is wrong counts as failed and its time is not
    reported: it is not a fast run."""

    def test_corrupted_output_is_a_failed_run(self):
        self.assertEqual(set(run.WORKLOADS), {w["name"] for w in SPEC["workloads"]})
        check = run.Workload.check

        def corrupted_check(wl, child, trace):
            corrupt_ingest_report(wl)
            return check(wl, child, trace)

        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                run.Workload.check = corrupted_check
                try:
                    result = bench(workload, 0)
                finally:
                    run.Workload.check = check
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertNotIn("wall_s", result["metrics"])
                self.assertNotIn("jobs_per_s", result["metrics"])


class ExactCountsTest(unittest.TestCase):
    """A traced replay whose exact counts differ from the first replay's on
    the same trace counts as failed."""

    def test_count_drift_is_a_failed_replay(self):
        replay = run.traced_rep

        def drifted(wl, trace, model_jobs):
            if trace.exact_counts is None:
                trace.exact_counts = {name: -1 for name in run.EXACT_COUNTS}
            return replay(wl, trace, model_jobs)

        run.traced_rep = drifted
        try:
            result = bench("ingest_stats", 1)
        finally:
            run.traced_rep = replay
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], run.WORKLOADS["ingest_stats"].traces)
        self.assertNotIn("trace.attribution_gap_pct", result["metrics"])


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_repository(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest_stats",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
